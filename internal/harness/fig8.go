package harness

import (
	"cachebox/internal/cachesim"
	"cachebox/internal/core"
	"cachebox/internal/metrics"
	"cachebox/internal/obs"
	"cachebox/internal/workload"
	"context"
)

// absPct is the paper's metric: |true − pred| in percentage points.
func absPct(trueHR, predHR float64) float64 { return metrics.AbsPctDiff(trueHR, predHR) }

// rq2Model trains (or loads) the single model conditioned on four L1
// cache configurations — shared by Figures 8, 9, 11 and 12.
func (r *Runner) rq2Model(train []workload.Benchmark) (*core.Model, error) {
	return r.trainOrLoad("rq2-multiconfig", func() (*core.Model, error) {
		src, err := r.datasetSource(train, RQ2Configs, levelThresholds[0])
		if err != nil {
			return nil, err
		}
		model, err := core.NewModel(r.Profile.Model)
		if err != nil {
			return nil, err
		}
		r.logf("[rq2] training on %d samples (%d benches x %d configs)\n", src.Len(), len(train), len(RQ2Configs))
		if _, err := model.TrainSource(src, r.trainConfig("rq2-multiconfig", r.Profile.Epochs, 2)); err != nil {
			return nil, err
		}
		return model, nil
	})
}

// ConfigResult is one cache configuration's evaluation.
type ConfigResult struct {
	Config  cachesim.Config
	Rows    []BenchRow
	Average float64
}

// Fig8Result is the RQ2 outcome: one conditioned model evaluated on
// all four training configurations (paper averages 2.79/2.06/2.59/
// 2.46%).
type Fig8Result struct {
	Configs []ConfigResult
}

// Fig8 runs RQ2.
func (r *Runner) Fig8() (*Fig8Result, error) {
	_, figSpan := obs.Start(context.Background(), "harness.fig8")
	defer figSpan.End()
	train, test := r.split(r.specSuite().Benchmarks)
	m, err := r.rq2Model(train)
	if err != nil {
		return nil, err
	}
	return r.evalConfigs(m, test, RQ2Configs, "Figure 8 (RQ2): one model, four L1 configurations")
}

// Fig9 runs RQ3: the RQ2 model on configurations absent from training
// (paper averages 1.96/1.26/3.28%).
func (r *Runner) Fig9() (*Fig8Result, error) {
	_, figSpan := obs.Start(context.Background(), "harness.fig9")
	defer figSpan.End()
	train, test := r.split(r.specSuite().Benchmarks)
	m, err := r.rq2Model(train)
	if err != nil {
		return nil, err
	}
	return r.evalConfigs(m, test, RQ3Configs, "Figure 9 (RQ3): unseen cache configurations")
}

func (r *Runner) evalConfigs(m *core.Model, test []workload.Benchmark, cfgs []cachesim.Config, title string) (*Fig8Result, error) {
	res := &Fig8Result{}
	for _, cfg := range cfgs {
		cr := ConfigResult{Config: cfg}
		truths := r.truths(test, cfg)
		params := core.CacheParams(cfg)
		for i, b := range test {
			trueHR, predHR, err := 0.0, 0.0, truths[i].err
			if err == nil {
				trueHR, predHR, err = m.ScorePairs(r.Profile.Heatmap, truths[i].pairs, params, 8)
			}
			if err != nil {
				r.logf("[%s] %s skipped: %v\n", cfg, b.Name, err)
				continue
			}
			row := BenchRow{Bench: b.Name, TrueHit: trueHR, PredHit: predHR, AbsDiff: absPct(trueHR, predHR)}
			if trueHR < levelThresholds[0] {
				row.Excluded = true
			}
			cr.Rows = append(cr.Rows, row)
		}
		sortRows(cr.Rows)
		cr.Average = r.renderRows(title+" — "+cr.Config.String(), cr.Rows)
		res.Configs = append(res.Configs, cr)
	}
	return res, nil
}

// Fig12Result is the RQ6 scatter: every (benchmark, config) true vs
// predicted hit-rate point (paper Figure 12).
type Fig12Result struct {
	Points []BenchRow
	// BiasIntermediate is the mean signed (pred − true) for points
	// with true hit rate in [0.70, 0.90): the paper reports a positive
	// correlation bias in this band.
	BiasIntermediate float64
	// BiasHigh is the same for true hit rate >= 0.90.
	BiasHigh float64
}

// Fig12 runs RQ6 using the RQ2 model across its four configurations,
// without the data-regime exclusion (the scatter shows everything).
func (r *Runner) Fig12() (*Fig12Result, error) {
	_, figSpan := obs.Start(context.Background(), "harness.fig12")
	defer figSpan.End()
	train, test := r.split(r.specSuite().Benchmarks)
	m, err := r.rq2Model(train)
	if err != nil {
		return nil, err
	}
	res := &Fig12Result{}
	var nInt, nHigh int
	for _, cfg := range RQ2Configs {
		truths := r.truths(test, cfg)
		params := core.CacheParams(cfg)
		for i, b := range test {
			if truths[i].err != nil {
				continue
			}
			trueHR, predHR, err := m.ScorePairs(r.Profile.Heatmap, truths[i].pairs, params, 8)
			if err != nil {
				continue
			}
			res.Points = append(res.Points, BenchRow{
				Bench: b.Name + "@" + cfg.String(), TrueHit: trueHR, PredHit: predHR,
				AbsDiff: absPct(trueHR, predHR),
			})
			signed := predHR - trueHR
			switch {
			case trueHR >= 0.70 && trueHR < 0.90:
				res.BiasIntermediate += signed
				nInt++
			case trueHR >= 0.90:
				res.BiasHigh += signed
				nHigh++
			}
		}
	}
	if nInt > 0 {
		res.BiasIntermediate /= float64(nInt)
	}
	if nHigh > 0 {
		res.BiasHigh /= float64(nHigh)
	}
	r.logf("\nFigure 12 (RQ6): true vs predicted hit rates (%d points)\n", len(res.Points))
	r.logf("%-44s %9s %9s %9s\n", "benchmark@config", "true", "pred", "pred-true")
	for _, p := range res.Points {
		r.logf("%-44s %9.4f %9.4f %+9.4f\n", p.Bench, p.TrueHit, p.PredHit, p.PredHit-p.TrueHit)
	}
	r.logf("mean signed bias: intermediate (70-90%%) = %+.4f over %d, high (>=90%%) = %+.4f over %d\n",
		res.BiasIntermediate, nInt, res.BiasHigh, nHigh)
	return res, nil
}
