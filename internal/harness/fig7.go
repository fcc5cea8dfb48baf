package harness

import (
	"cachebox/internal/cachesim"
	"cachebox/internal/core"
	"cachebox/internal/obs"
	"cachebox/internal/workload"
	"context"
)

// Fig7Result is the RQ1 outcome: per-benchmark true/predicted hit
// rates for a model trained on all three suites, tested on unseen
// benchmarks (paper Figure 7; target average ≈ 3.05%).
type Fig7Result struct {
	Rows    []BenchRow
	Average float64
}

// Fig7 trains the mixed-suite model on a 64set-12way L1 and evaluates
// every held-out benchmark above the L1 data-regime threshold.
func (r *Runner) Fig7() (*Fig7Result, error) {
	_, figSpan := obs.Start(context.Background(), "harness.fig7")
	defer figSpan.End()
	var all []workload.Benchmark
	for _, s := range r.suites() {
		all = append(all, s.Benchmarks...)
	}
	train, test := r.split(all)
	cfg := L1Default
	m, err := r.trainOrLoad("fig7-rq1-mixed", func() (*core.Model, error) {
		src, err := r.datasetSource(train, []cachesim.Config{cfg}, levelThresholds[0])
		if err != nil {
			return nil, err
		}
		mc := r.Profile.Model
		model, err := core.NewModel(mc)
		if err != nil {
			return nil, err
		}
		r.logf("[fig7] training on %d samples from %d benchmarks\n", src.Len(), len(train))
		if _, err := model.TrainSource(src, r.trainConfig("fig7-rq1-mixed", r.Profile.Epochs, 1)); err != nil {
			return nil, err
		}
		return model, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Fig7Result{}
	// Ground-truth simulation fans out across the worker pool;
	// prediction and row commit stay serial in benchmark order.
	truths := r.truths(test, cfg)
	for i, b := range test {
		trueHR, predHR, err := 0.0, 0.0, truths[i].err
		if err == nil {
			trueHR, predHR, err = m.ScorePairs(r.Profile.Heatmap, truths[i].pairs, core.CacheParams(cfg), 8)
		}
		if err != nil {
			r.logf("[fig7] %s skipped: %v\n", b.Name, err)
			continue
		}
		row := BenchRow{Bench: b.Name, TrueHit: trueHR, PredHit: predHR, AbsDiff: absPct(trueHR, predHR)}
		if trueHR < levelThresholds[0] {
			row.Excluded = true
		}
		res.Rows = append(res.Rows, row)
	}
	sortRows(res.Rows)
	res.Average = r.renderRows("Figure 7 (RQ1): unseen benchmarks across suites, L1 64set-12way", res.Rows)
	return res, nil
}
