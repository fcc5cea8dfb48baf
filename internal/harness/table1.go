package harness

import (
	"cachebox/internal/baseline"
	"cachebox/internal/cachesim"
	"cachebox/internal/core"
	"cachebox/internal/metrics"
	"cachebox/internal/obs"
	"cachebox/internal/par"
	"cachebox/internal/workload"
	"context"
	"sort"
)

// Table1Row is one benchmark group's comparison: the baselines' mean
// absolute percentage difference in L1 miss rate over the group's
// phases, and CBox's best/worst/average phase.
type Table1Row struct {
	Group     string
	Baselines map[string]float64
	CBoxBest  float64
	CBoxWorst float64
	CBoxAvg   float64
}

// Table1Result mirrors the paper's Table 1.
type Table1Result struct {
	Rows []Table1Row
	// Avg holds each method's column average, keyed by method name
	// ("tab-base", "tab-rd", "tab-ic", "hrd", "stm", "cbox-best",
	// "cbox-worst", "cbox-avg").
	Avg map[string]float64
}

// Table1 compares the statistical predictors against CBox on L1 miss
// rate, over multi-phase benchmark groups held out from training.
func (r *Runner) Table1() (*Table1Result, error) {
	_, tabSpan := obs.Start(context.Background(), "harness.table1")
	defer tabSpan.End()
	p := r.Profile
	phases := p.SpecPhases
	if phases < 2 {
		phases = 3 // the comparison needs best/worst/avg across phases
	}
	suite := workload.SpecLike(p.SpecGroups, phases, p.Ops)
	// Same groups and split seed as the RQ2 model's training suite, so
	// every test group is unseen regardless of phase count.
	trainSingle, _ := r.split(r.specSuite().Benchmarks)
	m, err := r.rq2Model(trainSingle)
	if err != nil {
		return nil, err
	}
	_, test := r.split(suite.Benchmarks)
	byGroup := map[string][]workload.Benchmark{}
	var groups []string
	for _, b := range test {
		if _, ok := byGroup[b.Group]; !ok {
			groups = append(groups, b.Group)
		}
		byGroup[b.Group] = append(byGroup[b.Group], b)
	}
	sort.Strings(groups)
	if len(groups) > 5 {
		groups = groups[:5] // the paper compares five applications
	}
	cfg := L1Default
	preds := []baseline.Predictor{
		&baseline.Tabular{Variant: baseline.TabBase, Seed: 31},
		&baseline.Tabular{Variant: baseline.TabRD, Seed: 31},
		&baseline.Tabular{Variant: baseline.TabIC, Seed: 31},
		&baseline.HRD{},
		&baseline.STM{Seed: 31},
	}
	res := &Table1Result{Avg: map[string]float64{}}
	colSums := map[string][]float64{}
	for _, g := range groups {
		row := Table1Row{Group: g, Baselines: map[string]float64{}, CBoxBest: 101, CBoxWorst: -1}
		var cboxDiffs []float64
		baseDiffs := map[string][]float64{}
		gb := byGroup[g]
		// Parallel stage: trace synthesis, true miss-rate simulation and
		// heatmap ground truth per benchmark. The statistical predictors
		// carry internal state across calls, so they stay in the serial
		// commit loop below, consuming the results in benchmark order.
		traces, err := workload.Traces(context.Background(), r.workers(), gb)
		if err != nil {
			return nil, err
		}
		trueMisses, err := par.Map(context.Background(), r.workers(), gb,
			func(_ context.Context, i int, b workload.Benchmark) (float64, error) {
				metrics.SimRuns.Inc()
				return cachesim.RunTrace(cachesim.New(cfg), traces[i]).Stats.MissRate(), nil
			})
		if err != nil {
			return nil, err
		}
		truths := r.truths(gb, cfg)
		for i := range gb {
			for _, pr := range preds {
				d := metrics.AbsPctDiff(trueMisses[i], pr.PredictMissRate(traces[i], cfg))
				baseDiffs[pr.Name()] = append(baseDiffs[pr.Name()], d)
			}
			trueHR, predHR, evErr := 0.0, 0.0, truths[i].err
			if evErr == nil {
				trueHR, predHR, evErr = m.ScorePairs(r.Profile.Heatmap, truths[i].pairs, core.CacheParams(cfg), 8)
			}
			if evErr != nil {
				continue
			}
			// Hit-rate and miss-rate absolute differences coincide.
			cboxDiffs = append(cboxDiffs, metrics.AbsPctDiff(trueHR, predHR))
		}
		if len(cboxDiffs) == 0 {
			continue
		}
		for name, ds := range baseDiffs {
			row.Baselines[name] = metrics.Mean(ds)
			colSums[name] = append(colSums[name], row.Baselines[name])
		}
		for _, d := range cboxDiffs {
			if d < row.CBoxBest {
				row.CBoxBest = d
			}
			if d > row.CBoxWorst {
				row.CBoxWorst = d
			}
		}
		row.CBoxAvg = metrics.Mean(cboxDiffs)
		colSums["cbox-best"] = append(colSums["cbox-best"], row.CBoxBest)
		colSums["cbox-worst"] = append(colSums["cbox-worst"], row.CBoxWorst)
		colSums["cbox-avg"] = append(colSums["cbox-avg"], row.CBoxAvg)
		res.Rows = append(res.Rows, row)
	}
	for name, vals := range colSums {
		res.Avg[name] = metrics.Mean(vals)
	}
	r.logf("\nTable 1: absolute percentage difference of L1 miss-rate prediction\n")
	r.logf("%-22s %8s %8s %8s %8s %8s | %8s %8s %8s\n",
		"group", "tab-base", "tab-rd", "tab-ic", "hrd", "stm", "cb-best", "cb-worst", "cb-avg")
	for _, row := range res.Rows {
		r.logf("%-22s %8.2f %8.2f %8.2f %8.2f %8.2f | %8.2f %8.2f %8.2f\n",
			row.Group, row.Baselines["tab-base"], row.Baselines["tab-rd"], row.Baselines["tab-ic"],
			row.Baselines["hrd"], row.Baselines["stm"], row.CBoxBest, row.CBoxWorst, row.CBoxAvg)
	}
	r.logf("%-22s %8.2f %8.2f %8.2f %8.2f %8.2f | %8.2f %8.2f %8.2f\n", "avg % diff",
		res.Avg["tab-base"], res.Avg["tab-rd"], res.Avg["tab-ic"], res.Avg["hrd"], res.Avg["stm"],
		res.Avg["cbox-best"], res.Avg["cbox-worst"], res.Avg["cbox-avg"])
	return res, nil
}
