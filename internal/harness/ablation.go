package harness

import (
	"cachebox/internal/cachesim"
	"cachebox/internal/core"
	"cachebox/internal/heatmap"
	"cachebox/internal/metrics"
	"cachebox/internal/obs"
	"cachebox/internal/par"
	"cachebox/internal/stream"
	"cachebox/internal/workload"
	"context"
	"fmt"
)

// AblationPoint is one setting's accuracy.
type AblationPoint struct {
	Label   string
	Average float64 // mean abs %-diff over evaluated benchmarks
	Samples int
}

// AblationResult sweeps one design choice.
type AblationResult struct {
	Name   string
	Points []AblationPoint
}

// Ablations validates the design choices DESIGN.md §4 calls out by
// sweeping them at a reduced scale: the heatmap overlap fraction
// (paper: 30% best) and the L1 loss weight λ (paper: 150). Each point
// trains a small model from scratch, so the sweep uses the tiny
// profile geometry regardless of the runner's scale.
func (r *Runner) Ablations() ([]AblationResult, error) {
	_, abSpan := obs.Start(context.Background(), "harness.ablation")
	defer abSpan.End()
	prof := ProfileFor(Tiny)
	prof.Epochs = 6
	prof.Ops = 40000
	suite := workload.SpecLike(8, 1, prof.Ops)
	train, test := workload.Split(suite.Benchmarks, 0.8, r.SplitSeed)
	cfg := L1Default

	// The tiny test split is a handful of benchmarks; the sweep keeps
	// them all (no data-regime threshold) so every point evaluates the
	// same population.
	evalWith := func(hm heatmap.Config, mc core.Config) (float64, int, error) {
		ctx := context.Background()
		ds, err := stream.Samples(ctx, r.Store, train, []cachesim.Config{cfg},
			stream.BuildConfig{Heatmap: hm, MaxWindows: prof.MaxPairs, Workers: r.workers()})
		if err != nil {
			return 0, 0, err
		}
		m, err := core.NewModel(mc)
		if err != nil {
			return 0, 0, err
		}
		if _, err := m.Train(ds, core.TrainConfig{Epochs: prof.Epochs, BatchSize: prof.BatchSize, Seed: 9}); err != nil {
			return 0, 0, err
		}
		type abTruth struct {
			pairs []heatmap.Pair
			err   error
		}
		testTruths, err := par.Map(ctx, r.workers(), test,
			func(ctx context.Context, _ int, b workload.Benchmark) (abTruth, error) {
				pairs, _, perr := stream.Truth(ctx, r.Store, b, cfg, hm, prof.MaxPairs)
				return abTruth{pairs: pairs, err: perr}, nil
			})
		if err != nil {
			return 0, 0, err
		}
		var diffs []float64
		for _, tt := range testTruths {
			if tt.err != nil {
				continue
			}
			trueHR, predHR, err := m.ScorePairs(hm, tt.pairs, core.CacheParams(cfg), 8)
			if err != nil {
				continue
			}
			diffs = append(diffs, metrics.AbsPctDiff(trueHR, predHR))
		}
		if len(diffs) == 0 {
			return 0, 0, fmt.Errorf("harness: ablation evaluated no benchmarks")
		}
		return metrics.Mean(diffs), len(diffs), nil
	}

	var results []AblationResult

	// 1. Overlap fraction sweep (paper fixes 30%).
	overlap := AblationResult{Name: "heatmap overlap fraction"}
	for _, ov := range []float64{0, 0.15, 0.30, 0.50} {
		hm := prof.Heatmap
		hm.Overlap = ov
		avg, n, err := evalWith(hm, prof.Model)
		if err != nil {
			return nil, err
		}
		overlap.Points = append(overlap.Points, AblationPoint{
			Label: formatPct(ov), Average: avg, Samples: n,
		})
	}
	results = append(results, overlap)

	// 2. λ sweep (paper uses 150).
	lambda := AblationResult{Name: "L1 loss weight lambda"}
	for _, l := range []float64{0, 50, 150, 300} {
		mc := prof.Model
		mc.Lambda = l
		avg, n, err := evalWith(prof.Heatmap, mc)
		if err != nil {
			return nil, err
		}
		lambda.Points = append(lambda.Points, AblationPoint{
			Label: formatFloat(l), Average: avg, Samples: n,
		})
	}
	results = append(results, lambda)

	for _, res := range results {
		r.logf("\nAblation: %s\n", res.Name)
		for _, p := range res.Points {
			r.logf("  %-8s avg abs %%-diff = %6.2f%% over %d benchmarks\n", p.Label, p.Average, p.Samples)
		}
	}
	return results, nil
}

func formatPct(f float64) string { return fmt.Sprintf("%.0f%%", f*100) }

func formatFloat(f float64) string { return fmt.Sprintf("%g", f) }
