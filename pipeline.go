package cachebox

import (
	"context"
	"fmt"

	"cachebox/internal/cachesim"
	"cachebox/internal/core"
	"cachebox/internal/heatmap"
	"cachebox/internal/metrics"
	"cachebox/internal/obs"
	"cachebox/internal/par"
	"cachebox/internal/stream"
	"cachebox/internal/workload"
)

// Pipeline wires the end-to-end CacheBox workflow: generate a
// benchmark's trace, simulate the cache (hierarchy), build aligned
// access/miss heatmap pairs, and assemble CB-GAN training samples or
// evaluation sets.
type Pipeline struct {
	// Heatmap is the heatmap geometry used throughout.
	Heatmap HeatmapConfig
	// MaxPairsPerBench caps the heatmap pairs taken per benchmark per
	// cache configuration (0 = unlimited).
	MaxPairsPerBench int
	// Store, when non-nil, memoises ground truth per (benchmark, cache
	// config) item in a content-addressed artifact store — the same
	// item entries DatasetSource and cbx-dataset write — so repeat runs
	// skip the simulator.
	Store *Store
	// Workers bounds the parallelism of ground-truth simulation in
	// Dataset, EvaluateAll and TrueHitRates: 0 = runtime.GOMAXPROCS(0),
	// 1 = the serial path. Results are committed in deterministic input
	// order, so output is identical whatever the width.
	Workers int
}

// NewPipeline returns a Pipeline with the default scaled-down heatmap
// geometry.
func NewPipeline() Pipeline {
	return Pipeline{Heatmap: heatmap.DefaultConfig()}
}

// BenchPairs simulates bench against a single cache level and returns
// the aligned heatmap pairs plus the level's true hit rate. The trace
// is synthesised, simulated and windowed in one streamed pass
// (stream.Truth), never materialised.
func (p Pipeline) BenchPairs(bench Benchmark, cfg CacheConfig) ([]HeatmapPair, float64, error) {
	return stream.Truth(context.Background(), p.Store, bench, cfg, p.Heatmap, p.MaxPairsPerBench)
}

// LevelPairs simulates bench against a full hierarchy and returns the
// heatmap pairs and true hit rate of each level. Level i's access
// stream is level i-1's miss stream, as in the paper's RQ4 setup.
func (p Pipeline) LevelPairs(bench Benchmark, cfgs []CacheConfig) ([][]HeatmapPair, []float64, error) {
	h, err := cachesim.NewHierarchy(cfgs...)
	if err != nil {
		return nil, nil, err
	}
	tr := bench.Trace()
	metrics.SimRuns.Inc()
	lts := cachesim.RunHierarchy(h, tr)
	pairs := make([][]HeatmapPair, len(lts))
	rates := make([]float64, len(lts))
	for i, lt := range lts {
		ps, err := heatmap.BuildPair(p.Heatmap, lt.Accesses, lt.Misses)
		if err != nil {
			return nil, nil, fmt.Errorf("cachebox: %s L%d: %w", bench.Name, i+1, err)
		}
		if p.MaxPairsPerBench > 0 && len(ps) > p.MaxPairsPerBench {
			ps = ps[:p.MaxPairsPerBench]
		}
		pairs[i] = ps
		rates[i] = lt.HitRate()
	}
	return pairs, rates, nil
}

// Dataset assembles CB-GAN training samples for every (benchmark,
// cache config) combination, tagging each sample with the cache
// parameters (paper RQ2: one model across configurations). Benchmarks
// whose true hit rate falls below minHitRate are excluded — the
// paper's §6.1 "high data regime" rule; pass 0 to keep everything.
// Simulation fans out across Workers; samples come back in (cfg,
// bench) order, so the dataset is identical to a serial build.
func (p Pipeline) Dataset(benches []Benchmark, cfgs []CacheConfig, minHitRate float64) ([]Sample, error) {
	ctx, dsSpan := obs.Start(context.Background(), "pipeline.dataset")
	dsSpan.TagInt("items", len(benches)*len(cfgs))
	defer dsSpan.End()
	return stream.Samples(ctx, p.Store, benches, cfgs, stream.BuildConfig{
		Heatmap:    p.Heatmap,
		MaxWindows: p.MaxPairsPerBench,
		MinHitRate: minHitRate,
		Workers:    p.Workers,
	})
}

// DatasetSource builds (or recalls from a warm store) a sharded
// streaming dataset and returns it as a lazily served SampleSource for
// Model.TrainSource, together with its manifest. The dataset is never
// fully materialised: windows stream through a bounded channel into
// content-addressed shards, and training fetches shards per batch. An
// exhaustive build serves the exact sample sequence Dataset returns
// (same order, images, params), so the trained model is byte-identical.
//
// A non-nil sampling config enables representative-interval sampling:
// per-window access signatures are clustered (no simulation), ground
// truth is simulated only for cluster representatives, and the served
// samples carry weights that make the thinned dataset train as a
// population estimate. Requires an attached Store.
func (p Pipeline) DatasetSource(name string, benches []Benchmark, cfgs []CacheConfig, minHitRate float64, smp *SamplingConfig) (SampleSource, *DatasetManifest, error) {
	if p.Store == nil {
		return nil, nil, fmt.Errorf("cachebox: DatasetSource requires a Store")
	}
	man, _, err := stream.Build(context.Background(), p.Store, benches, cfgs, stream.BuildConfig{
		Name:       name,
		Heatmap:    p.Heatmap,
		MaxWindows: p.MaxPairsPerBench,
		MinHitRate: minHitRate,
		Workers:    p.Workers,
		Sampling:   smp,
	})
	if err != nil {
		return nil, nil, err
	}
	ds, err := stream.OpenDataset(p.Store, man)
	if err != nil {
		return nil, nil, err
	}
	if ds.Len() == 0 {
		return nil, nil, fmt.Errorf("cachebox: dataset is empty (all benchmarks filtered?)")
	}
	return ds, man, nil
}

// Eval holds one benchmark's evaluation under one cache configuration.
type Eval struct {
	Bench      string
	Config     CacheConfig
	TrueHit    float64
	PredHit    float64
	AbsPctDiff float64
	Pairs      int
}

// Evaluate predicts bench's miss heatmaps with the model and compares
// the implied hit rate against the simulator's truth (paper §4.4).
func (p Pipeline) Evaluate(m *Model, bench Benchmark, cfg CacheConfig, batchSize int) (Eval, error) {
	res := p.EvaluateAll(m, []Benchmark{bench}, cfg, batchSize)[0]
	return res.Eval, res.Err
}

// EvalResult pairs one benchmark's evaluation with its error, so a
// fan-out over many benchmarks can skip individual failures (a trace
// too short for the heatmap geometry) without losing the rest.
type EvalResult struct {
	Eval Eval
	Err  error
}

// EvaluateAll evaluates many benchmarks under one configuration:
// ground-truth simulation fans out across Workers, model prediction
// stays serial (the generator's forward pass is not safe for
// concurrent use on one model), and results return in benchmark order
// regardless of scheduling.
func (p Pipeline) EvaluateAll(m *Model, benches []Benchmark, cfg CacheConfig, batchSize int) []EvalResult {
	type truth struct {
		pairs []HeatmapPair
		err   error
	}
	ctx, evalSpan := obs.Start(context.Background(), "pipeline.evaluate_all")
	evalSpan.TagInt("benches", len(benches))
	defer evalSpan.End()
	truths, mapErr := par.Map(ctx, p.Workers, benches,
		func(ctx context.Context, _ int, b Benchmark) (truth, error) {
			pairs, _, err := stream.Truth(ctx, p.Store, b, cfg, p.Heatmap, p.MaxPairsPerBench)
			return truth{pairs: pairs, err: err}, nil
		})
	out := make([]EvalResult, len(benches))
	if mapErr != nil {
		// Only a panicking task can get here; surface it on every row.
		for i := range out {
			out[i] = EvalResult{Err: mapErr}
		}
		return out
	}
	params := core.CacheParams(cfg)
	for i, b := range benches {
		ev := Eval{Bench: b.Name, Config: cfg, Pairs: len(truths[i].pairs)}
		err := truths[i].err // already names the benchmark
		if err == nil {
			if ev.TrueHit, ev.PredHit, err = m.ScorePairs(p.Heatmap, truths[i].pairs, params, batchSize); err != nil {
				err = fmt.Errorf("cachebox: %s: %w", b.Name, err)
			}
		}
		if err != nil {
			out[i] = EvalResult{Eval: Eval{Bench: b.Name, Config: cfg}, Err: err}
			continue
		}
		ev.AbsPctDiff = metrics.AbsPctDiff(ev.TrueHit, ev.PredHit)
		out[i] = EvalResult{Eval: ev}
	}
	return out
}

// TrueHitRates simulates every benchmark once and returns its hit rate
// under cfg (the paper's Figure 14 dataset analysis). Simulation fans
// out across Workers.
func (p Pipeline) TrueHitRates(benches []Benchmark, cfg CacheConfig) map[string]float64 {
	ctx, hrSpan := obs.Start(context.Background(), "pipeline.true_hit_rates")
	hrSpan.TagInt("benches", len(benches))
	defer hrSpan.End()
	rates, err := par.Map(ctx, p.Workers, benches,
		func(ctx context.Context, _ int, b Benchmark) (float64, error) {
			metrics.SimRuns.Inc()
			_, simSpan := obs.Start(ctx, "sim.run")
			simSpan.Tag("bench", b.Name)
			lt := cachesim.RunTrace(cachesim.New(cfg), b.Trace())
			simSpan.End()
			return lt.HitRate(), nil
		})
	out := make(map[string]float64, len(benches))
	if err != nil {
		return out
	}
	for i, b := range benches {
		out[b.Name] = rates[i]
	}
	return out
}

// AllSuites builds the three suite families at the given per-benchmark
// access budget and size scale, mirroring the paper's SPEC + Ligra +
// Polybench dataset.
func AllSuites(specGroups, specPhases, ops int, sizeScale float64) []Suite {
	return []Suite{
		workload.SpecLike(specGroups, specPhases, ops),
		workload.LigraLike(ops, sizeScale),
		workload.PolyLike(ops, sizeScale),
	}
}

// FlattenSuites concatenates suites' benchmarks.
func FlattenSuites(suites []Suite) []Benchmark {
	var out []Benchmark
	for _, s := range suites {
		out = append(out, s.Benchmarks...)
	}
	return out
}
