package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"cachebox/internal/cachesim"
	"cachebox/internal/heatmap"
	"cachebox/internal/metrics"
	"cachebox/internal/store"
	"cachebox/internal/stream"
	"cachebox/internal/trace"
	"cachebox/internal/workload"
)

// The groundtruth population is the small experiment profile: 120k
// accesses per benchmark and 0.25 problem scale over the four suite
// families, windowed into 32×32 heatmaps.
const (
	profileOps     = 120000
	profileScale   = 0.25
	specGroups     = 20
	specPhases     = 1
	populationDesc = "speclike(20 groups x 1 phase), ligralike, polylike, zipflike at 120000 accesses, scale 0.25; 32x32 heatmaps; 7 paper geometries"
)

// geometries are the paper's seven L1 configurations (sets × ways):
// the four RQ2 training geometries and the three unseen RQ3 ones.
// Several share a set count, so each trace is simulated at several
// associativities — where a one-pass multi-associativity engine would
// show its gain.
var geometries = []cachesim.Config{
	{Sets: 32, Ways: 12}, {Sets: 64, Ways: 12},
	{Sets: 128, Ways: 3}, {Sets: 128, Ways: 6}, {Sets: 128, Ways: 12},
	{Sets: 256, Ways: 6}, {Sets: 256, Ways: 12},
}

func population() []workload.Benchmark {
	var out []workload.Benchmark
	for _, s := range []workload.Suite{
		workload.SpecLike(specGroups, specPhases, profileOps),
		workload.LigraLike(profileOps, profileScale),
		workload.PolyLike(profileOps, profileScale),
		workload.ZipfLike(profileOps, profileScale),
	} {
		out = append(out, s.Benchmarks...)
	}
	return out
}

// perSuite takes n benchmarks from each suite family, in population
// order: the first n, or n drawn by rng. A draw balanced across suites
// keeps the cost of building its ground truth about the same for every
// seed.
func perSuite(benches []workload.Benchmark, n int, rng *rand.Rand) []workload.Benchmark {
	bySuite := map[string][]workload.Benchmark{}
	var suites []string
	for _, b := range benches {
		if _, ok := bySuite[b.Suite]; !ok {
			suites = append(suites, b.Suite)
		}
		bySuite[b.Suite] = append(bySuite[b.Suite], b)
	}
	var out []workload.Benchmark
	for _, s := range suites {
		bs := bySuite[s]
		if rng != nil {
			rng.Shuffle(len(bs), func(i, j int) { bs[i], bs[j] = bs[j], bs[i] })
		}
		out = append(out, bs[:min(n, len(bs))]...)
	}
	return out
}

// groundtruth builds ground truth for the whole population, one
// stream.Build call per benchmark (all seven geometries), into a fresh
// store per round. The seed sets the order of benchmarks; the traces
// themselves are fixed so every statistic can be pinned. The geometries
// keep the paper's order: their seven items share the par pool's two
// workers, and a seeded order would make each build's makespan depend on
// the seed.
type groundtruth struct {
	env     *env
	benches []workload.Benchmark
	pins    pinTable
}

func newGroundtruth(e *env) scenario { return &groundtruth{env: e} }

func (g *groundtruth) setup(ctx context.Context) error {
	pins, err := parsePins(pinsJSON)
	if err != nil {
		return err
	}
	g.pins = pins
	rng := rand.New(rand.NewSource(g.env.seed))
	g.benches = population()
	rng.Shuffle(len(g.benches), func(i, j int) { g.benches[i], g.benches[j] = g.benches[j], g.benches[i] })
	// Warm up: full ground truth for the first benchmark of each suite,
	// so code, allocator and file system paths are hot before anything
	// is timed. The same four every seed, so set-up cost does not depend
	// on the seed.
	dir, err := g.env.scratchDir("warm-")
	if err != nil {
		return err
	}
	defer removeAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	_, _, err = stream.Build(ctx, st, perSuite(population(), 1, nil), geometries, buildConfig())
	return err
}

func (g *groundtruth) close() {}

func buildConfig() stream.BuildConfig {
	return stream.BuildConfig{Name: "groundtruth", Heatmap: heatmap.DefaultConfig()}
}

// measure runs whole rounds over the population until d has passed,
// at least two; traced, it runs one round and then the materialised
// walk. The rates divide a round's simulated accesses × geometries and
// its stored windows by the sum, over benchmarks, of each benchmark's
// median build time across the rounds: a host stall shorter than a
// round then moves them only if it hits the same benchmark in most
// rounds.
func (g *groundtruth) measure(ctx context.Context, d time.Duration, tr *tracer) (*outcome, error) {
	o := &outcome{}
	var rounds []roundStats
	var lat []float64
	start := time.Now()
	more := func(round int) bool {
		if tr != nil {
			return round < 1
		}
		return round < 2 || time.Since(start) < d
	}
	for round := 0; more(round); round++ {
		var leaves leafTotals
		var putBytes uint64
		if tr != nil {
			leaves = readLeaves("stream.shard.encode", "store.put")
			putBytes = metrics.StoreBytesWritten.Value()
		}
		r, err := g.round(ctx, o)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, r)
		fmt.Fprintf(os.Stderr, "groundtruth round %d: %.0f accesses/s\n", round, r.accesses/r.wall.Seconds())
		for _, t := range r.took {
			lat = append(lat, float64(t)/float64(time.Millisecond))
		}
		if tr != nil {
			o.layer = g.layerMetrics(tr, leaves.since(), metrics.StoreBytesWritten.Value()-putBytes, r)
		}
	}
	var typical float64
	for i := range g.benches {
		ts := make([]float64, len(rounds))
		for j, r := range rounds {
			ts[j] = r.took[i].Seconds()
		}
		typical += median(ts)
	}
	last := rounds[len(rounds)-1]
	o.workPerS, o.heatmapsPerS = last.accesses/typical, float64(last.windows)/typical
	// A latency group is two rounds: 104 builds, so its p90 has ten
	// beyond it.
	o.lat = chunk(lat, 2*len(g.benches))
	if tr != nil {
		g.materialised(ctx, o)
	}
	return o, nil
}

// roundStats summarises one round over the population.
type roundStats struct {
	// took is each benchmark's build time, in g.benches order.
	took       []time.Duration
	wall       time.Duration
	accesses   float64
	windows    int
	shardBytes int64
}

// round builds the population's ground truth into a fresh store and
// checks every statistic against its pin.
func (g *groundtruth) round(ctx context.Context, o *outcome) (roundStats, error) {
	var r roundStats
	dir, err := g.env.scratchDir("gt-")
	if err != nil {
		return r, err
	}
	defer removeAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return r, err
	}
	var seen []pin
	for _, b := range g.benches {
		var man *stream.Manifest
		var err error
		d := timed(ctx, "bench.groundtruth.build", func(ctx context.Context) {
			//lint:ignore determinism-taint the benchmark times the build; the store it writes is scratch, deleted after the round
			man, _, err = stream.Build(ctx, st, []workload.Benchmark{b}, geometries, buildConfig())
		})
		o.attempted += int64(len(geometries))
		r.took = append(r.took, d)
		r.wall += d
		if err != nil {
			o.problem("%s: build: %v", b.Name, err)
			continue
		}
		r.accesses += float64(b.Ops * len(geometries))
		r.windows += man.TotalWindows
		for _, it := range man.Items {
			got := pin{Bench: it.Bench, Sets: it.Cache.Sets, Ways: it.Cache.Ways, HitRate: it.HitRate, Windows: it.Windows}
			seen = append(seen, got)
			if msg := g.pins.check(got); msg != "" {
				o.problem("%s", msg)
			}
		}
	}
	if got := pinDigest(seen); got != g.pins.digest {
		o.problems = append(o.problems, fmt.Sprintf("ground-truth digest %s, pinned %s", got, g.pins.digest))
	}
	if entries, err := st.Entries(); err == nil {
		for _, e := range entries {
			if e.Kind == stream.KindShard {
				r.shardBytes += e.Size
			}
		}
	}
	return r, nil
}

// layerMetrics derives the groundtruth per-layer figures of a traced
// round from its spans, leaf-timer deltas and store counters.
func (g *groundtruth) layerMetrics(tr *tracer, leaves leafTotals, putBytes uint64, r roundStats) map[string]float64 {
	spans := tr.snapshot()
	inc := inclusive(spans)
	workers := float64(runtime.GOMAXPROCS(0))
	return map[string]float64{
		"stream.run_s":          inc["stream.run"],
		"stream.shard_encode_s": leaves["stream.shard.encode"][0],
		"stream.shard_bytes":    float64(r.shardBytes),
		"store.put_s":           leaves["store.put"][0],
		"store.put_bytes":       float64(putBytes),
		"par.busy_share":        inc["par.task"] / (r.wall.Seconds() * workers),
	}
}

// materialised walks the population layer by layer through the public
// materialised API — workload.Benchmark.Trace, cachesim.RunTrace,
// heatmap.BuildPair — timing each call, and checks that it reproduces
// the pinned statistics the streamed build produced.
func (g *groundtruth) materialised(ctx context.Context, o *outcome) {
	var traceD, runD, pairD time.Duration
	var accesses float64
	pairs := 0
	hm := heatmap.DefaultConfig()
	for _, b := range g.benches {
		var t *trace.Trace
		d := timed(ctx, "workload.trace", func(context.Context) {
			t = b.Trace()
		})
		traceD += d
		for _, cfg := range geometries {
			var lt cachesim.LevelTrace
			d := timed(ctx, "cachesim.run_trace", func(context.Context) {
				lt = cachesim.RunTrace(cachesim.New(cfg), t)
			})
			runD += d
			accesses += float64(t.Len())
			var ps []heatmap.Pair
			var err error
			d = timed(ctx, "heatmap.build_pair", func(context.Context) {
				ps, err = heatmap.BuildPair(hm, lt.Accesses, lt.Misses)
			})
			pairD += d
			o.attempted++
			if err != nil {
				o.problem("%s %s: BuildPair: %v", b.Name, cfg, err)
				continue
			}
			pairs += len(ps)
			want, ok := g.pins.lookup(b.Name, cfg.Sets, cfg.Ways)
			if !ok || lt.Stats.HitRate() != want.HitRate || len(ps) != want.Windows {
				o.problem("%s %s: materialised hit rate %v pairs %d disagree with pin", b.Name, cfg, lt.Stats.HitRate(), len(ps))
			}
		}
	}
	o.layer["workload.trace_s"] = traceD.Seconds()
	o.layer["cachesim.run_s"] = runD.Seconds()
	o.layer["cachesim.accesses_per_s"] = accesses / runD.Seconds()
	o.layer["heatmap.build_pair_s"] = pairD.Seconds()
	o.layer["heatmap.pairs"] = float64(pairs)
}

// simulatePopulation builds the whole population once into a store
// under dir and returns its statistics.
func simulatePopulation(dir string) ([]pin, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	man, _, err := stream.Build(context.Background(), st, population(), geometries, buildConfig())
	if err != nil {
		return nil, err
	}
	ps := make([]pin, 0, len(man.Items))
	for _, it := range man.Items {
		ps = append(ps, pin{Bench: it.Bench, Sets: it.Cache.Sets, Ways: it.Cache.Ways, HitRate: it.HitRate, Windows: it.Windows})
	}
	return ps, nil
}
