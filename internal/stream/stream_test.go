package stream

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"cachebox/internal/cachesim"
	"cachebox/internal/core"
	"cachebox/internal/heatmap"
	"cachebox/internal/metrics"
	"cachebox/internal/sampling"
	"cachebox/internal/store"
	"cachebox/internal/workload"
)

func testGeom() heatmap.Config {
	cfg := heatmap.DefaultConfig()
	cfg.Height, cfg.Width = 8, 8
	cfg.WindowInstr = 120
	return cfg
}

func testBenches() []workload.Benchmark {
	var bs []workload.Benchmark
	bs = append(bs, workload.SpecLike(2, 2, 1500).Benchmarks[:3]...)
	bs = append(bs, workload.ZipfLike(1500, 0.25).Benchmarks[:2]...)
	return bs
}

func testCfgs() []cachesim.Config {
	return []cachesim.Config{
		{Sets: 16, Ways: 2, BlockSize: 64, Policy: cachesim.PolicyLRU},
		{Sets: 64, Ways: 4, BlockSize: 64, Policy: cachesim.PolicyLRU},
	}
}

func openStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// materialise builds one item the classic way: full trace, RunTrace,
// BuildPair — the reference the streamed build must reproduce.
func materialise(t *testing.T, b workload.Benchmark, cfg cachesim.Config, hm heatmap.Config, maxWindows int) ([]heatmap.Pair, float64) {
	t.Helper()
	tr := b.Trace()
	lt := cachesim.RunTrace(cachesim.New(cfg), tr)
	pairs, err := heatmap.BuildPair(hm, lt.Accesses, lt.Misses)
	if err != nil {
		t.Fatal(err)
	}
	if maxWindows > 0 && len(pairs) > maxWindows {
		pairs = pairs[:maxWindows]
	}
	return pairs, lt.HitRate()
}

// The streamed run must emit exactly the materialised pipeline's pairs
// and hit rate.
func TestRunMatchesMaterialised(t *testing.T) {
	hm := testGeom()
	for _, b := range testBenches()[:2] {
		for _, cfg := range testCfgs() {
			want, wantHR := materialise(t, b, cfg, hm, 0)
			var got []heatmap.Pair
			res, err := Run(context.Background(), b, cfg, RunConfig{Heatmap: hm}, func(w Window) error {
				got = append(got, w.Pair)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Complete || res.Windows != len(want) || res.HitRate != wantHR {
				t.Fatalf("%s: result %+v, want %d windows hr=%v", b.Name, res, len(want), wantHR)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: streamed pairs differ from BuildPair", b.Name)
			}
		}
	}
}

func TestRunStopEarly(t *testing.T) {
	hm := testGeom()
	b, cfg := testBenches()[0], testCfgs()[0]
	var got []heatmap.Pair
	res, err := Run(context.Background(), b, cfg, RunConfig{Heatmap: hm, MaxWindows: 2, StopEarly: true}, func(w Window) error {
		got = append(got, w.Pair)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete || res.HitRate != -1 || res.Windows != 2 || len(got) != 2 {
		t.Fatalf("early stop result %+v with %d pairs", res, len(got))
	}
	want, _ := materialise(t, b, cfg, hm, 2)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("early-stopped pairs differ from truncated BuildPair")
	}
	// Capped but not early-stopped: exact hit rate survives.
	_, wantHR := materialise(t, b, cfg, hm, 0)
	res, err = Run(context.Background(), b, cfg, RunConfig{Heatmap: hm, MaxWindows: 2}, func(Window) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || res.HitRate != wantHR || res.Windows != 2 {
		t.Fatalf("capped result %+v, want complete hr=%v", res, wantHR)
	}
}

func TestShardRoundTrip(t *testing.T) {
	hm := testGeom()
	b, cfg := testBenches()[0], testCfgs()[0]
	pairs, _ := materialise(t, b, cfg, hm, 0)
	ws := make([]ShardWindow, len(pairs))
	for i, p := range pairs {
		ws[i] = ShardWindow{Access: p.Access, Miss: p.Miss, Weight: float64(i) * 0.5}
	}
	var buf bytes.Buffer
	if err := EncodeShard(&buf, ws); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeShard(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, ws) {
		t.Fatal("shard round trip mutated windows")
	}
}

// The streamed, sharded dataset must serve the exact sample sequence
// Pipeline.Dataset materialises: same order, same images, same params.
func TestBuildMatchesMaterialised(t *testing.T) {
	hm := testGeom()
	benches, cfgs := testBenches(), testCfgs()
	const minHR = 0.2
	st := openStore(t)
	man, _, err := Build(context.Background(), st, benches, cfgs, BuildConfig{
		Name: "equiv", Heatmap: hm, MaxWindows: 5, ShardWindows: 3, MinHitRate: minHR, Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := OpenDataset(st, man)
	if err != nil {
		t.Fatal(err)
	}

	var want []core.Sample
	for _, cfg := range cfgs {
		for _, b := range benches {
			pairs, hr := materialise(t, b, cfg, hm, 5)
			if hr < minHR {
				continue
			}
			params := core.CacheParams(cfg)
			for _, pr := range pairs {
				want = append(want, core.Sample{Access: pr.Access, Miss: pr.Miss, Params: params, Bench: b.Name})
			}
		}
	}
	if ds.Len() != len(want) {
		t.Fatalf("dataset serves %d samples, materialised path has %d", ds.Len(), len(want))
	}
	for i := range want {
		got, err := ds.At(i)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("sample %d differs from materialised pipeline", i)
		}
	}
}

// Truth must return the materialised pairs and hit rate with or
// without a store, recall a warm item from its shards without
// simulating, and share its item memo with Build.
func TestTruthMatchesMaterialised(t *testing.T) {
	hm := testGeom()
	b, cfg := testBenches()[0], testCfgs()[0]
	want, wantHR := materialise(t, b, cfg, hm, 5)
	st := openStore(t)
	for i, s := range []*store.Store{nil, st, st} {
		before := metrics.SimRuns.Value()
		got, hr, err := Truth(context.Background(), s, b, cfg, hm, 5)
		if err != nil {
			t.Fatal(err)
		}
		if hr != wantHR || !reflect.DeepEqual(got, want) {
			t.Fatalf("call %d: Truth differs from the materialised pipeline", i)
		}
		if sims := metrics.SimRuns.Value() - before; (i == 2) != (sims == 0) {
			t.Fatalf("call %d ran the simulator %d time(s)", i, sims)
		}
	}
	before := metrics.SimRuns.Value()
	if _, _, err := Build(context.Background(), st, []workload.Benchmark{b}, []cachesim.Config{cfg},
		BuildConfig{Heatmap: hm, MaxWindows: 5}); err != nil {
		t.Fatal(err)
	}
	if sims := metrics.SimRuns.Value() - before; sims != 0 {
		t.Fatalf("Build re-simulated an item Truth had memoised (%d runs)", sims)
	}
}

// A rebuild over a warm store must simulate nothing and reproduce the
// manifest exactly.
func TestBuildMemoised(t *testing.T) {
	hm := testGeom()
	benches, cfgs := testBenches()[:3], testCfgs()[:1]
	st := openStore(t)
	bc := BuildConfig{Name: "memo", Heatmap: hm, ShardWindows: 4, Workers: 2}
	man1, sm1, err := Build(context.Background(), st, benches, cfgs, bc)
	if err != nil {
		t.Fatal(err)
	}
	before := metrics.SimRuns.Value()
	man2, sm2, err := Build(context.Background(), st, benches, cfgs, bc)
	if err != nil {
		t.Fatal(err)
	}
	if d := metrics.SimRuns.Value() - before; d != 0 {
		t.Fatalf("warm rebuild ran the simulator %d times", d)
	}
	if !reflect.DeepEqual(man1, man2) {
		t.Fatal("warm rebuild changed the manifest")
	}
	if sm1.Digest != sm2.Digest {
		t.Fatal("warm rebuild changed the dataset digest")
	}
}

// Builds at different worker counts must publish byte-identical
// manifests (par.Map commits in index order).
func TestBuildDeterministicAcrossWorkers(t *testing.T) {
	hm := testGeom()
	benches, cfgs := testBenches(), testCfgs()
	enc := func(workers int) []byte {
		st := openStore(t)
		man, _, err := Build(context.Background(), st, benches, cfgs, BuildConfig{
			Name: "det", Heatmap: hm, ShardWindows: 3, Workers: workers,
			Sampling: &sampling.Config{K: 4, Seed: 7},
		})
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(man)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if !bytes.Equal(enc(1), enc(8)) {
		t.Fatal("sampled build differs between -j1 and -j8")
	}
}

// Sampling must simulate strictly fewer items than the exhaustive
// build and serve weighted representatives.
func TestSampledBuildSkipsSimulation(t *testing.T) {
	hm := testGeom()
	benches, cfgs := testBenches(), testCfgs()
	st := openStore(t)
	simBefore, skipBefore := metrics.SimRuns.Value(), metrics.SamplingSimSkipped.Value()
	man, _, err := Build(context.Background(), st, benches, cfgs, BuildConfig{
		Name: "sampled", Heatmap: hm, ShardWindows: 4, Workers: 2,
		Sampling: &sampling.Config{K: 3, Seed: 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	sims := metrics.SimRuns.Value() - simBefore
	skips := metrics.SamplingSimSkipped.Value() - skipBefore
	if sims >= uint64(len(benches)*len(cfgs)) {
		t.Fatalf("sampled build simulated %d items, want fewer than %d", sims, len(benches)*len(cfgs))
	}
	if skips == 0 {
		t.Fatal("sampled build skipped no items")
	}
	if man.Sampling == nil || man.Sampling.Representatives == 0 {
		t.Fatalf("manifest sampling info missing: %+v", man.Sampling)
	}
	ds, err := OpenDataset(st, man)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() == 0 {
		t.Fatal("sampled dataset is empty")
	}
	wsum := 0.0
	for i := 0; i < ds.Len(); i++ {
		s, err := ds.At(i)
		if err != nil {
			t.Fatal(err)
		}
		if s.Weight <= 0 {
			t.Fatalf("sample %d has non-positive weight %v", i, s.Weight)
		}
		wsum += s.Weight
	}
	// Per-bench caps can drop representatives whose items were
	// filtered, but the mean weight of the kept population must stay
	// near 1 per cache config sweep.
	if wsum == 0 {
		t.Fatal("all weights zero")
	}
	if n, err := man.Verify(st); err != nil || n == 0 {
		t.Fatalf("verify: %d shards, err=%v", n, err)
	}
}

func TestLoadManifestByDigest(t *testing.T) {
	hm := testGeom()
	st := openStore(t)
	man, sm, err := Build(context.Background(), st, testBenches()[:2], testCfgs()[:1], BuildConfig{
		Name: "load", Heatmap: hm, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	back, sm2, err := LoadManifest(st, sm.Digest)
	if err != nil {
		t.Fatal(err)
	}
	if sm2.SHA256 != sm.SHA256 {
		t.Fatal("digest load returned a different payload")
	}
	if !reflect.DeepEqual(back, man) {
		t.Fatal("manifest round trip mutated the dataset")
	}
}
