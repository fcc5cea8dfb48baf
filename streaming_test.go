package cachebox

import (
	"reflect"
	"testing"

	"cachebox/internal/cachesim"
	"cachebox/internal/heatmap"
	"cachebox/internal/metrics"
)

func streamTestPipeline(t *testing.T, workers int) Pipeline {
	t.Helper()
	p := NewPipeline()
	p.Heatmap.Height, p.Heatmap.Width = 8, 8
	p.Heatmap.WindowInstr = 120
	p.MaxPairsPerBench = 5
	p.Workers = workers
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p.Store = st
	return p
}

func streamTestBenches() []Benchmark {
	var bs []Benchmark
	bs = append(bs, SpecLike(2, 2, 1500).Benchmarks[:3]...)
	bs = append(bs, ZipfLike(1500, 0.25).Benchmarks[:2]...)
	return bs
}

// referencePairs builds one item the materialised way (whole trace,
// cachesim.RunTrace, heatmap.BuildPair, then the pair cap): the
// reference the streamed pipeline must reproduce.
func referencePairs(t *testing.T, p Pipeline, b Benchmark, cfg CacheConfig) ([]HeatmapPair, float64) {
	t.Helper()
	lt := cachesim.RunTrace(cachesim.New(cfg), b.Trace())
	pairs, err := heatmap.BuildPair(p.Heatmap, lt.Accesses, lt.Misses)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) > p.MaxPairsPerBench {
		pairs = pairs[:p.MaxPairsPerBench]
	}
	return pairs, lt.HitRate()
}

// BenchPairs and Dataset stream every item; they must reproduce the
// materialised reference exactly at any pool width, and a warm store
// must serve the same pairs from its shards without simulating.
func TestPipelineStreamEquivalence(t *testing.T) {
	benches := streamTestBenches()
	cfgs := []CacheConfig{{Sets: 16, Ways: 2, BlockSize: 64}, {Sets: 64, Ways: 4, BlockSize: 64}}
	const minHR = 0.2
	ref := streamTestPipeline(t, 1)

	var want []Sample
	for _, cfg := range cfgs {
		for _, b := range benches {
			pairs, hr := referencePairs(t, ref, b, cfg)
			if hr < minHR {
				continue
			}
			for _, pr := range pairs {
				want = append(want, Sample{Access: pr.Access, Miss: pr.Miss, Params: CacheParams(cfg), Bench: b.Name})
			}
		}
	}
	for _, workers := range []int{1, 8} {
		got, err := streamTestPipeline(t, workers).Dataset(benches, cfgs, minHR)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("-j%d Dataset differs from the materialised reference", workers)
		}
	}

	p := streamTestPipeline(t, 1)
	wantPairs, wantHR := referencePairs(t, p, benches[0], cfgs[0])
	cold, coldHR, err := p.BenchPairs(benches[0], cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	if coldHR != wantHR || !reflect.DeepEqual(cold, wantPairs) {
		t.Fatal("BenchPairs differs from the materialised reference")
	}
	sims := metrics.SimRuns.Value()
	warm, warmHR, err := p.BenchPairs(benches[0], cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	if d := metrics.SimRuns.Value() - sims; d != 0 {
		t.Fatalf("warm BenchPairs ran the simulator %d time(s)", d)
	}
	if warmHR != coldHR || !reflect.DeepEqual(warm, cold) {
		t.Fatal("warm BenchPairs differs from the cold run")
	}
}

// DatasetSource must serve the exact sample sequence Dataset returns
// (exhaustive build), and a sampled build must serve a strict,
// positively weighted subset.
func TestDatasetSourceMatchesDataset(t *testing.T) {
	benches := streamTestBenches()
	cfgs := []CacheConfig{{Sets: 16, Ways: 2, BlockSize: 64}}
	p := streamTestPipeline(t, 0)

	want, err := p.Dataset(benches, cfgs, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	src, man, err := p.DatasetSource("equiv", benches, cfgs, 0.2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if man.TotalWindows != len(want) || src.Len() != len(want) {
		t.Fatalf("source serves %d samples, Dataset has %d", src.Len(), len(want))
	}
	for i := range want {
		got, err := src.At(i)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("sample %d differs from Dataset", i)
		}
	}

	smp := DefaultSamplingConfig()
	smp.K, smp.Seed = 3, 11
	sampled, sman, err := p.DatasetSource("thin", benches, cfgs, 0, &smp)
	if err != nil {
		t.Fatal(err)
	}
	if sman.Sampling == nil || sampled.Len() >= src.Len() {
		t.Fatalf("sampled dataset not thinned: %d vs %d", sampled.Len(), src.Len())
	}
	for i := 0; i < sampled.Len(); i++ {
		s, err := sampled.At(i)
		if err != nil {
			t.Fatal(err)
		}
		if s.Weight <= 0 {
			t.Fatalf("sampled sample %d has weight %v", i, s.Weight)
		}
	}
}

// DatasetSource without a store must refuse rather than silently
// materialise.
func TestDatasetSourceRequiresStore(t *testing.T) {
	p := NewPipeline()
	if _, _, err := p.DatasetSource("x", streamTestBenches()[:1], []CacheConfig{{Sets: 16, Ways: 2}}, 0, nil); err == nil {
		t.Fatal("DatasetSource accepted a nil store")
	}
}
