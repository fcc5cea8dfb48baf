package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"cachebox/internal/cachesim"
	"cachebox/internal/core"
	"cachebox/internal/heatmap"
	"cachebox/internal/store"
	"cachebox/internal/stream"
	"cachebox/internal/workload"
)

// The train workload's fixed budget: the default-size conditioned
// CB-GAN (32×32, ngf 16, ndf 16) trained at batch 8 for trainEpochs
// passes over trainBenches × 7 geometries × trainWindows samples, then
// batched predict at batch 16 on heldOutWindows windows of every
// held-out (benchmark, geometry) pair. The budget is fixed, not timed,
// so the hit-rate error it ends at is a pure function of the seed.
const (
	trainBenches   = 8
	trainWindows   = 2
	trainEpochs    = 3
	trainBatch     = 8
	predictBatch   = 16
	heldOutWindows = 16
	// predictGroup is how many consecutive predict calls make one
	// latency group; its p90 has ten calls beyond it. A run predicts
	// at least one group.
	predictGroup = 100
	// minHeldOutSpread is the smallest mean spread, across the seven
	// geometries, of the held-out true hit rates that lets the
	// evaluation see whether conditioning works.
	minHeldOutSpread = 0.05
)

// heldOut is the fixed evaluation set. Each is geometry-sensitive at
// this scale (whole-trace hit rates spread 0.2–0.5 across the seven
// geometries), and together they cover three suites. It is fixed
// rather than drawn from the seed so the hit-rate error of different
// seeds differs only by what the model trained on.
var heldOut = []string{"spec/605.romsish-400B", "spec/602.camish-400B", "ligra/kcore", "zipf/kv-get"}

// evalSet is one held-out (benchmark, geometry) pair's windows.
type evalSet struct {
	bench        string
	cfg          cachesim.Config
	access, miss []*heatmap.Heatmap
	trueHR       float64 // over the windows, as predicted hit rates are
}

type train struct {
	env      *env
	dir      string
	ds       *stream.Dataset
	evals    []evalSet
	problems []string // input checks failed during setup
}

func newTrain(e *env) scenario { return &train{env: e} }

func (t *train) close() {
	if t.dir != "" {
		removeAll(t.dir)
	}
}

// setup draws the training benchmarks from the seed, builds their
// streamed dataset into a fresh store, and simulates the held-out
// windows.
func (t *train) setup(ctx context.Context) error {
	pins, err := parsePins(pinsJSON)
	if err != nil {
		return err
	}
	pop := population()
	held := make(map[string]bool, len(heldOut))
	var heldBenches []workload.Benchmark
	for _, name := range heldOut {
		b, err := workload.ByName(pop, name)
		if err != nil {
			return err
		}
		held[b.Group] = true
		heldBenches = append(heldBenches, b)
	}
	// Whole groups stay on one side of the split; the seed draws two
	// training benchmarks from each suite.
	var pool []workload.Benchmark
	for _, b := range pop {
		if !held[b.Group] {
			pool = append(pool, b)
		}
	}
	train := perSuite(pool, trainBenches/4, rand.New(rand.NewSource(t.env.seed)))

	if t.dir, err = t.env.scratchDir("train-"); err != nil {
		return err
	}
	st, err := store.Open(t.dir)
	if err != nil {
		return err
	}
	bc := buildConfig()
	bc.Name, bc.MaxWindows = "train", trainWindows
	man, _, err := stream.Build(ctx, st, train, geometries, bc)
	if err != nil {
		return err
	}
	if t.ds, err = stream.OpenDataset(st, man); err != nil {
		return err
	}

	t.evals, t.problems = nil, nil
	hm := heatmap.DefaultConfig()
	for _, b := range heldBenches {
		for _, cfg := range geometries {
			es := evalSet{bench: b.Name, cfg: cfg}
			res, err := stream.Run(ctx, b, cfg, stream.RunConfig{Heatmap: hm, MaxWindows: heldOutWindows}, func(w stream.Window) error {
				es.access = append(es.access, w.Pair.Access)
				es.miss = append(es.miss, w.Pair.Miss)
				return nil
			})
			if err != nil {
				return err
			}
			// The held-out run caps its windows, so only the whole-trace
			// hit rate is compared with the groundtruth pin.
			if want, ok := pins.lookup(b.Name, cfg.Sets, cfg.Ways); !ok || res.HitRate != want.HitRate {
				t.problems = append(t.problems, fmt.Sprintf("held-out %s %s: hit rate %v, pinned %v", b.Name, cfg, res.HitRate, want.HitRate))
			}
			if es.trueHR, err = heatmap.HitRate(hm, es.access, es.miss); err != nil {
				return err
			}
			t.evals = append(t.evals, es)
		}
	}
	if s := heldOutSpread(t.evals); s < minHeldOutSpread {
		t.problems = append(t.problems, fmt.Sprintf("held-out true hit rates spread %.3f across geometries, need >= %.2f: the evaluation cannot see conditioning", s, minHeldOutSpread))
	}
	return nil
}

// heldOutSpread is the mean over held-out benchmarks of the range
// (max - min) of their true hit rates across geometries.
func heldOutSpread(evals []evalSet) float64 {
	lo, hi := map[string]float64{}, map[string]float64{}
	var order []string
	for _, es := range evals {
		if _, ok := lo[es.bench]; !ok {
			order = append(order, es.bench)
			lo[es.bench], hi[es.bench] = es.trueHR, es.trueHR
		}
		lo[es.bench] = math.Min(lo[es.bench], es.trueHR)
		hi[es.bench] = math.Max(hi[es.bench], es.trueHR)
	}
	spreads := make([]float64, len(order))
	for i, b := range order {
		spreads[i] = hi[b] - lo[b]
	}
	return mean(spreads)
}

// measure trains a fresh model for the fixed budget, then predicts the
// held-out windows in whole passes until d has passed since the start.
func (t *train) measure(ctx context.Context, d time.Duration, tr *tracer) (*outcome, error) {
	o := &outcome{layer: map[string]float64{}}
	for _, p := range t.problems {
		o.problem("%s", p)
	}
	start := time.Now()
	m, err := core.NewModel(core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	leaves := readLeaves("tensor.gemm", "tensor.pack", "tensor.im2col", "tensor.col2im", "stream.shard.decode")
	src := &timedSource{SampleSource: t.ds, batch: trainBatch}
	stats, err := m.TrainSource(src, core.TrainConfig{
		Epochs:    trainEpochs,
		BatchSize: trainBatch,
		Seed:      t.env.seed,
	})
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	batchRates := src.batchRates(time.Now())
	trainLeaves := leaves.since()
	for _, es := range stats.Epochs {
		o.attempted += int64(es.Batches)
		o.failed += int64(es.Skipped)
		for _, v := range []float64{es.DLoss, es.GAdv, es.GL1} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				o.problems = append(o.problems, fmt.Sprintf("epoch %d: non-finite loss %v", es.Epoch, v))
			}
		}
		if es.Skipped > 0 {
			o.problems = append(o.problems, fmt.Sprintf("epoch %d: %d batches skipped on non-finite losses", es.Epoch, es.Skipped))
		}
	}
	o.workPerS = median(batchRates)

	minCalls := predictGroup
	if tr != nil {
		minCalls = 1
	}
	firstHR := make([]float64, len(t.evals))
	var passRates, lat []float64
	for pass := 0; len(lat) < minCalls || time.Since(start) < d; pass++ {
		var busy time.Duration
		n := 0
		for i, es := range t.evals {
			var pred []*heatmap.Heatmap
			took := timed(ctx, "bench.train.predict", func(context.Context) {
				pred = m.Predict(es.access, core.CacheParams(es.cfg), predictBatch)
			})
			busy += took
			n += len(pred)
			o.attempted++
			lat = append(lat, float64(took)/float64(time.Millisecond))
			hr, msg := scorePrediction(es, pred)
			switch {
			case msg != "":
				o.problem("%s %s: %s", es.bench, es.cfg, msg)
			case pass == 0:
				firstHR[i] = hr
			case hr != firstHR[i]:
				o.problem("%s %s: pass %d predicted hit rate %v, pass 0 %v", es.bench, es.cfg, pass, hr, firstHR[i])
			}
		}
		passRates = append(passRates, float64(n)/busy.Seconds())
	}
	o.heatmapsPerS = median(passRates)
	o.lat = chunk(lat, predictGroup)
	errs := make([]float64, len(t.evals))
	for i, es := range t.evals {
		errs[i] = math.Abs(es.trueHR-firstHR[i]) * 100
	}
	o.layer["core.hitrate_mae_pp"] = mean(errs)
	if tr != nil {
		t.layerMetrics(tr, trainLeaves, o.layer)
	}
	return o, nil
}

// timedSource passes training's sample reads through to the dataset and
// notes when each batch starts: the training loop reads a batch's
// samples one after another and then steps, so a batch runs from its
// first read to the next batch's first read.
type timedSource struct {
	core.SampleSource
	batch  int
	reads  int
	starts []time.Time
	sizes  []int
}

func (s *timedSource) At(i int) (core.Sample, error) {
	if p := s.reads % s.Len(); p%s.batch == 0 {
		s.starts = append(s.starts, time.Now())
		s.sizes = append(s.sizes, min(s.batch, s.Len()-p))
	}
	s.reads++
	return s.SampleSource.At(i)
}

// batchRates returns each batch's samples per second; the last batch
// runs until end.
func (s *timedSource) batchRates(end time.Time) []float64 {
	rates := make([]float64, len(s.starts))
	for k, t0 := range s.starts {
		t1 := end
		if k+1 < len(s.starts) {
			t1 = s.starts[k+1]
		}
		rates[k] = float64(s.sizes[k]) / t1.Sub(t0).Seconds()
	}
	return rates
}

// scorePrediction checks one predict call's output and returns the hit
// rate it implies: every prediction must be finite, and once clamped to
// its access heatmap's support it must fit inside it.
func scorePrediction(es evalSet, pred []*heatmap.Heatmap) (float64, string) {
	if len(pred) != len(es.access) {
		return 0, fmt.Sprintf("%d predictions for %d windows", len(pred), len(es.access))
	}
	constrained := make([]*heatmap.Heatmap, len(pred))
	for i, p := range pred {
		a := es.access[i]
		if p.H != a.H || p.W != a.W {
			return 0, fmt.Sprintf("window %d: prediction is %dx%d, access %dx%d", i, p.H, p.W, a.H, a.W)
		}
		for _, v := range p.Pix {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				return 0, fmt.Sprintf("window %d: non-finite predicted pixel %v", i, v)
			}
		}
		c := heatmap.ConstrainMiss(p, a)
		for j, v := range c.Pix {
			if v < 0 || v > a.Pix[j] {
				return 0, fmt.Sprintf("window %d pixel %d: %v outside access support %v", i, j, v, a.Pix[j])
			}
		}
		constrained[i] = c
	}
	hr, err := heatmap.HitRate(heatmap.DefaultConfig(), es.access, constrained)
	if err != nil {
		return 0, err.Error()
	}
	return hr, ""
}

// layerMetrics fills the train per-layer figures from the traced
// phase's spans and the training part's leaf-timer deltas.
func (t *train) layerMetrics(tr *tracer, leaves leafTotals, out map[string]float64) {
	spans := tr.snapshot()
	inc, self := inclusive(spans), selfTimes(spans)
	out["train.step_s"] = inc["train.step"]
	out["train.g_forward_s"] = inc["train.g_forward"]
	out["train.d_forward_s"] = inc["train.d_forward"]
	out["train.g_backward_s"] = inc["train.g_backward"]
	out["train.d_backward_s"] = inc["train.d_backward"]
	out["train.step_self_s"] = self["train.step"]
	// No span or leaf timer covers MatMulABT, so backward time no child
	// span accounts for is reported as the backward spans' self time.
	out["train.backward_self_s"] = self["train.g_backward"] + self["train.d_backward"]
	out["tensor.gemm_s"] = leaves["tensor.gemm"][0]
	out["tensor.gemm_calls"] = leaves["tensor.gemm"][1]
	out["tensor.pack_s"] = leaves["tensor.pack"][0]
	out["tensor.im2col_s"] = leaves["tensor.im2col"][0]
	out["tensor.col2im_s"] = leaves["tensor.col2im"][0]
	out["stream.shard_decode_s"] = leaves["stream.shard.decode"][0]
	out["core.codec_encode_s"] = inc["codec.encode"]
	out["core.forward_s"] = inc["model.forward"]
	out["core.codec_decode_s"] = inc["codec.decode"]
}
