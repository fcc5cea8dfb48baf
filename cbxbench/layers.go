package main

import (
	"math"
	"time"

	"cachebox/internal/core"
	"cachebox/internal/tensor"
)

// layerUnits lists every per-layer metric a traced run reports, with
// its unit. Every traced run reports all of them; a layer the workload
// does not run reads 0. README.md maps each to the end-to-end metric
// and workload it should move.
var layerUnits = map[string]string{
	// groundtruth
	"workload.trace_s":        "s",
	"cachesim.run_s":          "s",
	"cachesim.accesses_per_s": "1/s",
	"heatmap.build_pair_s":    "s",
	"heatmap.pairs":           "count",
	"stream.run_s":            "s",
	"stream.shard_encode_s":   "s",
	"stream.shard_bytes":      "B",
	"store.put_s":             "s",
	"store.put_bytes":         "B",
	"par.busy_share":          "ratio",
	// train
	"train.step_s":             "s",
	"train.g_forward_s":        "s",
	"train.d_forward_s":        "s",
	"train.g_backward_s":       "s",
	"train.d_backward_s":       "s",
	"train.step_self_s":        "s",
	"train.backward_self_s":    "s",
	"tensor.gemm_s":            "s",
	"tensor.gemm_calls":        "count",
	"tensor.pack_s":            "s",
	"tensor.im2col_s":          "s",
	"tensor.col2im_s":          "s",
	"stream.shard_decode_s":    "s",
	"tensor.gemm_gflops_train": "GFLOP/s",
	"core.codec_encode_s":      "s",
	"core.forward_s":           "s",
	"core.codec_decode_s":      "s",
	"core.hitrate_mae_pp":      "pp",
	// serve
	"serve.queue_ms":           "ms",
	"serve.infer_ms":           "ms",
	"serve.batch_size_mean":    "count",
	"serve.encode_ms":          "ms",
	"tensor.gemm_gflops_serve": "GFLOP/s",
	"gateway.proxy_ms":         "ms",
	"gateway.hedge_ratio":      "ratio",
	"gateway.retry_ratio":      "ratio",
	"loadgen.late_p99_ms":      "ms",
	"serve.rejected_ratio":     "ratio",
	"gateway.shed_ratio":       "ratio",
}

// gemmShape is one GEMM problem C[m,n] = A[m,k] × B[k,n].
type gemmShape struct{ m, k, n int }

func (s gemmShape) flops() float64 { return 2 * float64(s.m) * float64(s.k) * float64(s.n) }

// convGemmShapes lists the forward GEMM of every generator conv layer
// of cfg at the given batch, following the generator's layer schedule:
// depth log2(ImageSize); encoder channels ngf·min(2^i, 8), each a 4×4
// stride-2 conv lowered by im2col to [out, in·16] × [in·16, batch·HW];
// decoder transposed convs lowered to [out·16, in] × [in, batch·HW]
// over the skip-concatenated inputs, with the conditioning channels
// joining at the bottleneck.
func convGemmShapes(cfg core.Config, batch int) []gemmShape {
	d := cfg.Depth
	if d == 0 {
		d = int(math.Log2(float64(cfg.ImageSize)))
	}
	ch := make([]int, d)
	for i := range ch {
		ch[i] = cfg.NGF * min(1<<i, 8)
	}
	var out []gemmShape
	in := 1
	for i := 0; i < d; i++ {
		hw := cfg.ImageSize >> (i + 1)
		out = append(out, gemmShape{ch[i], in * 16, batch * hw * hw})
		in = ch[i]
	}
	up := ch[d-1]
	if cfg.CondDim > 0 {
		up += cfg.CondChannels
	}
	for j := 0; j < d; j++ {
		o := 1
		if j < d-1 {
			o = ch[d-2-j]
		}
		hw := cfg.ImageSize >> (d - j)
		out = append(out, gemmShape{o * 16, up, batch * hw * hw})
		if j < d-1 {
			up = o + ch[d-2-j]
		}
	}
	return out
}

// extremeShape returns the largest (or smallest) shape by flops.
func extremeShape(shapes []gemmShape, largest bool) gemmShape {
	best := shapes[0]
	for _, s := range shapes[1:] {
		if (largest && s.flops() > best.flops()) || (!largest && s.flops() < best.flops()) {
			best = s
		}
	}
	return best
}

// gemmGFLOPS times direct tensor.Gemm calls at shape s for about
// budget and returns the median call's rate in GFLOP/s.
func gemmGFLOPS(s gemmShape, budget time.Duration) float64 {
	a := make([]float32, s.m*s.k)
	b := make([]float32, s.k*s.n)
	c := make([]float32, s.m*s.n)
	for i := range a {
		a[i] = float32(i%7) * 0.25
	}
	for i := range b {
		b[i] = float32(i%5) * 0.5
	}
	tensor.Gemm(c, a, b, s.m, s.k, s.n, false)
	var per []float64
	start := time.Now()
	for len(per) < 5 || time.Since(start) < budget {
		t0 := time.Now()
		tensor.Gemm(c, a, b, s.m, s.k, s.n, false)
		per = append(per, time.Since(t0).Seconds())
	}
	return s.flops() / median(per) / 1e9
}

// gemmProbes measures GEMM at the train model's largest conv shape
// (batch 8) and the serve model's smallest (batch 1), the two ends of
// the shapes the workloads run.
func gemmProbes(out map[string]float64) {
	out["tensor.gemm_gflops_train"] = gemmGFLOPS(extremeShape(convGemmShapes(core.DefaultConfig(), trainBatch), true), 300*time.Millisecond)
	out["tensor.gemm_gflops_serve"] = gemmGFLOPS(extremeShape(convGemmShapes(serveModelConfig(), 1), false), 300*time.Millisecond)
}
