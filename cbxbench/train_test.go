package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"cachebox/internal/cachesim"
	"cachebox/internal/core"
)

func TestHeldOutSpread(t *testing.T) {
	flat := []evalSet{
		{bench: "a", cfg: cachesim.Config{Sets: 32, Ways: 12}, trueHR: 0.9},
		{bench: "a", cfg: cachesim.Config{Sets: 64, Ways: 12}, trueHR: 0.9},
		{bench: "b", cfg: cachesim.Config{Sets: 32, Ways: 12}, trueHR: 0.5},
		{bench: "b", cfg: cachesim.Config{Sets: 64, Ways: 12}, trueHR: 0.5},
	}
	if s := heldOutSpread(flat); s != 0 || s >= minHeldOutSpread {
		t.Errorf("flat hit rates spread %g, want 0", s)
	}
	flat[1].trueHR, flat[3].trueHR = 0.7, 0.4 // spreads 0.2 and 0.1
	if s := heldOutSpread(flat); s < 0.15-1e-12 || s > 0.15+1e-12 {
		t.Errorf("spread %g, want 0.15", s)
	}
}

// TestConvGemmShapes checks the probe shapes against the weights of the
// real generator: encoder convs are [out, in·16] and decoder transposed
// convs [in, out·16], so every probe's m·k equals a weight's size.
func TestConvGemmShapes(t *testing.T) {
	for _, cfg := range []core.Config{core.DefaultConfig(), serveModelConfig()} {
		m, err := core.NewModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var weights [][]int
		for _, p := range m.G.Params() {
			if strings.HasSuffix(p.Name, ".w") && (strings.HasPrefix(p.Name, "g.enc") || strings.HasPrefix(p.Name, "g.dec")) {
				weights = append(weights, p.Value.Shape)
			}
		}
		shapes := convGemmShapes(cfg, 1)
		if len(shapes) != len(weights) {
			t.Fatalf("ngf %d: %d shapes for %d conv weights", cfg.NGF, len(shapes), len(weights))
		}
		for i, s := range shapes {
			w := weights[i]
			enc := i < len(shapes)/2
			if (enc && (s.m != w[0] || s.k != w[1])) || (!enc && (s.m != w[1] || s.k != w[0])) {
				t.Errorf("ngf %d layer %d: shape %+v does not match weight %v", cfg.NGF, i, s, w)
			}
		}
	}
}

// TestTimedSourceBatches checks the batch accounting over two epochs of
// ten samples at batch 4: batches of 4, 4 and 2 per epoch, each timed
// from its first read to the next batch's.
func TestTimedSourceBatches(t *testing.T) {
	src := &timedSource{SampleSource: make(core.SliceSource, 10), batch: 4}
	for epoch := 0; epoch < 2; epoch++ {
		for i := 0; i < 10; i++ {
			if _, err := src.At(9 - i); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := []int{4, 4, 2, 4, 4, 2}
	if len(src.sizes) != len(want) {
		t.Fatalf("batch sizes %v, want %v", src.sizes, want)
	}
	for k := range want {
		if src.sizes[k] != want[k] {
			t.Fatalf("batch sizes %v, want %v", src.sizes, want)
		}
	}
	t0 := src.starts[0]
	for k := range src.starts {
		src.starts[k] = t0.Add(time.Duration(k) * time.Second)
	}
	rates := src.batchRates(t0.Add(8 * time.Second))
	wantRates := []float64{4, 4, 2, 4, 4, 2.0 / 3}
	for k, r := range rates {
		if math.Abs(r-wantRates[k]) > 1e-9 {
			t.Errorf("batch %d rate %g, want %g", k, r, wantRates[k])
		}
	}
}
