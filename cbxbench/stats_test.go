package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted input
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

// TestHighestTail checks the percentile choice: the highest candidate
// with at least ten samples ranked beyond it.
func TestHighestTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, // 10 beyond p99.9
		{9999, 99},    // 9 beyond p99.9
		{1000, 99},    // 10 beyond p99
		{999, 95},     // 9 beyond p99
		{200, 95},
		{100, 90},
		{99, 75},
		{20, 50},
		{19, 0}, // not even the median has ten beyond it
		{0, 0},
	} {
		if got := highestTail(c.n); got != c.want {
			t.Errorf("highestTail(%d) = %g, want %g", c.n, got, c.want)
		}
		if p := highestTail(c.n); p > 0 && beyond(c.n, p) < minBeyond {
			t.Errorf("highestTail(%d) = p%g has only %d beyond", c.n, p, beyond(c.n, p))
		}
	}
}

// TestChunk checks latency grouping: whole groups of the given size,
// with a short remainder folded into the last one.
func TestChunk(t *testing.T) {
	xs := make([]float64, 308)
	got := chunk(xs, 100)
	if len(got) != 3 || len(got[0]) != 100 || len(got[1]) != 100 || len(got[2]) != 108 {
		t.Errorf("chunk(308, 100) sizes = %v", sizes(got))
	}
	if got := chunk(xs[:150], 100); len(got) != 1 || len(got[0]) != 150 {
		t.Errorf("chunk(150, 100) sizes = %v", sizes(got))
	}
	if got := chunk(xs[:200], 100); len(got) != 2 {
		t.Errorf("chunk(200, 100) sizes = %v", sizes(got))
	}
	if got := chunk(nil, 100); len(got) != 0 {
		t.Errorf("chunk(nil) = %v", got)
	}
}

func sizes(gs [][]float64) []int {
	var n []int
	for _, g := range gs {
		n = append(n, len(g))
	}
	return n
}
