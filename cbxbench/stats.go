package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// tailPct is the tail percentile latency_tail_ms reports. Every
// workload's latency groups have at least minBeyond samples beyond it.
const tailPct = 90.0

// tailCandidates are the percentiles highestTail chooses from.
var tailCandidates = []float64{99.9, 99, 95, 90, 75, 50}

// median returns the middle of xs, or the mean of the two middle values
// for an even count; 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs: the
// smallest value with at least p% of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n samples.
// The tolerance keeps decimal percentiles such as 99.9 from rounding a
// whole rank up.
func rank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond counts the samples ranked above the p-th percentile of n.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// highestTail returns the highest candidate percentile with at least
// minBeyond of n samples beyond it, or 0 when even the median has too
// few.
func highestTail(n int) float64 {
	for _, p := range tailCandidates {
		if beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 0
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// mean returns the arithmetic mean of xs, or 0 for no values.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// chunk splits xs into consecutive groups of size; a shorter remainder
// joins the last group, so every group has at least size values when
// xs has.
func chunk(xs []float64, size int) [][]float64 {
	var out [][]float64
	for len(xs) >= 2*size {
		out = append(out, xs[:size])
		xs = xs[size:]
	}
	if len(xs) > 0 {
		out = append(out, xs)
	}
	return out
}
