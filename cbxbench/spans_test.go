package main

import (
	"math"
	"testing"
)

// TestSelfTimes checks self time on a synthetic span set: nested
// children are subtracted, overlapping concurrent children count once,
// a span that only overlaps is not a child, and tracks are separate.
func TestSelfTimes(t *testing.T) {
	us := func(name string, start, end float64, tid uint64) span {
		return span{Name: name, Start: start, Dur: end - start, Tid: tid}
	}
	spans := []span{
		us("root", 0, 100, 1),
		us("a", 10, 30, 1),
		us("b", 20, 50, 1),    // concurrent with a: together they cover [10,50]
		us("c", 12, 15, 1),    // nested in a
		us("d", 90, 120, 1),   // starts inside root but ends after it
		us("root", 0, 100, 2), // same name, other track, no children
		us("outer", 0, 40, 3),
		us("inner", 0, 40, 3), // same interval: the first listed is the parent
	}
	want := map[string]float64{
		"root":  60 + 100,
		"a":     17,
		"b":     30,
		"c":     3,
		"d":     30,
		"outer": 0,
		"inner": 40,
	}
	got := selfTimes(spans)
	for name, w := range want {
		if math.Abs(got[name]-w/1e6) > 1e-12 {
			t.Errorf("self(%s) = %gs, want %gs", name, got[name], w/1e6)
		}
	}
	if len(got) != len(want) {
		t.Errorf("got %d names, want %d: %v", len(got), len(want), got)
	}
	if inc := inclusive(spans); math.Abs(inc["root"]-200/1e6) > 1e-12 {
		t.Errorf("inclusive(root) = %g, want %g", inc["root"], 200/1e6)
	}
}
