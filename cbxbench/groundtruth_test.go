package main

import (
	"context"
	"strings"
	"testing"

	"cachebox/internal/workload"
)

// restrictPins keeps the pins of one benchmark and re-digests them, so
// a round over that benchmark alone can match.
func restrictPins(t *testing.T, bench string, perturb func(*pin)) pinTable {
	t.Helper()
	all, err := parsePins(pinsJSON)
	if err != nil {
		t.Fatal(err)
	}
	var ps []pin
	for _, cfg := range geometries {
		p, ok := all.lookup(bench, cfg.Sets, cfg.Ways)
		if !ok {
			t.Fatalf("no pin for %s %s", bench, cfg)
		}
		ps = append(ps, p)
	}
	tab := pinTable{digest: pinDigest(ps), byKey: map[string]pin{}}
	if perturb != nil {
		perturb(&ps[len(ps)-1])
	}
	for _, p := range ps {
		tab.byKey[p.key()] = p
	}
	return tab
}

// TestPerturbedPinFailsRound runs a real groundtruth round over one
// benchmark: with its true pins the output check passes, and with one
// hit rate nudged by one part in 10^12 the round reports the mismatch.
func TestPerturbedPinFailsRound(t *testing.T) {
	const bench = "zipf/kv-get"
	b, err := workload.ByName(population(), bench)
	if err != nil {
		t.Fatal(err)
	}
	g := &groundtruth{env: &env{seed: 1, dir: t.TempDir()}, benches: []workload.Benchmark{b}}

	g.pins = restrictPins(t, bench, nil)
	o := &outcome{}
	if _, err := g.round(context.Background(), o); err != nil {
		t.Fatal(err)
	}
	if len(o.problems) != 0 || o.failed != 0 || o.attempted != int64(len(geometries)) {
		t.Fatalf("true pins: attempted %d failed %d problems %v", o.attempted, o.failed, o.problems)
	}

	g.pins = restrictPins(t, bench, func(p *pin) { p.HitRate *= 1 + 1e-12 })
	o = &outcome{}
	if _, err := g.round(context.Background(), o); err != nil {
		t.Fatal(err)
	}
	if o.failed != 1 || len(o.problems) != 1 || !strings.Contains(o.problems[0], "pinned") {
		t.Fatalf("perturbed pin: failed %d problems %v, want one pin mismatch", o.failed, o.problems)
	}
}

// TestPinsFile checks the embedded pins cover the population at every
// geometry and that their digest matches their items.
func TestPinsFile(t *testing.T) {
	tab, err := parsePins(pinsJSON)
	if err != nil {
		t.Fatal(err)
	}
	var ps []pin
	for _, b := range population() {
		for _, cfg := range geometries {
			p, ok := tab.lookup(b.Name, cfg.Sets, cfg.Ways)
			if !ok {
				t.Fatalf("no pin for %s %s", b.Name, cfg)
			}
			ps = append(ps, p)
		}
	}
	if len(ps) != len(tab.byKey) {
		t.Errorf("%d pins, population needs %d", len(tab.byKey), len(ps))
	}
	if got := pinDigest(ps); got != tab.digest {
		t.Errorf("digest of pinned items %s, file says %s", got, tab.digest)
	}
	dup := strings.Replace(string(pinsJSON), `"items": [`, `"items": [{"bench":"ligra/bc","sets":128,"ways":12,"hit_rate":0,"windows":0},`, 1)
	if _, err := parsePins([]byte(dup)); err == nil {
		t.Error("duplicate pin accepted")
	}
}
