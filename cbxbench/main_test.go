package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestResultMatchesBenchmarkJSON checks that the result lines carry
// exactly the metrics BENCHMARK.json declares, with the same units:
// the end-to-end set untraced and the per-layer set traced.
func TestResultMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var b struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	o := &outcome{attempted: 1, lat: [][]float64{make([]float64, 100)}, layer: map[string]float64{}}
	same := func(kind string, want []decl, got map[string]metric) {
		if len(got) != len(want) {
			t.Errorf("%s: result has %d metrics, BENCHMARK.json declares %d", kind, len(got), len(want))
		}
		for _, d := range want {
			m, ok := got[d.Name]
			if !ok {
				t.Errorf("%s: %s missing from the result", kind, d.Name)
			} else if m.Unit != d.Unit {
				t.Errorf("%s: %s unit %q, declared %q", kind, d.Name, m.Unit, d.Unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd(o, 1).Metrics)
	same("per_layer", b.PerLayer, perLayer(o, o, traceStats{}).Metrics)
}
