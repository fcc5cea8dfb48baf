// Command cbxbench is CacheBox's benchmark: one program that runs the
// learned cache filter's three workloads, checks their outputs, and
// prints every metric by name with its unit.
//
//	bash cbxbench/run.sh --workload groundtruth --seed 1 --seconds 20 --trace 0
//
// Workloads (see README.md for why each exists and what it bypasses):
//
//   - groundtruth: exhaustive streamed ground truth (stream.Build) for
//     the small-profile population at the seven paper geometries.
//   - train: the default-size conditioned CB-GAN trained through
//     TrainSource over a streamed dataset, then batched Predict on
//     held-out windows under every geometry.
//   - serve: cbx-gateway in front of two cbx-serve replicas on loopback,
//     driven open-loop at a fixed rate and then closed-loop.
//
// With --trace 0 the last stdout line carries the end-to-end metrics,
// measured untraced. With --trace 1 the workload runs once untraced and
// once with an obs collector installed plus the benchmark's own spans
// around each layer call, and the last line carries the per-layer
// metrics and the tracing overhead. Inputs derive from --seed only; the
// same seed gives the same inputs.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// setupRepeats is how many times each run sets its workload up; the
// median is reported as setup_s so one slow start does not move it.
const setupRepeats = 5

// scratchRoot holds every file a run writes, inside the checkout.
const scratchRoot = ".bench_build"

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last stdout line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what one measured phase of a workload produced.
type outcome struct {
	// attempted and failed count the workload's operations; a refused
	// or failed operation, or one whose output check failed, is failed.
	attempted, failed int64
	// problems lists output-check failures; any makes the run incorrect.
	problems []string
	// workPerS and heatmapsPerS are the phase's typical rates; each
	// workload says how it makes them robust to host stalls.
	workPerS, heatmapsPerS float64
	// lat holds operation latencies in milliseconds, in groups measured
	// under the same conditions. latency_p50_ms is the median over the
	// groups of each group's p50, so a burst of host contention that
	// spoils one group does not move it. latency_tail_ms is the lower
	// quartile over the groups of each group's tail percentile: a
	// neighbour's load on a shared host stretches the tail of whole
	// groups, and how many groups it reaches changes from run to run.
	lat [][]float64
	// layer holds per-layer metrics; filled only by traced phases.
	layer map[string]float64
}

func (o *outcome) problem(format string, args ...any) {
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// scenario is one benchmark workload. setup is timed and repeated;
// measure runs the timed work for about d, traced when tr is non-nil.
type scenario interface {
	setup(ctx context.Context) error
	measure(ctx context.Context, d time.Duration, tr *tracer) (*outcome, error)
	close()
}

// env is what every workload receives from the command line.
type env struct {
	seed int64
	dir  string // per-run scratch directory
}

var workloads = map[string]func(*env) scenario{
	"groundtruth": newGroundtruth,
	"train":       newTrain,
	"serve":       newServe,
}

func main() {
	name := flag.String("workload", "", "workload: groundtruth, train or serve")
	seed := flag.Int64("seed", 1, "seed the workload's inputs derive from")
	seconds := flag.Int("seconds", 20, "seconds one run measures")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	writePins := flag.String("write-pins", "", "groundtruth only: write the observed hit-rate pins to this file instead of checking them")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "cbxbench: need --workload groundtruth|train|serve, --seconds >= 1 and --trace 0|1\n")
		os.Exit(2)
	}
	if *writePins != "" {
		if err := writePinsFile(*writePins); err != nil {
			fmt.Fprintf(os.Stderr, "cbxbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(*name, mk, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cbxbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cbxbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run sets the workload up setupRepeats times, measures it, and builds
// the result line.
func run(name string, mk func(*env) scenario, seed int64, d time.Duration, traced bool) (*result, error) {
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratchRoot, "run-")
	if err != nil {
		return nil, err
	}
	//lint:ignore unchecked-error best-effort removal of the run's scratch directory at exit
	defer os.RemoveAll(dir)
	ctx := context.Background()
	e := &env{seed: seed, dir: dir}

	var w scenario
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if w != nil {
			w.close()
		}
		w = mk(e)
		t0 := time.Now()
		if err := w.setup(ctx); err != nil {
			w.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()

	host := describeHost(seed)
	//lint:ignore determinism-taint a benchmark result is a wall-clock measurement by definition, not a reproducible artifact
	if hl, err := json.Marshal(map[string]any{"workload": name, "host": host}); err == nil {
		fmt.Println(string(hl))
	}

	if !traced {
		o, err := w.measure(ctx, d, nil)
		if err != nil {
			return nil, err
		}
		return endToEnd(o, median(setups)), nil
	}
	// Traced: an untraced pass first, so the gap to the traced pass is
	// the tracing overhead; end-to-end numbers never come from here.
	base, err := w.measure(ctx, d/2, nil)
	if err != nil {
		return nil, err
	}
	tr := startTracing()
	o, err := w.measure(ctx, d/2, tr)
	events := tr.stop()
	if err != nil {
		return nil, err
	}
	if o.layer == nil {
		o.layer = map[string]float64{}
	}
	gemmProbes(o.layer)
	o.attempted += base.attempted
	o.failed += base.failed
	o.problems = append(o.problems, base.problems...)
	return perLayer(o, base, events), nil
}

// endToEnd turns an untraced outcome into the end-to-end result line.
func endToEnd(o *outcome, setupS float64) *result {
	var p50s, tails []float64
	for _, g := range o.lat {
		p50s = append(p50s, percentile(g, 50))
		tails = append(tails, percentile(g, tailPct))
		if beyond(len(g), tailPct) < minBeyond {
			o.problems = append(o.problems, fmt.Sprintf("latency_tail_ms: p%g needs %d samples beyond it, a group has %d of %d",
				tailPct, minBeyond, beyond(len(g), tailPct), len(g)))
		}
		fmt.Fprintf(os.Stderr, "latency group: %d samples, p50 %.3f ms, p%g %.3f ms, p99 %.3f ms; highest percentile with >=%d beyond: p%g\n",
			len(g), percentile(g, 50), tailPct, percentile(g, tailPct), percentile(g, 99), minBeyond, highestTail(len(g)))
	}
	if len(o.lat) == 0 {
		o.problems = append(o.problems, "no latency samples")
	}
	report(o)
	p50, tail := median(p50s), percentile(tails, 25)
	okRatio := 0.0
	if o.attempted > 0 {
		okRatio = float64(o.attempted-o.failed) / float64(o.attempted)
	}
	return &result{
		Correct:   len(o.problems) == 0 && o.attempted > 0,
		Attempted: max(o.attempted, 1),
		Failed:    o.failed,
		Metrics: map[string]metric{
			"setup_s":         {setupS, "s"},
			"work_per_s":      {o.workPerS, "1/s"},
			"heatmaps_per_s":  {o.heatmapsPerS, "1/s"},
			"latency_p50_ms":  {p50, "ms"},
			"latency_tail_ms": {tail, "ms"},
			"ok_ratio":        {okRatio, "ratio"},
			"peak_rss_mb":     {peakRSSMB(), "MB"},
		},
	}
}

// perLayer turns a traced outcome into the per-layer result line. Every
// per-layer metric is present for every workload; a layer the workload
// does not run reads 0.
func perLayer(o, base *outcome, events traceStats) *result {
	ms := make(map[string]metric, len(layerUnits)+2)
	for name, unit := range layerUnits {
		ms[name] = metric{o.layer[name], unit}
	}
	overhead := 0.0
	if o.workPerS > 0 {
		overhead = (base.workPerS/o.workPerS - 1) * 100
	}
	ms["trace.overhead_pct"] = metric{overhead, "%"}
	ms["trace.events"] = metric{float64(events.events), "count"}
	if events.dropped > 0 {
		o.problems = append(o.problems, fmt.Sprintf("trace dropped %d events", events.dropped))
	}
	report(o)
	return &result{
		Correct:   len(o.problems) == 0 && o.attempted > 0,
		Attempted: max(o.attempted, 1),
		Failed:    o.failed,
		Metrics:   ms,
	}
}

// report prints output-check failures to stderr.
func report(o *outcome) {
	for i, p := range o.problems {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "check: ... %d more\n", len(o.problems)-i)
			break
		}
		fmt.Fprintf(os.Stderr, "check: %s\n", p)
	}
}

// scratchDir makes a fresh directory under the run's scratch directory.
func (e *env) scratchDir(prefix string) (string, error) {
	return os.MkdirTemp(e.dir, prefix)
}

// removeAll deletes a scratch directory; failures only leak disk inside
// the run's own scratch directory, which run removes at exit.
func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintf(os.Stderr, "cbxbench: remove %s: %v\n", filepath.Base(dir), err)
	}
}
