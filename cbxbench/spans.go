package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"cachebox/internal/obs"
)

// span is one completed trace event, in microseconds as obs writes it.
type span struct {
	Name  string  `json:"name"`
	Start float64 `json:"ts"`
	Dur   float64 `json:"dur"`
	Tid   uint64  `json:"tid"`
}

func (s span) end() float64 { return s.Start + s.Dur }

// traceStats is what a finished trace held.
type traceStats struct {
	events, dropped int
}

// tracer owns the obs collector of a traced phase. The collector feeds
// both the program's own spans and the benchmark's spans around its
// layer calls; leaf timers (GEMM, im2col, shard codec, store writes)
// reach only the per-name histogram, read as before/after deltas.
type tracer struct {
	c *obs.Collector
}

func startTracing() *tracer {
	c := obs.NewCollector(obs.Options{Trace: true})
	obs.Install(c)
	return &tracer{c: c}
}

// stop uninstalls the collector.
func (t *tracer) stop() traceStats {
	obs.Install(nil)
	return traceStats{events: t.c.EventCount(), dropped: int(t.c.DroppedEvents())}
}

// snapshot decodes the spans the collector has buffered so far.
func (t *tracer) snapshot() []span {
	var buf bytes.Buffer
	if err := t.c.WriteTrace(&buf); err != nil {
		fmt.Fprintf(os.Stderr, "cbxbench: render trace: %v\n", err)
		return nil
	}
	var file struct {
		TraceEvents []span `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		fmt.Fprintf(os.Stderr, "cbxbench: decode trace: %v\n", err)
		return nil
	}
	return file.TraceEvents
}

// leafTotals reads the cumulative per-name histogram sum (seconds) and
// count that obs spans and leaf timers feed.
type leafTotals map[string][2]float64

func readLeaves(names ...string) leafTotals {
	out := make(leafTotals, len(names))
	for _, n := range names {
		h := obs.SpanHistogram().With(n)
		out[n] = [2]float64{h.Sum(), float64(h.Count())}
	}
	return out
}

// since returns the sum and count each name gained after l was read.
func (l leafTotals) since() leafTotals {
	out := make(leafTotals, len(l))
	for n, v := range l {
		h := obs.SpanHistogram().With(n)
		out[n] = [2]float64{h.Sum() - v[0], float64(h.Count()) - v[1]}
	}
	return out
}

// timed runs fn inside a benchmark span named name and returns how long
// it took. With no collector installed the span is free and only the
// wall time is taken.
func timed(ctx context.Context, name string, fn func(ctx context.Context)) time.Duration {
	ctx, sp := obs.Start(ctx, name)
	t0 := time.Now()
	fn(ctx)
	d := time.Since(t0)
	sp.End()
	return d
}

// inclusive sums span durations by name, in seconds.
func inclusive(spans []span) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += s.Dur / 1e6
	}
	return out
}

// durations lists the durations of the spans named name, in
// milliseconds.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.Dur/1e3)
		}
	}
	return out
}

// selfTimes sums self time by span name, in seconds. A span's self time
// is its duration minus the part of it that spans nested inside it on
// the same track cover; concurrent children that overlap each other
// are counted once, as the union of their intervals.
func selfTimes(spans []span) map[string]float64 {
	byTid := make(map[uint64][]span)
	var tids []uint64
	for _, s := range spans {
		if _, ok := byTid[s.Tid]; !ok {
			tids = append(tids, s.Tid)
		}
		byTid[s.Tid] = append(byTid[s.Tid], s)
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	out := make(map[string]float64)
	for _, tid := range tids {
		track := byTid[tid]
		// Parents sort before the children they contain: earlier start
		// first, and the longer span first at an equal start.
		sort.SliceStable(track, func(i, j int) bool {
			if track[i].Start != track[j].Start {
				return track[i].Start < track[j].Start
			}
			return track[i].Dur > track[j].Dur
		})
		for i, p := range track {
			covered, reach := 0.0, p.Start
			for _, c := range track[i+1:] {
				if c.Start >= p.end() {
					break
				}
				if c.end() > p.end() {
					continue // overlaps p without nesting in it
				}
				switch {
				case c.Start >= reach:
					covered += c.Dur
					reach = c.end()
				case c.end() > reach:
					covered += c.end() - reach
					reach = c.end()
				}
			}
			out[p.Name] += (p.Dur - covered) / 1e6
		}
	}
	return out
}
