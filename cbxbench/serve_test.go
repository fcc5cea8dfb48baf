package main

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"cachebox/internal/serve"
)

// TestOpenLoopChargesLateness drives the open loop faster than one
// connection can serve: every request is due 5ms after the previous
// one but takes 12ms, so request i cannot be sent before 12i ms and is
// at least 7i ms late, and its latency, counted from its due time,
// includes that lateness.
func TestOpenLoopChargesLateness(t *testing.T) {
	const n, rate, work = 10, 200.0, 12 * time.Millisecond
	res := openLoop(context.Background(), n, rate, 1, func(int) bool {
		time.Sleep(work)
		return true
	})
	if len(res) != n {
		t.Fatalf("got %d results, want %d", len(res), n)
	}
	const slack = time.Millisecond
	for i, r := range res {
		minLate := time.Duration(i) * (work - time.Second/rate)
		if r.late < minLate-slack {
			t.Errorf("request %d: late %v, want >= %v", i, r.late, minLate)
		}
		if r.lat < r.late+work-slack {
			t.Errorf("request %d: latency %v does not include lateness %v plus work %v", i, r.lat, r.late, work)
		}
		if !r.ok {
			t.Errorf("request %d not ok", i)
		}
	}
	if res[n-1].late <= res[0].late {
		t.Errorf("lateness did not grow: first %v, last %v", res[0].late, res[n-1].late)
	}
}

// TestOpenLoopOnSchedule checks that with free connections requests go
// out at their due times: lateness stays small and latency is the work.
func TestOpenLoopOnSchedule(t *testing.T) {
	res := openLoop(context.Background(), 20, 500, 4, func(int) bool { return true })
	for i, r := range res {
		if r.late < 0 || r.late > 50*time.Millisecond {
			t.Errorf("request %d: late %v", i, r.late)
		}
		if r.lat < r.late {
			t.Errorf("request %d: latency %v below lateness %v", i, r.lat, r.late)
		}
	}
}

func TestCheckResponse(t *testing.T) {
	size := serveModelConfig().ImageSize
	good, err := json.Marshal(serve.PredictResponse{Miss: serve.HeatmapJSON{H: size, W: size, Pix: make([]float32, size*size)}})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkResponse(good); err != nil {
		t.Errorf("good response rejected: %v", err)
	}
	short, err := json.Marshal(serve.PredictResponse{Miss: serve.HeatmapJSON{H: size, W: size, Pix: make([]float32, size)}})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkResponse(short); err == nil {
		t.Error("response with too few pixels accepted")
	}
	if err := checkResponse([]byte(`{"miss":`)); err == nil {
		t.Error("truncated response accepted")
	}
}

func TestParsePromAndDelta(t *testing.T) {
	before := parseProm(strings.NewReader(`# HELP x
cbx_serve_requests_total{code="200"} 10
cbx_serve_requests_total{code="429"} 1
cbx_serve_batch_size_sum 4
`))
	after := parseProm(strings.NewReader(`cbx_serve_requests_total{code="200"} 30
cbx_serve_requests_total{code="429"} 6
cbx_serve_requests_total{code="500"} 2
cbx_serve_batch_size_sum 10.5
`))
	if got := delta(before, after, "cbx_serve_requests_total{"); got != 27 {
		t.Errorf("summed delta = %g, want 27", got)
	}
	if got := delta(before, after, `cbx_serve_requests_total{code="429"}`); got != 5 {
		t.Errorf("429 delta = %g, want 5", got)
	}
	if got := delta(before, after, "cbx_serve_batch_size_sum"); got != 6.5 {
		t.Errorf("sum delta = %g, want 6.5", got)
	}
}

func TestRate(t *testing.T) {
	ms := time.Millisecond
	if got := rate([]time.Duration{30 * ms, 10 * ms, 20 * ms, 510 * ms}); math.Abs(got-6) > 1e-9 {
		t.Errorf("rate = %g, want 6 (3 completions after the first over 0.5 s)", got)
	}
	if got := rate([]time.Duration{10 * ms}); got != 0 {
		t.Errorf("rate of one completion = %g, want 0", got)
	}
}

// TestClosedLoop runs four clients for 200ms against a 2ms operation:
// every request index is used once, each client waits for its previous
// request, and only completions inside the window are returned.
func TestClosedLoop(t *testing.T) {
	const d, work, clients = 200 * time.Millisecond, 2 * time.Millisecond, 4
	var mu sync.Mutex
	seen := map[int]bool{}
	res := closedLoop(context.Background(), d, clients, 100, func(i int) bool {
		mu.Lock()
		if seen[i] {
			t.Errorf("index %d sent twice", i)
		}
		seen[i] = true
		mu.Unlock()
		time.Sleep(work)
		return i%2 == 0
	})
	if limit := clients * int(d/work); len(res) == 0 || len(res) > limit {
		t.Fatalf("%d completions, want 1..%d", len(res), limit)
	}
	for _, c := range res {
		if c.at <= 0 || c.at >= d {
			t.Errorf("completion at %v outside (0, %v)", c.at, d)
		}
	}
	for i := range seen {
		if i < 100 {
			t.Errorf("index %d below first", i)
		}
	}
}
