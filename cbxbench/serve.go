package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cachebox/internal/core"
	"cachebox/internal/gateway"
	"cachebox/internal/heatmap"
	"cachebox/internal/serve"
)

// The serve workload: cbx-gateway in front of serveReplicas cbx-serve
// replicas, all in this process on loopback listeners, each serving an
// untrained 16×16, ngf 4 CB-GAN. Requests carry real access windows
// under a Zipf-skewed mix of the seven geometries.
const (
	serveReplicas = 2
	// openLoopRate is the open-loop phase's fixed request rate, about a
	// third of the closed-loop rate a 2-core host sustains. At half that
	// rate a busy shared host pushes the fleet into saturation, where
	// hedges feed back into load and the tail stops being repeatable.
	openLoopRate = 150.0
	// openGroupSize is one open-loop group. Its p90 has 30 samples
	// beyond it. The reported tail is p90, not p95 or p99: on a shared
	// host the vCPU is now and then descheduled for a few milliseconds,
	// which delays whichever requests are in flight, and as that steal
	// time rises a group's p95 and p99 double while lower percentiles
	// move far less.
	openGroupSize = 300
	// preRoll requests precede the first measured group and are
	// discarded.
	preRoll = 300
	// closedWindow is one closed-loop phase, which follows each
	// open-loop group.
	closedWindow = time.Second
	// minCycles is the fewest (open group, closed window) cycles a
	// measurement runs, so each median has a middle.
	minCycles = 3
	// zipfS skews the geometry mix: a few geometries are hot, so the
	// gateway's shard ring sees uneven keys.
	zipfS = 1.2
	// serveOps is the trace length access windows are cut from.
	serveOps      = 20000
	serveBenches  = 8
	serveModel    = "cbgan16"
	warmRequests  = 64
	healthTimeout = 10 * time.Second
)

// serveModelConfig is the tiny serving model: 16×16 heatmaps, ngf 4.
func serveModelConfig() core.Config {
	c := core.DefaultConfig()
	c.ImageSize = 16
	c.NGF, c.NDF = 4, 4
	c.PixelCap, c.MissPixelCap = 96, 24
	return c
}

// serveHeatmap is the window geometry of the serving model.
func serveHeatmap() heatmap.Config {
	hm := heatmap.DefaultConfig()
	hm.Height, hm.Width = 16, 16
	hm.WindowInstr = 150
	return hm
}

type serveBench struct {
	env     *env
	conns   int
	bodies  [][]byte // pre-encoded request bodies
	servers []*http.Server
	engines []*serve.Server
	gw      *gateway.Gateway
	gwStop  context.CancelFunc
	gwURL   string
	urls    []string // replica base URLs
	client  *http.Client
	served  sync.WaitGroup // http.Server.Serve goroutines
}

func newServe(e *env) scenario { return &serveBench{env: e, conns: runtime.NumCPU()} }

func (s *serveBench) setup(ctx context.Context) error {
	//lint:ignore determinism-taint request bodies are in-memory load, not a committed artifact; the wall clock only paces the load
	if err := s.makeRequests(); err != nil {
		return err
	}
	for i := 0; i < serveReplicas; i++ {
		m, err := core.NewModel(serveModelConfig())
		if err != nil {
			return err
		}
		eng := serve.New(serve.NewStaticRegistry(serveModel, m), serve.Config{})
		s.engines = append(s.engines, eng)
		url, err := s.listen(eng)
		if err != nil {
			return err
		}
		s.urls = append(s.urls, url)
	}
	gw, err := gateway.New(gateway.Config{Replicas: s.urls})
	if err != nil {
		return err
	}
	gctx, cancel := context.WithCancel(context.Background())
	s.gw, s.gwStop = gw, cancel
	gw.Start(gctx)
	if s.gwURL, err = s.listen(gw); err != nil {
		return err
	}
	s.client = &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     s.conns,
			MaxIdleConnsPerHost: s.conns,
		},
	}
	if err := s.waitHealthy(ctx); err != nil {
		return err
	}
	for i := 0; i < warmRequests; i++ {
		if _, err := s.post(ctx, i); err != nil {
			return fmt.Errorf("warm-up request: %w", err)
		}
	}
	return nil
}

// makeRequests cuts access windows from a seeded draw of benchmarks and
// encodes one request body per window, each under a Zipf-drawn
// geometry.
func (s *serveBench) makeRequests() error {
	rng := rand.New(rand.NewSource(s.env.seed))
	benches := perSuite(population(), serveBenches/4, rng)
	cfgs := append(geometries[:0:0], geometries...)
	rng.Shuffle(len(cfgs), func(i, j int) { cfgs[i], cfgs[j] = cfgs[j], cfgs[i] })
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(cfgs)-1))
	hm := serveHeatmap()
	s.bodies = s.bodies[:0]
	for _, b := range benches {
		b.Ops = serveOps
		t := b.Trace()
		wins, err := heatmap.Build(hm, t, t.Accesses[0].IC)
		if err != nil {
			return err
		}
		for _, w := range wins {
			if w.Sum() == 0 {
				continue // the server refuses empty windows
			}
			cfg := cfgs[zipf.Uint64()]
			body, err := json.Marshal(serve.PredictRequest{
				Model:     serveModel,
				Access:    serve.HeatmapJSON{H: w.H, W: w.W, Pix: w.Pix},
				Condition: &core.ConditionVec{Sets: cfg.Sets, Ways: cfg.Ways},
			})
			if err != nil {
				return err
			}
			s.bodies = append(s.bodies, body)
		}
	}
	if len(s.bodies) == 0 {
		return errors.New("no non-empty access windows")
	}
	rng.Shuffle(len(s.bodies), func(i, j int) { s.bodies[i], s.bodies[j] = s.bodies[j], s.bodies[i] })
	return nil
}

// listen serves h on a fresh loopback port and returns its base URL.
func (s *serveBench) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	s.servers = append(s.servers, srv)
	s.served.Add(1)
	go func() {
		defer s.served.Done()
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "cbxbench: serve: %v\n", err)
		}
	}()
	return "http://" + ln.Addr().String(), nil
}

// waitHealthy polls the gateway until its health gate admits every
// replica.
func (s *serveBench) waitHealthy(ctx context.Context) error {
	deadline := time.Now().Add(healthTimeout)
	for time.Now().Before(deadline) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.gwURL+"/healthz", nil)
		if err != nil {
			return err
		}
		if resp, err := s.client.Do(req); err == nil {
			var h struct {
				Healthy int `json:"healthy"`
			}
			derr := json.NewDecoder(resp.Body).Decode(&h)
			//lint:ignore unchecked-error read-only response body; the decode error is what matters
			resp.Body.Close()
			if derr == nil && h.Healthy == serveReplicas {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("gateway did not admit %d replicas within %v", serveReplicas, healthTimeout)
}

// close shuts every listener and engine down and waits for the serving
// goroutines and the gateway's health poller to exit.
func (s *serveBench) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, srv := range s.servers {
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "cbxbench: shutdown: %v\n", err)
		}
	}
	s.served.Wait()
	for _, eng := range s.engines {
		eng.Close()
	}
	if s.gwStop != nil {
		s.gwStop()
		s.gw.Wait()
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
}

// post sends request i of the mix through the gateway and checks the
// response: a 200 must carry an H×W miss heatmap of finite pixels.
// Refused or failed requests return ok false and no error; only an
// output-check failure returns an error.
func (s *serveBench) post(ctx context.Context, i int) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.gwURL+"/v1/predict", bytes.NewReader(s.bodies[i%len(s.bodies)]))
	if err != nil {
		return false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return false, nil
	}
	body, rerr := io.ReadAll(resp.Body)
	//lint:ignore unchecked-error read-only response body; ReadAll already surfaced any read failure
	resp.Body.Close()
	if rerr != nil || resp.StatusCode != http.StatusOK {
		return false, nil
	}
	return true, checkResponse(body)
}

// checkResponse validates one 200 body.
func checkResponse(body []byte) error {
	var pr serve.PredictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	size := serveModelConfig().ImageSize
	if pr.Miss.H != size || pr.Miss.W != size || len(pr.Miss.Pix) != size*size {
		return fmt.Errorf("response heatmap %dx%d with %d pixels, want %dx%d", pr.Miss.H, pr.Miss.W, len(pr.Miss.Pix), size, size)
	}
	for i, v := range pr.Miss.Pix {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return fmt.Errorf("response pixel %d is %v", i, v)
		}
	}
	return nil
}

// measure runs a discarded open-loop pre-roll, then cycles of one
// open-loop group of openGroupSize requests followed by one closed-loop
// window, at least minCycles and as many as fit in d. Alternating the
// two spreads both over the whole run, so a host stall in one part of
// it moves neither median.
func (s *serveBench) measure(ctx context.Context, d time.Duration, tr *tracer) (*outcome, error) {
	start := time.Now()
	o := &outcome{layer: map[string]float64{}}
	var before map[string]float64
	if tr != nil {
		before = s.scrape(ctx)
	}
	var mu sync.Mutex
	check := func(i int) bool {
		ok, err := s.post(ctx, i)
		if err != nil {
			mu.Lock()
			o.problems = append(o.problems, err.Error())
			mu.Unlock()
			return false
		}
		return ok
	}
	next := 0
	open := func(n int) []loadResult {
		first := next
		next += n
		return openLoop(ctx, n, openLoopRate, s.conns, func(i int) bool { return check(first + i) })
	}
	// The pre-roll lets the gateway's hedge estimate, which tracks
	// recent latencies, settle before anything is measured.
	open(preRoll)
	var late, work, served []float64
	cycle := openTime(openGroupSize) + closedWindow
	for len(o.lat) < minCycles || time.Since(start)+cycle <= d {
		var lat []float64
		for _, r := range open(openGroupSize) {
			o.attempted++
			if !r.ok {
				o.failed++
			}
			lat = append(lat, float64(r.lat)/float64(time.Millisecond))
			late = append(late, float64(r.late)/float64(time.Millisecond))
		}
		o.lat = append(o.lat, lat)

		var att, oks []time.Duration
		for _, c := range closedLoop(ctx, closedWindow, s.conns, next, check) {
			att = append(att, c.at)
			if c.ok {
				oks = append(oks, c.at)
			}
		}
		// Requests still in flight when the window closed are not
		// counted; skip their indices too.
		next += len(att) + s.conns
		o.attempted += int64(len(att))
		o.failed += int64(len(att) - len(oks))
		work = append(work, rate(att))
		served = append(served, rate(oks))
	}
	o.workPerS, o.heatmapsPerS = median(work), median(served)
	if tr != nil {
		s.layerMetrics(ctx, tr, before, late, o.layer)
	}
	return o, nil
}

// openTime is how long n open-loop requests take to fall due.
func openTime(n int) time.Duration {
	return time.Duration(float64(n) / openLoopRate * float64(time.Second))
}

// loadResult is one open-loop request's timing: late is how long after
// its due time it was sent, lat how long after its due time it
// completed.
type loadResult struct {
	late, lat time.Duration
	ok        bool
}

// openLoop issues n requests at a fixed rate: request i falls due at
// start + i/rate whatever happened to earlier ones. A dispatcher hands
// each due request to one of conns workers; when all are busy it
// blocks, so the wait for a free connection, like any stall of the
// generator, is charged to the requests it delays. Latency counts from
// the due time, not the send time.
func openLoop(ctx context.Context, n int, rate float64, conns int, do func(i int) bool) []loadResult {
	out := make([]loadResult, n)
	jobs := make(chan int)
	start := time.Now()
	due := func(i int) time.Time { return start.Add(time.Duration(float64(i) / rate * float64(time.Second))) }
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				sent := time.Now()
				ok := do(i)
				done := time.Now()
				out[i] = loadResult{late: sent.Sub(due(i)), lat: done.Sub(due(i)), ok: ok}
			}
		}()
	}
	sent := 0
dispatch:
	for ; sent < n; sent++ {
		if wait := time.Until(due(sent)); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				break dispatch
			}
		}
		select {
		case jobs <- sent:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()
	return out[:sent]
}

// completion is when, after the closed loop started, a request ended.
type completion struct {
	at time.Duration
	ok bool
}

// closedLoop runs clients callers that each send their next request
// only after the previous one completes, for d, and returns the
// requests that completed within d. Request indices start at first.
func closedLoop(ctx context.Context, d time.Duration, clients, first int, do func(i int) bool) []completion {
	done := make([][]completion, clients)
	var next atomic.Int64
	next.Store(int64(first) - 1)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				ok := do(int(next.Add(1)))
				at := time.Since(start)
				if at >= d {
					return
				}
				done[c] = append(done[c], completion{at, ok})
			}
		}()
	}
	wg.Wait()
	var out []completion
	for _, cs := range done {
		out = append(out, cs...)
	}
	return out
}

// rate is the completion rate a window's completion times imply: the
// completions after the earliest, over the time from the earliest to
// the latest. Counting over the measured span rather than the nominal
// window keeps every digit of the rate.
func rate(ts []time.Duration) float64 {
	if len(ts) < 2 {
		return 0
	}
	lo, hi := ts[0], ts[0]
	for _, t := range ts[1:] {
		lo, hi = min(lo, t), max(hi, t)
	}
	if hi == lo {
		return 0
	}
	return float64(len(ts)-1) / (hi - lo).Seconds()
}

// scrape reads the replicas' and the gateway's /metrics, summing the
// replicas' samples, keyed "replica:<sample>" and "gateway:<sample>".
func (s *serveBench) scrape(ctx context.Context) map[string]float64 {
	out := make(map[string]float64)
	for _, u := range s.urls {
		for k, v := range s.scrapeOne(ctx, u) {
			out["replica:"+k] += v
		}
	}
	for k, v := range s.scrapeOne(ctx, s.gwURL) {
		out["gateway:"+k] = v
	}
	return out
}

func (s *serveBench) scrapeOne(ctx context.Context, base string) map[string]float64 {
	out := make(map[string]float64)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return out
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return out
	}
	//lint:ignore unchecked-error read-only response body
	defer resp.Body.Close()
	return parseProm(resp.Body)
}

// parseProm reads Prometheus text samples into name{labels} → value.
func parseProm(r io.Reader) map[string]float64 {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// delta returns after - before for one sample, or the summed delta of
// every sample starting with a prefix ending in "{".
func delta(before, after map[string]float64, key string) float64 {
	if !strings.HasSuffix(key, "{") {
		return after[key] - before[key]
	}
	var t float64
	for k, v := range after {
		if strings.HasPrefix(k, key) {
			t += v - before[k]
		}
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics fills the serve per-layer figures from /metrics deltas,
// the traced spans and the open loop's lateness.
func (s *serveBench) layerMetrics(ctx context.Context, tr *tracer, before map[string]float64, late []float64, out map[string]float64) {
	after := s.scrape(ctx)
	dl := func(k string) float64 { return delta(before, after, k) }
	spans := tr.snapshot()
	out["serve.queue_ms"] = 1e3 * ratio(dl(`replica:cbx_serve_stage_seconds_sum{stage="queue"}`), dl(`replica:cbx_serve_stage_seconds_count{stage="queue"}`))
	out["serve.infer_ms"] = 1e3 * ratio(dl(`replica:cbx_serve_stage_seconds_sum{stage="infer"}`), dl(`replica:cbx_serve_stage_seconds_count{stage="infer"}`))
	out["serve.batch_size_mean"] = ratio(dl("replica:cbx_serve_batch_size_sum"), dl("replica:cbx_serve_batch_size_count"))
	out["serve.encode_ms"] = mean(durations(spans, "serve.encode"))
	out["serve.rejected_ratio"] = ratio(dl(`replica:cbx_serve_requests_total{code="429"}`), dl("replica:cbx_serve_requests_total{"))
	proxied := dl("gateway:cachebox_gateway_responses_total{")
	out["gateway.proxy_ms"] = mean(durations(spans, "gateway.proxy"))
	out["gateway.hedge_ratio"] = ratio(dl(`gateway:cachebox_gateway_hedges_total{event="fired"}`), proxied)
	out["gateway.retry_ratio"] = ratio(dl("gateway:cachebox_gateway_retries_total"), proxied)
	out["gateway.shed_ratio"] = ratio(dl("gateway:cachebox_gateway_shed_total"), proxied)
	out["loadgen.late_p99_ms"] = percentile(late, 99)
}
