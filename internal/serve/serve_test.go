package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/api"
)

// doJSON drives one request through the handler in-process.
func doJSON(t *testing.T, h http.Handler, method, path, body string) (int, []byte, http.Header) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	res := w.Result()
	blob, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return res.StatusCode, blob, res.Header
}

func TestEndpointsBasic(t *testing.T) {
	h := New().Handler()

	cases := []struct {
		path, body, want string
	}{
		{"/v1/evaluate", `{"params":{"class":"bigdata"},"platform":{}}`, `"cpi"`},
		{"/v1/evaluate/topology", topoBody, `"tiers"`},
		{"/v1/sweep", `{"axis":"latency","steps":3,"step_ns":25,"platform":{},"classes":[{"class":"bigdata"}]}`, `"points"`},
	}
	for _, tc := range cases {
		status, blob, _ := doJSON(t, h, http.MethodPost, tc.path, tc.body)
		if status != http.StatusOK {
			t.Fatalf("POST %s = %d: %s", tc.path, status, blob)
		}
		if !strings.Contains(string(blob), tc.want) {
			t.Errorf("POST %s reply missing %s: %s", tc.path, tc.want, blob)
		}
	}

	status, blob, _ := doJSON(t, h, http.MethodGet, "/healthz", "")
	if status != http.StatusOK || !strings.Contains(string(blob), `"ok"`) {
		t.Errorf("GET /healthz = %d %s, want 200 ok", status, blob)
	}
	status, blob, _ = doJSON(t, h, http.MethodGet, "/metrics", "")
	if status != http.StatusOK || !strings.Contains(string(blob), "memmodeld_up 1") {
		t.Errorf("GET /metrics = %d, want 200 with memmodeld_up 1", status)
	}
}

func TestEvaluateMatchesDirectModelCall(t *testing.T) {
	h := New().Handler()
	status, blob, _ := doJSON(t, h, http.MethodPost, "/v1/evaluate",
		`{"params":{"class":"bigdata"},"platform":{}}`)
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, blob)
	}
	var resp api.EvaluateResponse
	if err := json.Unmarshal(blob, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Point.CPI <= 0 {
		t.Errorf("CPI = %v, want positive", resp.Point.CPI)
	}
	if resp.Point.MissPenaltyNS < 75 {
		t.Errorf("miss penalty %v ns, want >= 75 (compulsory floor)", resp.Point.MissPenaltyNS)
	}
	if resp.Solver.Solves == 0 {
		t.Error("solver telemetry missing from a cold response")
	}
	if resp.Cached {
		t.Error("first request must not be marked cached")
	}
}

func TestCacheHitOnRepeat(t *testing.T) {
	s := New()
	h := s.Handler()
	body := `{"params":{"class":"enterprise"},"platform":{"compulsory_ns":120}}`

	_, first, _ := doJSON(t, h, http.MethodPost, "/v1/evaluate", body)
	_, second, _ := doJSON(t, h, http.MethodPost, "/v1/evaluate", body)

	var r1, r2 api.EvaluateResponse
	if err := json.Unmarshal(first, &r1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(second, &r2); err != nil {
		t.Fatal(err)
	}
	if r1.Cached || !r2.Cached {
		t.Errorf("cached flags = (%v, %v), want (false, true)", r1.Cached, r2.Cached)
	}
	if r1.Point != r2.Point {
		t.Errorf("cached point diverged:\n first %+v\nsecond %+v", r1.Point, r2.Point)
	}
	if r2.Solver != r1.Solver {
		t.Errorf("cached response should replay the original solve telemetry")
	}
	st := s.cache.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Errorf("cache stats = %+v, want 1 miss, 1 hit", st)
	}

	// Same scenario under a different spelling (explicit baseline values,
	// different name) must hit the same canonical key.
	renamed := `{"params":{"class":"enterprise","name":"other"},"platform":{"compulsory_ns":120,"name":"x"}}`
	_, third, _ := doJSON(t, h, http.MethodPost, "/v1/evaluate", renamed)
	var r3 api.EvaluateResponse
	if err := json.Unmarshal(third, &r3); err != nil {
		t.Fatal(err)
	}
	if !r3.Cached {
		t.Error("names must not shear the cache key: renamed request should hit")
	}
}

func TestBadRequests(t *testing.T) {
	h := New().Handler()
	cases := []struct {
		name, method, path, body string
		want                     int
	}{
		{"malformed JSON", http.MethodPost, "/v1/evaluate", `{"params":`, http.StatusBadRequest},
		{"unknown field", http.MethodPost, "/v1/evaluate", `{"params":{"class":"bigdata"},"platfrom":{}}`, http.StatusBadRequest},
		{"unknown class", http.MethodPost, "/v1/evaluate", `{"params":{"class":"nope"},"platform":{}}`, http.StatusBadRequest},
		{"negative mpki", http.MethodPost, "/v1/evaluate", `{"params":{"cpi_cache":1,"bf":0.3,"mpki":-1},"platform":{}}`, http.StatusBadRequest},
		{"no tiers", http.MethodPost, "/v1/evaluate/topology", `{"params":{"class":"bigdata"},"topology":{}}`, http.StatusBadRequest},
		{"bad axis", http.MethodPost, "/v1/sweep", `{"axis":"sideways","platform":{}}`, http.StatusBadRequest},
		{"oversized sweep", http.MethodPost, "/v1/sweep", `{"axis":"latency","steps":999999,"platform":{}}`, http.StatusBadRequest},
		{"GET on evaluate", http.MethodGet, "/v1/evaluate", "", http.StatusMethodNotAllowed},
		{"POST on healthz", http.MethodPost, "/healthz", "", http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		status, blob, _ := doJSON(t, h, tc.method, tc.path, tc.body)
		if status != tc.want {
			t.Errorf("%s: status = %d, want %d (%s)", tc.name, status, tc.want, blob)
			continue
		}
		var eb api.ErrorBody
		if err := json.Unmarshal(blob, &eb); err != nil || eb.Error.Code == "" || eb.Error.Message == "" {
			t.Errorf("%s: reply is not a unified error envelope: %s", tc.name, blob)
		}
	}
}

func TestSingleflightCollapseOverHTTP(t *testing.T) {
	const n = 16
	s := New(WithAdmission(n, n))
	gate := make(chan struct{})
	started := make(chan struct{})
	var startOnce sync.Once
	var coldSolves atomic.Int64
	s.testHookSolve = func() {
		coldSolves.Add(1)
		startOnce.Do(func() { close(started) })
		<-gate
	}
	h := s.Handler()
	body := `{"params":{"class":"bigdata"},"platform":{}}`

	var wg sync.WaitGroup
	var cached atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, blob, _ := doJSON(t, h, http.MethodPost, "/v1/evaluate", body)
			if status != http.StatusOK {
				t.Errorf("status = %d: %s", status, blob)
				return
			}
			var resp api.EvaluateResponse
			if err := json.Unmarshal(blob, &resp); err != nil {
				t.Error(err)
				return
			}
			if resp.Cached {
				cached.Add(1)
			}
		}()
	}
	<-started
	close(gate)
	wg.Wait()

	if coldSolves.Load() != 1 {
		t.Errorf("cold solves = %d, want 1 (singleflight must collapse identical requests)", coldSolves.Load())
	}
	if cached.Load() != n-1 {
		t.Errorf("cached responses = %d, want %d", cached.Load(), n-1)
	}
	if st := s.cache.Stats(); st.Misses != 1 || st.Hits+st.Shared != n-1 {
		t.Errorf("cache stats = %+v, want 1 miss and %d spared", st, n-1)
	}
}

func TestSheddingReturns429(t *testing.T) {
	const n = 8
	s := New(WithAdmission(1, 1))
	gate := make(chan struct{})
	s.testHookSolve = func() { <-gate }
	h := s.Handler()

	type result struct {
		status int
		header http.Header
	}
	results := make(chan result, n)
	for i := 0; i < n; i++ {
		// Distinct scenarios so singleflight cannot collapse them and every
		// request needs its own admission slot.
		body := fmt.Sprintf(`{"params":{"class":"bigdata"},"platform":{"compulsory_ns":%d}}`, 100+i)
		go func() {
			status, _, hdr := doJSON(t, h, http.MethodPost, "/v1/evaluate", body)
			results <- result{status, hdr}
		}()
	}

	// With one solve slot and one queue slot, at most two requests can be
	// held while the gate is closed; the other six must shed with 429
	// before any solve completes.
	for i := 0; i < n-2; i++ {
		r := <-results
		if r.status != http.StatusTooManyRequests {
			t.Fatalf("pre-gate response %d: status = %d, want 429", i, r.status)
		}
		if r.header.Get("Retry-After") != "1" {
			t.Errorf("429 missing Retry-After: 1 header, got %q", r.header.Get("Retry-After"))
		}
	}
	close(gate)
	for i := 0; i < 2; i++ {
		if r := <-results; r.status != http.StatusOK {
			t.Errorf("held request finished with %d, want 200", r.status)
		}
	}

	as := s.adm.Stats()
	if as.Shed != n-2 || as.Admitted != 2 {
		t.Errorf("admission stats = %+v, want %d shed, 2 admitted", as, n-2)
	}
	if as.InFlight != 0 || as.Queued != 0 {
		t.Errorf("admission stats = %+v, want drained to zero", as)
	}
}

// TestGracefulDrain runs the daemon's shutdown sequence against a real
// listener: Drain flips /healthz to 503 while an in-flight solve runs to
// completion under http.Server.Shutdown.
func TestGracefulDrain(t *testing.T) {
	s := New()
	gate := make(chan struct{})
	started := make(chan struct{})
	var startOnce sync.Once
	s.testHookSolve = func() {
		startOnce.Do(func() { close(started) })
		<-gate
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: s.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	// Park one request inside a solve.
	inflight := make(chan int, 1)
	go func() {
		resp, err := http.Post(base+"/v1/evaluate", "application/json",
			strings.NewReader(`{"params":{"class":"bigdata"},"platform":{}}`))
		if err != nil {
			inflight <- -1
			return
		}
		defer resp.Body.Close()
		_, _ = io.ReadAll(resp.Body)
		inflight <- resp.StatusCode
	}()
	<-started

	// Drain: health goes 503 so load balancers stop routing here, but the
	// in-flight solve is still running.
	s.Drain()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(blob), "draining") {
		t.Errorf("healthz during drain = %d %s, want 503 draining", resp.StatusCode, blob)
	}

	// Shutdown must wait for the in-flight request; release it and expect
	// both the request (200) and Shutdown (nil) to complete.
	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- hs.Shutdown(ctx)
	}()
	close(gate)

	if status := <-inflight; status != http.StatusOK {
		t.Errorf("in-flight request finished with %d, want 200", status)
	}
	if err := <-shutdownErr; err != nil {
		t.Errorf("Shutdown = %v, want nil (in-flight work finished)", err)
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Errorf("Serve = %v, want ErrServerClosed", err)
	}
	if line := s.StatsLine(); !strings.Contains(line, "1 solves") {
		t.Errorf("flush stats line should report the drained solve: %q", line)
	}
}

// metricValue extracts one sample from the Prometheus text exposition;
// name must match the full line prefix including any labels.
func metricValue(t *testing.T, exposition, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		rest, ok := strings.CutPrefix(line, name+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			t.Fatalf("metric %s: bad value %q", name, rest)
		}
		return v
	}
	t.Fatalf("metric %s not found in exposition", name)
	return 0
}

// TestConcurrentLoad is the acceptance check from the issue: 64
// goroutines replay a repeated 8-scenario mix; every request succeeds,
// the hit ratio clears 50% with singleflight preventing duplicate
// solves, and /metrics stays consistent with the observed load.
func TestConcurrentLoad(t *testing.T) {
	const (
		goroutines = 64
		perG       = 8
		scenarios  = 8
		total      = goroutines * perG
	)
	s := New(WithCacheSize(1024), WithAdmission(8, total), WithRequestTimeout(30*time.Second))
	h := s.Handler()

	mix := make([]string, scenarios)
	for i := range mix {
		mix[i] = fmt.Sprintf(`{"params":{"class":"bigdata"},"platform":{"compulsory_ns":%d}}`, 75+10*i)
	}

	var wg sync.WaitGroup
	var okCount, cachedCount atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				body := mix[(g+i)%scenarios]
				status, blob, _ := doJSON(t, h, http.MethodPost, "/v1/evaluate", body)
				if status != http.StatusOK {
					t.Errorf("goroutine %d request %d: status = %d: %s", g, i, status, blob)
					continue
				}
				okCount.Add(1)
				var resp api.EvaluateResponse
				if err := json.Unmarshal(blob, &resp); err != nil {
					t.Error(err)
					continue
				}
				if resp.Cached {
					cachedCount.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()

	if okCount.Load() != total {
		t.Fatalf("%d/%d requests succeeded", okCount.Load(), total)
	}
	st := s.cache.Stats()
	if st.Misses != scenarios {
		t.Errorf("cold solves = %d, want exactly %d (singleflight must deduplicate)", st.Misses, scenarios)
	}
	if st.Hits+st.Shared != total-scenarios {
		t.Errorf("spared requests = %d, want %d", st.Hits+st.Shared, total-scenarios)
	}
	if ratio := st.HitRatio(); ratio <= 0.5 {
		t.Errorf("hit ratio = %.2f, want > 0.5", ratio)
	}
	if cachedCount.Load() != total-scenarios {
		t.Errorf("responses marked cached = %d, want %d", cachedCount.Load(), total-scenarios)
	}

	// /metrics must agree with what the load observed.
	status, blob, _ := doJSON(t, h, http.MethodGet, "/metrics", "")
	if status != http.StatusOK {
		t.Fatalf("GET /metrics = %d", status)
	}
	exp := string(blob)
	checks := map[string]float64{
		`memmodeld_requests_total{endpoint="evaluate"}`:              total,
		`memmodeld_responses_total{endpoint="evaluate",class="2xx"}`: total,
		`memmodeld_cache_misses_total`:                               scenarios,
		`memmodeld_admission_admitted_total`:                         total,
		`memmodeld_admission_shed_total`:                             0,
		`memmodeld_admission_inflight`:                               0,
		`memmodeld_solver_solves_total`:                              scenarios,
	}
	for name, want := range checks {
		if got := metricValue(t, exp, name); got != want {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	if spared := metricValue(t, exp, "memmodeld_cache_hits_total") +
		metricValue(t, exp, "memmodeld_cache_singleflight_shared_total"); spared != total-scenarios {
		t.Errorf("metrics spared = %g, want %d", spared, total-scenarios)
	}
	if ratio := metricValue(t, exp, "memmodeld_cache_hit_ratio"); ratio <= 0.5 {
		t.Errorf("metrics hit ratio = %g, want > 0.5", ratio)
	}
	if iters := metricValue(t, exp, "memmodeld_solver_iterations_total"); iters <= 0 {
		t.Errorf("solver iterations = %g, want positive", iters)
	}
}

// Guard against the handler ever writing a non-JSON error body.
func TestErrorsAreJSON(t *testing.T) {
	h := New().Handler()
	status, blob, hdr := doJSON(t, h, http.MethodPost, "/v1/evaluate", `not json at all`)
	if status != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", status)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	if !json.Valid(bytes.TrimSpace(blob)) {
		t.Errorf("error body is not valid JSON: %s", blob)
	}
}
