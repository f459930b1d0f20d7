package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/api"
)

// fakeClock advances only when told to and records every backoff sleep.
type fakeClock struct {
	mu     sync.Mutex
	now    time.Time
	sleeps []time.Duration
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1700000000, 0)} }

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d)
	f.mu.Unlock()
}

func (f *fakeClock) Sleep(ctx context.Context, d time.Duration) {
	f.mu.Lock()
	f.sleeps = append(f.sleeps, d)
	f.now = f.now.Add(d)
	f.mu.Unlock()
}

func (f *fakeClock) Sleeps() []time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]time.Duration(nil), f.sleeps...)
}

// scriptServer answers each request with the next scripted status;
// after the script runs out it answers 200 with a minimal evaluate
// body. Error statuses carry the daemon's envelope and Retry-After.
func scriptServer(t *testing.T, retryAfter string, script ...int) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		status := http.StatusOK
		if int(n) <= len(script) {
			status = script[n-1]
		}
		if status == http.StatusOK {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, `{"workload":"big data","platform":"serve","point":{"cpi":1.5}}`)
			return
		}
		if retryAfter != "" && (status == 429 || status == 503) {
			w.Header().Set("Retry-After", retryAfter)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		fmt.Fprintf(w, `{"error":{"code":"scripted_%d","message":"scripted failure"}}`, status)
	})
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv, &calls
}

func evalReq() api.EvaluateRequest {
	return api.EvaluateRequest{Params: api.ParamsSpec{Class: "bigdata"}}
}

func TestRetriesUntilSuccess(t *testing.T) {
	srv, calls := scriptServer(t, "", 500, 503)
	clk := newFakeClock()
	c := New(srv.URL, WithClock(clk), WithSeed(7), WithBackoff(time.Millisecond, 8*time.Millisecond))
	resp, err := c.Evaluate(context.Background(), evalReq())
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if resp.Point.CPI != 1.5 {
		t.Errorf("CPI = %v, want 1.5", resp.Point.CPI)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d calls, want 3", got)
	}
	st := c.Stats()
	if st.Retries != 2 || st.Successes != 1 || st.Failures != 2 {
		t.Errorf("stats = %+v, want 2 retries, 1 success, 2 failures", st)
	}
	if len(clk.Sleeps()) != 2 {
		t.Errorf("sleeps = %v, want 2 backoffs", clk.Sleeps())
	}
}

func TestRetryAfterOverridesBackoff(t *testing.T) {
	srv, _ := scriptServer(t, "2", 503)
	clk := newFakeClock()
	c := New(srv.URL, WithClock(clk), WithBackoff(time.Millisecond, 4*time.Millisecond))
	if _, err := c.Evaluate(context.Background(), evalReq()); err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	sleeps := clk.Sleeps()
	if len(sleeps) != 1 || sleeps[0] != 2*time.Second {
		t.Errorf("sleeps = %v, want exactly the server's 2s Retry-After", sleeps)
	}
	if st := c.Stats(); st.RetryAfterHonored != 1 {
		t.Errorf("RetryAfterHonored = %d, want 1", st.RetryAfterHonored)
	}
}

func TestPermanentErrorReturnsImmediately(t *testing.T) {
	srv, calls := scriptServer(t, "", 400)
	c := New(srv.URL, WithClock(newFakeClock()))
	_, err := c.Evaluate(context.Background(), api.EvaluateRequest{Params: api.ParamsSpec{Class: "nope"}})
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != 400 || ae.Code != "scripted_400" {
		t.Fatalf("err = %v, want APIError 400/scripted_400", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("server saw %d calls, want 1 (no retry on 4xx)", got)
	}
}

func TestAttemptsExhaustedReturnsLastError(t *testing.T) {
	srv, calls := scriptServer(t, "", 500, 500, 500, 500, 500, 500)
	c := New(srv.URL, WithClock(newFakeClock()), WithMaxAttempts(3), WithBreaker(0, 0))
	_, err := c.Evaluate(context.Background(), evalReq())
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != 500 {
		t.Fatalf("err = %v, must wrap the last attempt's APIError", err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d calls, want exactly maxAttempts=3", got)
	}
}

func TestBudgetExhaustionReturnsLastError(t *testing.T) {
	srv, calls := scriptServer(t, "", 500, 500, 500, 500)
	// Real clock: the second backoff (≥5s base) cannot fit the 150ms
	// budget, so the call bails before sleeping and wraps the last 500.
	c := New(srv.URL, WithBudget(150*time.Millisecond), WithBackoff(5*time.Second, time.Minute))
	start := time.Now()
	_, err := c.Evaluate(context.Background(), evalReq())
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("budget bail took %v; must not sleep the full backoff", elapsed)
	}
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != 500 {
		t.Fatalf("err = %v, must wrap the last attempt's APIError", err)
	}
	if got := calls.Load(); got < 1 || got > 2 {
		t.Errorf("server saw %d calls, want 1-2 before the budget ran out", got)
	}
}

func TestCircuitOpensAndHalfOpens(t *testing.T) {
	srv, calls := scriptServer(t, "", 500, 500, 500, 500)
	clk := newFakeClock()
	c := New(srv.URL, WithClock(clk), WithMaxAttempts(1),
		WithBreaker(3, 10*time.Second))

	// Three consecutive failures trip the breaker.
	for i := 0; i < 3; i++ {
		if _, err := c.Evaluate(context.Background(), evalReq()); err == nil {
			t.Fatalf("call %d unexpectedly succeeded", i)
		}
	}
	if st := c.Stats(); st.BreakerOpens != 1 {
		t.Fatalf("BreakerOpens = %d, want 1", st.BreakerOpens)
	}

	// While open: fast-fail without a round trip.
	before := calls.Load()
	_, err := c.Evaluate(context.Background(), evalReq())
	if !IsCircuitOpen(err) {
		t.Fatalf("err = %v, want circuit-open fast fail", err)
	}
	if calls.Load() != before {
		t.Error("open breaker still hit the server")
	}

	// After the cooldown the probe goes through; the script is spent so
	// the server answers 200, closing the breaker for good.
	clk.Advance(11 * time.Second)
	if _, err := c.Evaluate(context.Background(), evalReq()); err == nil {
		t.Fatal("probe unexpectedly succeeded: script still has a 500 queued")
	}
	if st := c.Stats(); st.BreakerOpens != 2 {
		t.Fatalf("failed probe must re-open: BreakerOpens = %d, want 2", st.BreakerOpens)
	}
	clk.Advance(11 * time.Second)
	if _, err := c.Evaluate(context.Background(), evalReq()); err != nil {
		t.Fatalf("probe after recovery: %v", err)
	}
	if _, err := c.Evaluate(context.Background(), evalReq()); err != nil {
		t.Fatalf("closed breaker: %v", err)
	}
}

func TestJitterDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) []time.Duration {
		srv, _ := scriptServer(t, "", 500, 500, 500)
		clk := newFakeClock()
		c := New(srv.URL, WithClock(clk), WithSeed(seed),
			WithBackoff(10*time.Millisecond, 80*time.Millisecond), WithBreaker(0, 0))
		if _, err := c.Evaluate(context.Background(), evalReq()); err != nil {
			t.Fatalf("Evaluate: %v", err)
		}
		return clk.Sleeps()
	}
	a, b, other := run(42), run(42), run(43)
	if len(a) != 3 {
		t.Fatalf("sleeps = %v, want 3 backoffs", a)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("backoff %d: same seed diverged: %v vs %v", i, a[i], b[i])
		}
		lo := time.Duration(float64(10*time.Millisecond<<uint(i)) * 0.5)
		hi := time.Duration(float64(10*time.Millisecond<<uint(i)) * 1.5)
		if a[i] < lo || a[i] >= hi {
			t.Errorf("backoff %d = %v, want in [%v, %v)", i, a[i], lo, hi)
		}
	}
	same := true
	for i := range a {
		if a[i] != other[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical jitter sequences")
	}
}

func TestTransportErrorsAreRetryable(t *testing.T) {
	// A server that severs the connection once, then answers.
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			panic(http.ErrAbortHandler)
		}
		fmt.Fprint(w, `{"workload":"big data","platform":"serve","point":{"cpi":1.5}}`)
	}))
	t.Cleanup(srv.Close)
	c := New(srv.URL, WithClock(newFakeClock()), WithBackoff(time.Millisecond, time.Millisecond))
	if _, err := c.Evaluate(context.Background(), evalReq()); err != nil {
		t.Fatalf("Evaluate after dropped connection: %v", err)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("server saw %d calls, want 2", got)
	}
}

func TestEvaluateBatchOrderAndErrors(t *testing.T) {
	srv, _ := scriptServer(t, "")
	c := New(srv.URL, WithClock(newFakeClock()))
	reqs := make([]api.EvaluateRequest, 9)
	for i := range reqs {
		reqs[i] = evalReq()
	}
	results := c.EvaluateBatch(context.Background(), reqs, 3)
	if len(results) != len(reqs) {
		t.Fatalf("results = %d, want %d", len(results), len(reqs))
	}
	for i, res := range results {
		if res.Err != nil || res.Response == nil {
			t.Errorf("entry %d: err=%v resp=%v", i, res.Err, res.Response)
		}
	}
}

func TestWriteMetricsExposition(t *testing.T) {
	srv, _ := scriptServer(t, "", 500)
	c := New(srv.URL, WithClock(newFakeClock()), WithBackoff(time.Millisecond, time.Millisecond))
	if _, err := c.Evaluate(context.Background(), evalReq()); err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	var sb strings.Builder
	c.WriteMetrics(&sb)
	got := sb.String()
	for _, want := range []string{
		"memmodel_client_attempts_total 2",
		"memmodel_client_retries_total 1",
		"memmodel_client_successes_total 1",
		"memmodel_client_failures_total 1",
		"memmodel_client_backoff_seconds_total",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("metrics missing %q:\n%s", want, got)
		}
	}
}

func TestHealthzRetriesWhileDraining(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(map[string]any{"error": map[string]any{"code": "unavailable", "message": "draining"}})
			return
		}
		fmt.Fprint(w, `{"status":"ok"}`)
	}))
	t.Cleanup(srv.Close)
	clk := newFakeClock()
	c := New(srv.URL, WithClock(clk))
	if err := c.Healthz(context.Background()); err != nil {
		t.Fatalf("Healthz: %v", err)
	}
	if sleeps := clk.Sleeps(); len(sleeps) != 1 || sleeps[0] != time.Second {
		t.Errorf("sleeps = %v, want the 1s Retry-After", sleeps)
	}
}
