package client

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/api"
	"repro/internal/serve"
)

// handlerFlip swaps the live handler mid-test, simulating a daemon
// that heals.
type handlerFlip struct {
	mu sync.Mutex
	h  http.Handler
}

func (f *handlerFlip) set(h http.Handler) {
	f.mu.Lock()
	f.h = h
	f.mu.Unlock()
}

func (f *handlerFlip) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	h := f.h
	f.mu.Unlock()
	h.ServeHTTP(w, r)
}

// TestChaosEventualSuccess is the acceptance end-to-end: a daemon
// armed with ~20% injected errors (500s, 503s, dropped connections)
// plus added latency, and a client that must reach 100% eventual
// success within its deadline budget with a bounded number of attempts
// per request.
func TestChaosEventualSuccess(t *testing.T) {
	faults := serve.FaultConfig{
		Seed:         1234,
		ErrorP:       0.10,
		UnavailableP: 0.07,
		DropP:        0.03,
		LatencyP:     0.25,
		Latency:      2 * time.Millisecond,
	}
	srv := httptest.NewServer(serve.New(serve.WithFaults(faults)).Handler())
	t.Cleanup(srv.Close)

	const (
		requests    = 60
		maxAttempts = 10
	)
	c := New(srv.URL,
		WithSeed(99),
		WithBudget(20*time.Second),
		WithAttemptTimeout(5*time.Second),
		WithMaxAttempts(maxAttempts),
		WithBackoff(time.Millisecond, 20*time.Millisecond),
		WithBreaker(0, 0), // chaos is random, not a dead server: never fast-fail
	)

	classes := []string{"bigdata", "enterprise", "hpc"}
	for i := 0; i < requests; i++ {
		before := c.Stats().Attempts
		resp, err := c.Evaluate(context.Background(), api.EvaluateRequest{
			Params: api.ParamsSpec{Class: classes[i%len(classes)]},
			// Vary the platform so the grid exercises cache misses too.
			Platform: api.PlatformSpec{CompulsoryNS: float64(75 + i%5)},
		})
		if err != nil {
			t.Fatalf("request %d failed despite retries: %v", i, err)
		}
		if resp.Point.CPI <= 0 {
			t.Fatalf("request %d: non-physical CPI %v", i, resp.Point.CPI)
		}
		if attempts := c.Stats().Attempts - before; attempts > maxAttempts {
			t.Fatalf("request %d used %d attempts, cap is %d", i, attempts, maxAttempts)
		}
	}

	st := c.Stats()
	if st.Successes != requests {
		t.Errorf("successes = %d, want %d (100%% eventual success)", st.Successes, requests)
	}
	if st.Retries == 0 {
		t.Error("chaos run produced zero retries; fault injection is not biting")
	}
	t.Logf("chaos stats: %+v", st)
}

// TestChaosSweepBatch pushes a batch of sweep grids through the same
// fault wall with bounded parallelism.
func TestChaosSweepBatch(t *testing.T) {
	faults := serve.FaultConfig{Seed: 7, ErrorP: 0.15, UnavailableP: 0.05}
	srv := httptest.NewServer(serve.New(serve.WithFaults(faults)).Handler())
	t.Cleanup(srv.Close)

	c := New(srv.URL,
		WithSeed(3),
		WithBudget(20*time.Second),
		WithMaxAttempts(10),
		WithBackoff(time.Millisecond, 10*time.Millisecond),
		WithBreaker(0, 0),
	)
	reqs := LatencyGrid(
		[]api.ParamsSpec{{Class: "bigdata"}, {Class: "enterprise"}, {Class: "hpc"}},
		api.PlatformSpec{}, 5, 20,
	)
	results := c.SweepBatch(context.Background(), reqs, 2)
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("sweep %d failed despite retries: %v", i, res.Err)
		}
		// Steps+1 grid points: the baseline plus each added-latency step.
		if len(res.Response.Points) != 6 {
			t.Errorf("sweep %d: %d points, want 6", i, len(res.Response.Points))
		}
	}
}

// TestChaosCircuitFastFail checks the breaker against a hard-down
// daemon: after it trips, calls fail in microseconds without a round
// trip, and once the daemon heals the half-open probe closes it again.
func TestChaosCircuitFastFail(t *testing.T) {
	// UnavailableP=1 is a permanently sick daemon.
	sick := serve.New(serve.WithFaults(serve.FaultConfig{Seed: 5, UnavailableP: 1}))
	healthy := serve.New()
	flip := &handlerFlip{h: sick.Handler()}
	srv := httptest.NewServer(flip)
	t.Cleanup(srv.Close)

	clk := newFakeClock()
	c := New(srv.URL,
		WithClock(clk),
		WithMaxAttempts(1),
		WithBreaker(3, 5*time.Second),
	)
	for i := 0; i < 3; i++ {
		if _, err := c.Evaluate(context.Background(), evalReq()); err == nil {
			t.Fatalf("call %d against sick daemon succeeded", i)
		}
	}
	if _, err := c.Evaluate(context.Background(), evalReq()); !IsCircuitOpen(err) {
		t.Fatalf("err = %v, want circuit-open fast fail", err)
	}
	if st := c.Stats(); st.CircuitFastFails != 1 {
		t.Errorf("CircuitFastFails = %d, want 1", st.CircuitFastFails)
	}

	flip.set(healthy.Handler())
	clk.Advance(6 * time.Second)
	if _, err := c.Evaluate(context.Background(), evalReq()); err != nil {
		t.Fatalf("probe after heal: %v", err)
	}
}
