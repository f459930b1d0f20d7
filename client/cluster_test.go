package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/api"
	"repro/internal/serve"
)

// TestClusterSimulateRoundTrip drives the fleet endpoint through the
// SDK against the real handler: default fleet, deterministic event
// hash, cache flag on replay.
func TestClusterSimulateRoundTrip(t *testing.T) {
	srv := httptest.NewServer(serve.New().Handler())
	t.Cleanup(srv.Close)
	c := New(srv.URL)

	req := api.ClusterRequest{DurationS: 1, Policies: []string{"weighted"}, Seed: 11}
	resp, err := c.ClusterSimulate(context.Background(), req)
	if err != nil {
		t.Fatalf("ClusterSimulate: %v", err)
	}
	if len(resp.Policies) != 1 || resp.Policies[0].Policy != "weighted" {
		t.Fatalf("unexpected response: %+v", resp)
	}
	pol := resp.Policies[0]
	if len(pol.Tenants) != 3 || len(pol.Hosts) != 8 || pol.Events <= 0 {
		t.Errorf("default fleet shape: %d tenants / %d hosts / %d events",
			len(pol.Tenants), len(pol.Hosts), pol.Events)
	}
	if resp.Cached {
		t.Error("cold response must not be marked cached")
	}

	again, err := c.ClusterSimulate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Error("repeat response should be served from the daemon cache")
	}
	if again.Policies[0].EventHash != pol.EventHash {
		t.Errorf("event hash drifted: %s vs %s", again.Policies[0].EventHash, pol.EventHash)
	}
}

// TestClusterSimulateValidationError: a bad policy maps onto the
// permanent error class with the envelope decoded — no retries.
func TestClusterSimulateValidationError(t *testing.T) {
	srv := httptest.NewServer(serve.New().Handler())
	t.Cleanup(srv.Close)
	c := New(srv.URL)

	_, err := c.ClusterSimulate(context.Background(), api.ClusterRequest{Policies: []string{"random"}})
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest {
		t.Fatalf("want APIError 400, got %v", err)
	}
	if st := c.Stats(); st.Retries != 0 {
		t.Errorf("validation failure retried %d times, want 0", st.Retries)
	}
}

// TestTopologyErrorEnvelopeDecoded: a custom error envelope from the
// server surfaces verbatim on the APIError — status, stable code,
// message, details — and the 4xx is returned on the first attempt.
func TestTopologyErrorEnvelopeDecoded(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusUnprocessableEntity)
		w.Write([]byte(`{"error":{"code":"no_convergence","message":"fixed point diverged","details":{"iterations":64}}}`))
	}))
	t.Cleanup(srv.Close)
	c := New(srv.URL)

	_, err := c.EvaluateTopology(context.Background(), api.TopologyRequest{})
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("want *APIError, got %T: %v", err, err)
	}
	if ae.Status != http.StatusUnprocessableEntity || ae.Code != "no_convergence" {
		t.Errorf("envelope not decoded: %+v", ae)
	}
	if ae.Message != "fixed point diverged" {
		t.Errorf("message = %q", ae.Message)
	}
	if v, ok := ae.Details["iterations"].(float64); !ok || v != 64 {
		t.Errorf("details = %+v", ae.Details)
	}
	if n := hits.Load(); n != 1 {
		t.Errorf("permanent error took %d attempts, want 1", n)
	}
}

// TestTopologyGarbledEnvelopeFallsBack: a non-envelope error body still
// yields an APIError with the http_<status> fallback code.
func TestTopologyGarbledEnvelopeFallsBack(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`<html>not json</html>`))
	}))
	t.Cleanup(srv.Close)
	c := New(srv.URL)

	_, err := c.EvaluateTopology(context.Background(), api.TopologyRequest{})
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("want *APIError, got %T: %v", err, err)
	}
	if ae.Code != "http_400" || ae.Message != "" {
		t.Errorf("fallback code = %q message = %q", ae.Code, ae.Message)
	}
}

// TestTopologyServerStormTripsBreaker: a 500 storm through
// EvaluateTopology trips the breaker, and the next call fast-fails
// with ErrCircuitOpen without touching the network.
func TestTopologyServerStormTripsBreaker(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	t.Cleanup(srv.Close)
	c := New(srv.URL,
		WithMaxAttempts(4),
		WithBackoff(time.Microsecond, time.Microsecond),
		WithBreaker(3, time.Hour),
	)

	_, err := c.EvaluateTopology(context.Background(), api.TopologyRequest{})
	if !errors.Is(err, ErrBudgetExhausted) && !IsCircuitOpen(err) {
		t.Fatalf("storm should exhaust or trip: %v", err)
	}
	before := hits.Load()

	_, err = c.EvaluateTopology(context.Background(), api.TopologyRequest{})
	if !IsCircuitOpen(err) {
		t.Fatalf("want circuit-open fast fail, got %v", err)
	}
	if hits.Load() != before {
		t.Error("fast fail still touched the network")
	}
	if st := c.Stats(); st.CircuitFastFails == 0 || st.BreakerOpens == 0 {
		t.Errorf("breaker stats not recorded: %+v", st)
	}
}
