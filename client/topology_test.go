package client

import (
	"context"
	"net/http/httptest"
	"testing"

	"repro/api"
	"repro/internal/serve"
)

// TestEvaluateTopologyRoundTrip drives the SDK method against the real
// service handler end to end: fraction split and per-tier state.
func TestEvaluateTopologyRoundTrip(t *testing.T) {
	srv := httptest.NewServer(serve.New().Handler())
	t.Cleanup(srv.Close)
	c := New(srv.URL)

	req := api.TopologyRequest{
		Params: api.ParamsSpec{Class: "bigdata"},
		Topology: api.TopologySpec{
			Tiers: []api.TopologyTierSpec{
				{Name: "near", Share: 0.8, CompulsoryNS: 75, PeakGBps: 42},
				{Name: "far", Share: 0.2, CompulsoryNS: 300, PeakGBps: 10},
			},
		},
	}
	resp, err := c.EvaluateTopology(context.Background(), req)
	if err != nil {
		t.Fatalf("EvaluateTopology: %v", err)
	}
	if resp.CPI <= 0 || len(resp.Tiers) != 2 || resp.Policy != "fractions" {
		t.Errorf("unexpected response: %+v", resp)
	}
}

// TestEvaluateTopologyValidationError maps the daemon's 400 onto the
// SDK's permanent (non-retryable) error class.
func TestEvaluateTopologyValidationError(t *testing.T) {
	srv := httptest.NewServer(serve.New().Handler())
	t.Cleanup(srv.Close)
	c := New(srv.URL)

	_, err := c.EvaluateTopology(context.Background(), api.TopologyRequest{
		Params:   api.ParamsSpec{Class: "bigdata"},
		Topology: api.TopologySpec{Policy: "striped"},
	})
	if err == nil {
		t.Fatal("expected a validation error")
	}
	if st := c.Stats(); st.Retries != 0 {
		t.Errorf("validation failure retried %d times, want 0", st.Retries)
	}
}
