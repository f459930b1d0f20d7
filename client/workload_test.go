package client

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"

	"repro/api"
	"repro/internal/serve"
)

// TestWorkloadValidateRoundTrip drives the dry-run endpoint through
// the SDK against the real handler.
func TestWorkloadValidateRoundTrip(t *testing.T) {
	srv := httptest.NewServer(serve.New().Handler())
	t.Cleanup(srv.Close)
	c := New(srv.URL)

	req := api.WorkloadValidateRequest{
		Spec: api.WorkloadSpec{TotalRPS: 50, DurationS: 1, Seed: 7},
	}
	resp, err := c.WorkloadValidate(context.Background(), req)
	if err != nil {
		t.Fatalf("WorkloadValidate: %v", err)
	}
	if resp.Arrivals == 0 || len(resp.TraceHash) != 16 {
		t.Fatalf("trace identity missing: %+v", resp)
	}
	if len(resp.Clients) != 4 || resp.Clients[0].Name != "total" {
		t.Fatalf("clients: %+v", resp.Clients)
	}
	if resp.Cached {
		t.Error("cold validate must not be marked cached")
	}

	again, err := c.WorkloadValidate(context.Background(), req)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !again.Cached {
		t.Error("replayed validate not served from cache")
	}
	if again.TraceHash != resp.TraceHash {
		t.Errorf("trace hash drifted on replay: %s vs %s", again.TraceHash, resp.TraceHash)
	}

	// Server-side validation surfaces as a typed APIError.
	_, err = c.WorkloadValidate(context.Background(), api.WorkloadValidateRequest{
		Spec: api.WorkloadSpec{TotalRPS: -1},
	})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != "invalid_params" {
		t.Fatalf("invalid spec error = %v, want invalid_params APIError", err)
	}
}

func TestResetStats(t *testing.T) {
	srv := httptest.NewServer(serve.New().Handler())
	t.Cleanup(srv.Close)
	c := New(srv.URL)

	if _, err := c.Evaluate(context.Background(), api.EvaluateRequest{
		Params: api.ParamsSpec{Class: "bigdata"},
	}); err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	prior := c.ResetStats()
	if prior.Attempts == 0 || prior.Successes == 0 {
		t.Fatalf("prior snapshot empty: %+v", prior)
	}
	if after := c.Stats(); after.Attempts != 0 || after.Successes != 0 || after.Failures != 0 {
		t.Fatalf("counters survived reset: %+v", after)
	}

	// The reset window counts fresh traffic from zero.
	if _, err := c.Evaluate(context.Background(), api.EvaluateRequest{
		Params: api.ParamsSpec{Class: "hpc"},
	}); err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if st := c.Stats(); st.Attempts != 1 || st.Successes != 1 {
		t.Fatalf("fresh window stats = %+v, want exactly one attempt/success", st)
	}
}
