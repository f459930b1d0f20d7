package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/api"
)

func TestWorkloadValidateDefaults(t *testing.T) {
	h := New().Handler()
	status, blob, _ := doJSON(t, h, http.MethodPost, "/v1/workload/validate", `{}`)
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, blob)
	}
	var resp api.WorkloadValidateResponse
	if err := json.Unmarshal(blob, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Name != "workload" || resp.DurationS != 2 {
		t.Fatalf("defaults not applied: %+v", resp)
	}
	if resp.Arrivals == 0 || len(resp.TraceHash) != 16 {
		t.Fatalf("trace identity missing: arrivals=%d hash=%q", resp.Arrivals, resp.TraceHash)
	}
	// Reference mix: "total" first, then three clients.
	if len(resp.Clients) != 4 || resp.Clients[0].Name != "total" {
		t.Fatalf("clients = %+v", resp.Clients)
	}
	// Six scenarios (two per client), each solved to a positive CPI.
	if len(resp.Scenarios) != 6 {
		t.Fatalf("scenarios = %d, want 6", len(resp.Scenarios))
	}
	var weight float64
	for _, sc := range resp.Scenarios {
		if sc.CPI <= 0 || sc.Key == "" {
			t.Fatalf("scenario %+v incomplete", sc)
		}
		weight += sc.Weight
	}
	if weight < 0.999 || weight > 1.001 {
		t.Fatalf("scenario weights sum to %g, want 1", weight)
	}
	if resp.Clients[0].MeanMS <= 0 || resp.Clients[0].ThroughputRPS <= 0 {
		t.Fatalf("total KPI empty: %+v", resp.Clients[0])
	}
	if resp.Solver.Solves == 0 {
		t.Error("solver telemetry missing from a cold validate")
	}
}

// TestWorkloadValidateDeterministicAndCached: the same body must hit
// the scenario cache on repeat (marked Cached) and report the identical
// trace hash; a different seed must miss and produce a different hash.
func TestWorkloadValidateDeterministicAndCached(t *testing.T) {
	h := New().Handler()
	body := `{"spec":{"total_rps":100,"duration_s":1,"seed":42}}`

	_, blob1, _ := doJSON(t, h, http.MethodPost, "/v1/workload/validate", body)
	var r1, r2, r3 api.WorkloadValidateResponse
	if err := json.Unmarshal(blob1, &r1); err != nil {
		t.Fatal(err)
	}
	_, blob2, _ := doJSON(t, h, http.MethodPost, "/v1/workload/validate", body)
	if err := json.Unmarshal(blob2, &r2); err != nil {
		t.Fatal(err)
	}
	if !r2.Cached {
		t.Error("repeat validate not served from cache")
	}
	if r1.TraceHash != r2.TraceHash || r1.Arrivals != r2.Arrivals {
		t.Fatalf("same spec diverged: %s/%d vs %s/%d", r1.TraceHash, r1.Arrivals, r2.TraceHash, r2.Arrivals)
	}

	_, blob3, _ := doJSON(t, h, http.MethodPost, "/v1/workload/validate",
		`{"spec":{"total_rps":100,"duration_s":1,"seed":43}}`)
	if err := json.Unmarshal(blob3, &r3); err != nil {
		t.Fatal(err)
	}
	if r3.Cached {
		t.Error("different seed must not share the cache entry")
	}
	if r3.TraceHash == r1.TraceHash {
		t.Error("different seed produced the same trace hash")
	}
}

func TestWorkloadValidateRejects(t *testing.T) {
	h := New().Handler()
	cases := []struct {
		name, body, wantCode string
	}{
		{"bad-json", `{`, "bad_request"},
		{"unknown-field", `{"nope":1}`, "bad_request"},
		{"negative-rps", `{"spec":{"total_rps":-5}}`, "invalid_params"},
		{"too-long", `{"spec":{"duration_s":500}}`, "invalid_params"},
		{"bad-class", `{"spec":{"clients":[{"scenarios":[{"params":{"class":"nope"}}]}]}}`, "invalid_params"},
		{"bad-process", `{"spec":{"clients":[{"arrival":{"process":"uniform"}}]}}`, "invalid_params"},
		{"negative-service", `{"service_us":-1}`, "invalid_params"},
		{"negative-slots", `{"slots":-1}`, "invalid_params"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, blob, _ := doJSON(t, h, http.MethodPost, "/v1/workload/validate", tc.body)
			if status != http.StatusBadRequest {
				t.Fatalf("status = %d: %s", status, blob)
			}
			if !strings.Contains(string(blob), tc.wantCode) {
				t.Errorf("reply missing code %q: %s", tc.wantCode, blob)
			}
		})
	}

	status, _, _ := doJSON(t, h, http.MethodGet, "/v1/workload/validate", "")
	if status != http.StatusMethodNotAllowed {
		t.Fatalf("GET = %d, want 405", status)
	}
}
