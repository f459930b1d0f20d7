package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"repro/api"
)

// clusterBody keeps the endpoint tests fast: the default fleet and
// tenants, a short horizon, and a single policy.
const clusterBody = `{"duration_s":1,"policies":["weighted"],"seed":7}`

func TestClusterEndpointBasic(t *testing.T) {
	h := New().Handler()
	status, blob, _ := doJSON(t, h, http.MethodPost, "/v1/cluster/simulate", clusterBody)
	if status != http.StatusOK {
		t.Fatalf("POST /v1/cluster/simulate = %d: %s", status, blob)
	}
	var resp api.ClusterResponse
	if err := json.Unmarshal(blob, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Policies) != 1 || resp.Policies[0].Policy != "weighted" {
		t.Fatalf("unexpected policies: %s", blob)
	}
	pol := resp.Policies[0]
	if len(pol.Tenants) != 3 || len(pol.Hosts) != 8 {
		t.Errorf("default fleet shape: %d tenants / %d hosts", len(pol.Tenants), len(pol.Hosts))
	}
	if pol.Events <= 0 || len(pol.EventHash) != 16 {
		t.Errorf("event witness missing: events=%d hash=%q", pol.Events, pol.EventHash)
	}
	if pol.Fairness <= 0 || pol.Fairness > 1 {
		t.Errorf("fairness out of range: %v", pol.Fairness)
	}
	for _, tm := range pol.Tenants {
		if tm.Completed <= 0 || tm.P99MS < tm.P50MS {
			t.Errorf("%s: implausible metrics: %+v", tm.Name, tm)
		}
	}
	if resp.Cached {
		t.Error("first request must not be marked cached")
	}

	// Replay: bit-identical event order, served from cache.
	_, blob2, _ := doJSON(t, h, http.MethodPost, "/v1/cluster/simulate", clusterBody)
	var again api.ClusterResponse
	if err := json.Unmarshal(blob2, &again); err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Error("repeat request should be served from cache")
	}
	if again.Policies[0].EventHash != pol.EventHash {
		t.Errorf("event hash drifted: %s vs %s", again.Policies[0].EventHash, pol.EventHash)
	}
}

// TestClusterEchoesOwnNames: two fleets that differ only in host and
// tenant names each get their own names back.
func TestClusterEchoesOwnNames(t *testing.T) {
	h := New().Handler()
	for _, name := range []string{"alpha", "beta"} {
		body := fmt.Sprintf(`{"duration_s":0.5,"policies":["weighted"],"seed":7,
			"hosts":[{"name":"h-%s","topology":{"tiers":[{"share":1,"compulsory_ns":75,"peak_gbps":42}]}}],
			"tenants":[{"name":%q,"params":{"class":"bigdata"},"rate_rps":50}]}`, name, name)
		status, blob, _ := doJSON(t, h, http.MethodPost, "/v1/cluster/simulate", body)
		var resp api.ClusterResponse
		if err := json.Unmarshal(blob, &resp); status != http.StatusOK || err != nil || len(resp.Policies) != 1 {
			t.Fatalf("%s: status %d (%v): %s", name, status, err, blob)
		}
		pol := resp.Policies[0]
		if pol.Tenants[0].Name != name || pol.Hosts[0].Name != "h-"+name || resp.Cached {
			t.Errorf("%s: reply echoes tenant %q, host %q, cached %v",
				name, pol.Tenants[0].Name, pol.Hosts[0].Name, resp.Cached)
		}
	}
}

// TestClusterEndpointDefaults: `{}` is a complete request — reference
// fleet, all three policies raced.
func TestClusterEndpointDefaults(t *testing.T) {
	h := New().Handler()
	status, blob, _ := doJSON(t, h, http.MethodPost, "/v1/cluster/simulate", `{"duration_s":0.5}`)
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, blob)
	}
	var resp api.ClusterResponse
	if err := json.Unmarshal(blob, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Policies) != 3 {
		t.Fatalf("want all three policies by default, got %d", len(resp.Policies))
	}
	if resp.WarmupS != 0.5/8 {
		t.Errorf("warmup default = %v, want duration/8", resp.WarmupS)
	}
	seen := map[string]bool{}
	for _, p := range resp.Policies {
		seen[p.Policy] = true
	}
	for _, want := range []string{"round-robin", "least-loaded", "weighted"} {
		if !seen[want] {
			t.Errorf("missing policy %q in %s", want, blob)
		}
	}
}

// TestClusterEndpointCustomFleet exercises the count-replication and
// explicit tenant path.
func TestClusterEndpointCustomFleet(t *testing.T) {
	h := New().Handler()
	body := `{"duration_s":1,"policies":["rr"],
		"hosts":[{"name":"dram","count":2,"topology":{"tiers":[
			{"name":"dram","share":1,"compulsory_ns":75,"peak_gbps":42}]}}],
		"tenants":[{"params":{"class":"bigdata"},"rate_rps":200}]}`
	status, blob, _ := doJSON(t, h, http.MethodPost, "/v1/cluster/simulate", body)
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, blob)
	}
	var resp api.ClusterResponse
	if err := json.Unmarshal(blob, &resp); err != nil {
		t.Fatal(err)
	}
	pol := resp.Policies[0]
	if len(pol.Hosts) != 2 || pol.Hosts[0].Name != "dram-0" || pol.Hosts[1].Name != "dram-1" {
		t.Errorf("replication names: %s", blob)
	}
	if len(pol.Tenants) != 1 || pol.Tenants[0].Name != "Big Data" {
		t.Errorf("tenant should default its name from the class: %s", blob)
	}
}

func TestClusterEndpointRejectsBadBodies(t *testing.T) {
	h := New().Handler()
	cases := []struct {
		name, body, want string
	}{
		{"bad policy", `{"policies":["random"]}`, "unknown routing policy"},
		{"too long", `{"duration_s":600}`, "duration_s"},
		{"too many arrivals", `{"duration_s":100,"rate_scale":50}`, "expected arrivals"},
		{"bad tenant rate", `{"tenants":[{"params":{"class":"hpc"},"rate_rps":-1}]}`, "rate"},
		{"bad topology", `{"hosts":[{"topology":{"tiers":[{"share":0.5,"compulsory_ns":75,"peak_gbps":42}]}}]}`, "sum"},
	}
	for _, tc := range cases {
		status, blob, _ := doJSON(t, h, http.MethodPost, "/v1/cluster/simulate", tc.body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400: %s", tc.name, status, blob)
		}
		if !strings.Contains(string(blob), tc.want) {
			t.Errorf("%s: error %s should mention %q", tc.name, blob, tc.want)
		}
	}
}

// TestClusterEndpointHugeSlots: a slot or thread count far beyond any
// traffic is a valid fleet whose slots never fill, not a reason to
// presize the event heap by it. Each body once panicked the handler
// with makeslice: cap out of range, the last by overflowing Σ slots.
func TestClusterEndpointHugeSlots(t *testing.T) {
	h := New().Handler()
	const tiers = `"tiers":[{"share":1,"compulsory_ns":75,"peak_gbps":40}]`
	for name, hosts := range map[string]string{
		"slots":   `{"slots":4611686018427387904,"topology":{` + tiers + `}}`,
		"threads": `{"topology":{"threads":4611686018427387904,` + tiers + `}}`,
		"sum":     `{"count":2,"slots":9223372036854775807,"topology":{` + tiers + `}}`,
	} {
		body := `{"duration_s":0.5,"hosts":[` + hosts + `]}`
		status, blob, _ := doJSON(t, h, http.MethodPost, "/v1/cluster/simulate", body)
		if status != http.StatusOK {
			t.Errorf("%s: status = %d, want 200: %s", name, status, blob)
			continue
		}
		var resp api.ClusterResponse
		if err := json.Unmarshal(blob, &resp); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, pol := range resp.Policies {
			for _, hm := range pol.Hosts {
				if hm.PeakQueue != 0 {
					t.Errorf("%s: %s on %s queued %d requests; no host should run out of slots", name, pol.Policy, hm.Name, hm.PeakQueue)
				}
			}
		}
	}
}

// TestClusterMetricsLabel: the endpoint shows up in /metrics alongside
// the evaluators.
func TestClusterMetricsLabel(t *testing.T) {
	h := New().Handler()
	doJSON(t, h, http.MethodPost, "/v1/cluster/simulate", clusterBody)
	_, blob, _ := doJSON(t, h, http.MethodGet, "/metrics", "")
	if !strings.Contains(string(blob), `endpoint="cluster"`) {
		t.Errorf("/metrics missing cluster endpoint label:\n%s", blob)
	}
}
