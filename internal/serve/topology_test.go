package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"repro/api"
)

// topoBody is a 2-tier fraction topology mirroring the tiered endpoint's
// canonical example.
const topoBody = `{"params":{"class":"bigdata"},"topology":{"tiers":[
	{"name":"near","share":0.8,"compulsory_ns":75,"peak_gbps":42},
	{"name":"far","share":0.2,"compulsory_ns":300,"peak_gbps":10}]}}`

func TestTopologyEndpointBasic(t *testing.T) {
	h := New().Handler()
	status, blob, _ := doJSON(t, h, http.MethodPost, "/v1/evaluate/topology", topoBody)
	if status != http.StatusOK {
		t.Fatalf("POST /v1/evaluate/topology = %d: %s", status, blob)
	}
	var resp api.TopologyResponse
	if err := json.Unmarshal(blob, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.CPI <= 0 || len(resp.Tiers) != 2 || resp.Policy != "fractions" {
		t.Errorf("unexpected response: %s", blob)
	}
	if resp.EffectiveNS <= 0 {
		t.Error("effective miss penalty missing")
	}
	if resp.Cached {
		t.Error("first request must not be marked cached")
	}

	// A repeat solves again, to the same point.
	_, blob2, _ := doJSON(t, h, http.MethodPost, "/v1/evaluate/topology", topoBody)
	var again api.TopologyResponse
	if err := json.Unmarshal(blob2, &again); err != nil {
		t.Fatal(err)
	}
	if again.Cached || again.CPI != resp.CPI {
		t.Errorf("repeat: cached %v, CPI %v; want false, %v", again.Cached, again.CPI, resp.CPI)
	}
}

// TestTopologyEchoesOwnNames: two topologies that differ only in the
// topology and tier names each get their own names back.
func TestTopologyEchoesOwnNames(t *testing.T) {
	h := New().Handler()
	for _, names := range [][2]string{{"t1", "near"}, {"t2", "far"}} {
		body := fmt.Sprintf(`{"params":{"class":"bigdata"},"topology":{"name":%q,"tiers":[
			{"name":%q,"share":1,"compulsory_ns":75,"peak_gbps":42}]}}`, names[0], names[1])
		status, blob, _ := doJSON(t, h, http.MethodPost, "/v1/evaluate/topology", body)
		var resp api.TopologyResponse
		if err := json.Unmarshal(blob, &resp); status != http.StatusOK || err != nil || len(resp.Tiers) != 1 {
			t.Fatalf("%v: status %d (%v): %s", names, status, err, blob)
		}
		if resp.Platform != names[0] || resp.Tiers[0].Name != names[1] || resp.Cached {
			t.Errorf("%v: reply echoes topology %q, tier %q, cached %v",
				names, resp.Platform, resp.Tiers[0].Name, resp.Cached)
		}
	}
}

// TestRemovedEndpointsReturn404: the tiered and NUMA shapes are served
// by /v1/evaluate/topology alone, so their old endpoints are unknown
// paths, while the topology endpoint still accepts the NUMA shape under
// its "numa" policy alias.
func TestRemovedEndpointsReturn404(t *testing.T) {
	h := New().Handler()
	for _, path := range []string{"/v1/evaluate/tiered", "/v1/evaluate/numa"} {
		if status, blob, _ := doJSON(t, h, http.MethodPost, path, `{"params":{"class":"bigdata"},"platform":{}}`); status != http.StatusNotFound {
			t.Errorf("POST %s = %d, want 404: %s", path, status, blob)
		}
	}
	body := `{"params":{"class":"bigdata"},"topology":{"policy":"numa","remote_fraction":0.3,"tiers":[
		{"name":"dram","compulsory_ns":75,"peak_gbps":42},
		{"name":"link","compulsory_ns":60,"peak_gbps":25}]}}`
	status, blob, _ := doJSON(t, h, http.MethodPost, "/v1/evaluate/topology", body)
	var resp api.TopologyResponse
	if err := json.Unmarshal(blob, &resp); status != http.StatusOK || err != nil || resp.Policy != "local-remote" {
		t.Errorf("numa alias = %d (%v): %s", status, err, blob)
	}
}

// TestTopologyLocalRemotePolicy drives the NUMA-style split through the
// generic endpoint.
func TestTopologyLocalRemotePolicy(t *testing.T) {
	h := New().Handler()
	body := `{"params":{"class":"bigdata"},"topology":{"policy":"local-remote","remote_fraction":0.3,"tiers":[
		{"name":"dram","compulsory_ns":75,"peak_gbps":42},
		{"name":"link","compulsory_ns":60,"peak_gbps":25}]}}`
	status, blob, _ := doJSON(t, h, http.MethodPost, "/v1/evaluate/topology", body)
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, blob)
	}
	var resp api.TopologyResponse
	if err := json.Unmarshal(blob, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Policy != "local-remote" || len(resp.Tiers) != 2 {
		t.Errorf("unexpected response: %s", blob)
	}
	// The remote path traverses both resources, so its reported penalty
	// exceeds the local tier's.
	if resp.Tiers[1].MissPenaltyNS <= resp.Tiers[0].MissPenaltyNS {
		t.Errorf("remote path %v ns should exceed local %v ns",
			resp.Tiers[1].MissPenaltyNS, resp.Tiers[0].MissPenaltyNS)
	}
}

// TestTopologyEfficiencyDerating: a derated tier saturates earlier and
// reports a worse (or equal) CPI on the wire.
func TestTopologyEfficiencyDerating(t *testing.T) {
	h := New().Handler()
	full := `{"params":{"class":"hpc"},"topology":{"tiers":[
		{"name":"mem","share":1,"compulsory_ns":75,"peak_gbps":42}]}}`
	derated := `{"params":{"class":"hpc"},"topology":{"tiers":[
		{"name":"mem","share":1,"compulsory_ns":75,"peak_gbps":42,"efficiency":0.7}]}}`

	_, fb, _ := doJSON(t, h, http.MethodPost, "/v1/evaluate/topology", full)
	_, db, _ := doJSON(t, h, http.MethodPost, "/v1/evaluate/topology", derated)
	var fr, dr api.TopologyResponse
	if err := json.Unmarshal(fb, &fr); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(db, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.CPI < fr.CPI {
		t.Errorf("derated CPI %v < full CPI %v", dr.CPI, fr.CPI)
	}
}

func TestTopologyEndpointRejectsBadBodies(t *testing.T) {
	h := New().Handler()
	cases := []struct {
		name, body, want string
	}{
		{"bad policy", `{"params":{"class":"bigdata"},"topology":{"policy":"striped","tiers":[
			{"share":1,"compulsory_ns":75,"peak_gbps":42}]}}`, "unknown split policy"},
		{"no tiers", `{"params":{"class":"bigdata"},"topology":{}}`, "at least one tier"},
		{"bad shares", `{"params":{"class":"bigdata"},"topology":{"tiers":[
			{"share":0.5,"compulsory_ns":75,"peak_gbps":42}]}}`, "sum"},
		{"bad efficiency", `{"params":{"class":"bigdata"},"topology":{"tiers":[
			{"share":1,"compulsory_ns":75,"peak_gbps":42,"efficiency":1.5}]}}`, "Efficiency"},
		{"local-remote needs 2", `{"params":{"class":"bigdata"},"topology":{"policy":"local-remote","tiers":[
			{"compulsory_ns":75,"peak_gbps":42}]}}`, "exactly 2 tiers"},
	}
	for _, tc := range cases {
		status, blob, _ := doJSON(t, h, http.MethodPost, "/v1/evaluate/topology", tc.body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400: %s", tc.name, status, blob)
		}
		if !strings.Contains(string(blob), tc.want) {
			t.Errorf("%s: error %s should mention %q", tc.name, blob, tc.want)
		}
	}
}

// TestTopologyMetricsLabel: the endpoint shows up in /metrics with the
// other four.
func TestTopologyMetricsLabel(t *testing.T) {
	h := New().Handler()
	doJSON(t, h, http.MethodPost, "/v1/evaluate/topology", topoBody)
	_, blob, _ := doJSON(t, h, http.MethodGet, "/metrics", "")
	if !strings.Contains(string(blob), `endpoint="topology"`) {
		t.Errorf("/metrics missing topology endpoint label:\n%s", blob)
	}
}
