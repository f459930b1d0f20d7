package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/api"
)

// fakeClock records sleeps without actually sleeping, so fault-latency
// tests run instantly.
type fakeClock struct {
	now    time.Time
	slept  atomic.Int64 // total nanoseconds requested
	sleeps atomic.Int64
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1700000000, 0)} }

func (f *fakeClock) Now() time.Time { return f.now }

func (f *fakeClock) Sleep(_ context.Context, d time.Duration) {
	f.slept.Add(int64(d))
	f.sleeps.Add(1)
}

const evalBody = `{"params":{"class":"bigdata"},"platform":{}}`

// statuses replays n identical evaluate requests and returns the status
// sequence — the fault fingerprint of a (seed, order) pair.
func statuses(t *testing.T, h http.Handler, n int) []int {
	t.Helper()
	out := make([]int, n)
	for i := range out {
		status, _, _ := doJSON(t, h, http.MethodPost, "/v1/evaluate", evalBody)
		out[i] = status
	}
	return out
}

func TestFaultInjectionDeterministic(t *testing.T) {
	fc := FaultConfig{Seed: 42, ErrorP: 0.3, UnavailableP: 0.2, LatencyP: 0.5, Latency: time.Millisecond}
	a := statuses(t, New(WithFaults(fc), WithClock(newFakeClock())).Handler(), 64)
	b := statuses(t, New(WithFaults(fc), WithClock(newFakeClock())).Handler(), 64)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d: same seed diverged: %d vs %d", i, a[i], b[i])
		}
	}
	var faulted int
	for _, st := range a {
		if st != http.StatusOK {
			faulted++
		}
	}
	if faulted == 0 {
		t.Fatal("no faults fired in 64 requests at p(error)=0.3, p(unavailable)=0.2")
	}

	c := statuses(t, New(WithFaults(FaultConfig{Seed: 43, ErrorP: 0.3, UnavailableP: 0.2}), WithClock(newFakeClock())).Handler(), 64)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced an identical 64-request fault sequence")
	}
}

func TestFaultInjectionEnvelopeAndRetryAfter(t *testing.T) {
	// ErrorP = 1: every /v1 request fails with the injected-500 envelope.
	h := New(WithFaults(FaultConfig{Seed: 1, ErrorP: 1}), WithClock(newFakeClock())).Handler()
	status, blob, _ := doJSON(t, h, http.MethodPost, "/v1/evaluate", evalBody)
	if status != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", status)
	}
	var eb api.ErrorBody
	if err := json.Unmarshal(blob, &eb); err != nil || eb.Error.Code != api.CodeFaultInjected {
		t.Errorf("injected 500 envelope = %s, want code %q", blob, api.CodeFaultInjected)
	}

	// UnavailableP = 1: every reply is 503 and carries Retry-After.
	h = New(WithFaults(FaultConfig{Seed: 1, UnavailableP: 1}), WithClock(newFakeClock())).Handler()
	status, blob, hdr := doJSON(t, h, http.MethodPost, "/v1/evaluate", evalBody)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", status)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("injected 503 must carry Retry-After")
	}
	if err := json.Unmarshal(blob, &eb); err != nil || eb.Error.Code != api.CodeFaultInjected {
		t.Errorf("injected 503 envelope = %s, want code %q", blob, api.CodeFaultInjected)
	}

	// Health and metrics stay exempt so operators can still observe a
	// chaos-armed daemon.
	status, _, _ = doJSON(t, h, http.MethodGet, "/healthz", "")
	if status != http.StatusOK {
		t.Errorf("healthz under faults = %d, want 200", status)
	}
	status, blob, _ = doJSON(t, h, http.MethodGet, "/metrics", "")
	if status != http.StatusOK {
		t.Fatalf("metrics under faults = %d, want 200", status)
	}
	if !strings.Contains(string(blob), `memmodeld_faults_injected_total{kind="unavailable"} 1`) {
		t.Errorf("metrics missing fault counters:\n%s", blob)
	}
}

func TestFaultLatencyUsesInjectedClock(t *testing.T) {
	clk := newFakeClock()
	h := New(WithFaults(FaultConfig{Seed: 7, LatencyP: 1, Latency: 25 * time.Millisecond}), WithClock(clk)).Handler()
	status, _, _ := doJSON(t, h, http.MethodPost, "/v1/evaluate", evalBody)
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200 (latency-only faults still answer)", status)
	}
	if got := clk.sleeps.Load(); got != 1 {
		t.Errorf("sleeps = %d, want 1", got)
	}
	if got := time.Duration(clk.slept.Load()); got != 25*time.Millisecond {
		t.Errorf("slept %v, want 25ms", got)
	}
}

func TestWireErrorCodesStable(t *testing.T) {
	h := New().Handler()
	cases := []struct {
		name, method, path, body string
		status                   int
		code                     string
	}{
		{"malformed body", http.MethodPost, "/v1/evaluate", `{"params":`, http.StatusBadRequest, api.CodeBadRequest},
		{"unknown class", http.MethodPost, "/v1/evaluate", `{"params":{"class":"nope"},"platform":{}}`, http.StatusBadRequest, api.CodeInvalidParams},
		{"bad platform", http.MethodPost, "/v1/sweep", `{"axis":"sideways","platform":{}}`, http.StatusBadRequest, api.CodeInvalidPlatform},
		{"wrong method", http.MethodGet, "/v1/evaluate", "", http.StatusMethodNotAllowed, api.CodeMethodNotAllowed},
	}
	for _, tc := range cases {
		status, blob, _ := doJSON(t, h, tc.method, tc.path, tc.body)
		if status != tc.status {
			t.Errorf("%s: status = %d, want %d", tc.name, status, tc.status)
			continue
		}
		var eb api.ErrorBody
		if err := json.Unmarshal(blob, &eb); err != nil {
			t.Errorf("%s: bad envelope: %s", tc.name, blob)
			continue
		}
		if eb.Error.Code != tc.code {
			t.Errorf("%s: code = %q, want %q", tc.name, eb.Error.Code, tc.code)
		}
	}
}

func TestSheddingCarriesOverloadedCode(t *testing.T) {
	s := New(WithAdmission(1, 0))
	gate := make(chan struct{})
	started := make(chan struct{})
	s.testHookSolve = func() { close(started); <-gate }
	h := s.Handler()

	done := make(chan struct{})
	go func() {
		defer close(done)
		req := httptest.NewRequest(http.MethodPost, "/v1/evaluate", strings.NewReader(evalBody))
		h.ServeHTTP(httptest.NewRecorder(), req)
	}()
	<-started
	// Distinct scenario: singleflight must not collapse it, so it needs
	// the (occupied) admission slot and sheds.
	status, blob, hdr := doJSON(t, h, http.MethodPost, "/v1/evaluate",
		`{"params":{"class":"bigdata"},"platform":{"compulsory_ns":99}}`)
	close(gate)
	<-done
	if status != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", status)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 must carry Retry-After")
	}
	var eb api.ErrorBody
	if err := json.Unmarshal(blob, &eb); err != nil || eb.Error.Code != api.CodeOverloaded {
		t.Errorf("shed envelope = %s, want code %q", blob, api.CodeOverloaded)
	}
}
