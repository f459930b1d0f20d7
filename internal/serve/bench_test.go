package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// BenchmarkEvaluateCacheHit measures the full handler path for a
// scenario already in the cache — decode, canonicalize, admission, LRU
// hit, encode. This is the daemon's steady-state throughput ceiling.
func BenchmarkEvaluateCacheHit(b *testing.B) {
	h := New().Handler()
	body := `{"params":{"class":"bigdata"},"platform":{}}`
	warm := httptest.NewRequest(http.MethodPost, "/v1/evaluate", strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, warm)
	if w.Code != http.StatusOK {
		b.Fatalf("warmup status = %d: %s", w.Code, w.Body)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/evaluate", strings.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status = %d", w.Code)
		}
	}
}

// BenchmarkEvaluateColdSolve measures the same path with every request
// a distinct scenario, forcing a fixed-point solve each time. The gap
// to BenchmarkEvaluateCacheHit is what the scenario cache buys.
func BenchmarkEvaluateColdSolve(b *testing.B) {
	h := New(WithCacheSize(1)).Handler()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := fmt.Sprintf(`{"params":{"class":"bigdata"},"platform":{"compulsory_ns":%g}}`,
			75+float64(i%100000)*0.001)
		req := httptest.NewRequest(http.MethodPost, "/v1/evaluate", strings.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status = %d: %s", w.Code, w.Body)
		}
	}
}

// BenchmarkClusterSimulateHandler measures one default
// /v1/cluster/simulate request through the full handler: the default
// fleet and tenants under all three policies, a distinct seed per
// iteration so every request misses the cache and runs the simulator.
func BenchmarkClusterSimulateHandler(b *testing.B) {
	h := New().Handler()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := fmt.Sprintf(`{"seed":%d}`, i+1)
		req := httptest.NewRequest(http.MethodPost, "/v1/cluster/simulate", strings.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status = %d: %s", w.Code, w.Body)
		}
	}
}
