package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// serveOp returns one POST to path through the full handler — decode,
// validate, admission, solve or cache, encode — with body(i) as the
// i-th request's body.
func serveOp(tb testing.TB, h http.Handler, path string, body func(i int) string) func() {
	i := 0
	return func() {
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body(i)))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			tb.Fatalf("POST %s = %d: %s", path, w.Code, w.Body)
		}
		i++
	}
}

func benchOp(b *testing.B, op func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func repeated(body string) func(int) string { return func(int) string { return body } }

const (
	evaluateBody = `{"params":{"class":"bigdata"},"platform":{}}`
	// sweepLoadBody is the default latency sweep: three classes at 11
	// compulsory latencies.
	sweepLoadBody = `{"axis":"latency","platform":{}}`
)

// distinctPlatform returns a body format's i-th request with a distinct
// compulsory latency, so no two requests share a scenario.
func distinctPlatform(format string) func(int) string {
	return func(i int) string { return fmt.Sprintf(format, 75+float64(i%100000)*0.001) }
}

// BenchmarkEvaluateRepeat serves one /v1/evaluate body over and over:
// the daemon's steady-state throughput ceiling for single evaluations,
// each of which solves.
func BenchmarkEvaluateRepeat(b *testing.B) {
	benchOp(b, serveOp(b, New().Handler(), "/v1/evaluate", repeated(evaluateBody)))
}

// BenchmarkEvaluateDistinct serves a distinct /v1/evaluate scenario per
// request; next to BenchmarkEvaluateRepeat it shows that a repeated
// body buys nothing.
func BenchmarkEvaluateDistinct(b *testing.B) {
	benchOp(b, serveOp(b, New().Handler(), "/v1/evaluate",
		distinctPlatform(`{"params":{"class":"bigdata"},"platform":{"compulsory_ns":%g}}`)))
}

// BenchmarkSweepCacheHit serves a sweep already in the scenario cache;
// the gap to BenchmarkSweepColdSolve is what the cache buys.
func BenchmarkSweepCacheHit(b *testing.B) {
	op := serveOp(b, New().Handler(), "/v1/sweep", repeated(sweepLoadBody))
	op()
	benchOp(b, op)
}

// BenchmarkSweepColdSolve serves a distinct sweep per request, so every
// request misses the cache and solves all 33 points.
func BenchmarkSweepColdSolve(b *testing.B) {
	benchOp(b, serveOp(b, New(WithCacheSize(1)).Handler(), "/v1/sweep",
		distinctPlatform(`{"axis":"latency","platform":{"compulsory_ns":%g}}`)))
}

// BenchmarkClusterSimulateHandler measures one default
// /v1/cluster/simulate request through the full handler: the default
// fleet and tenants under all three policies, a distinct seed per
// iteration so every request misses the cache and runs the simulator.
func BenchmarkClusterSimulateHandler(b *testing.B) {
	benchOp(b, serveOp(b, New().Handler(), "/v1/cluster/simulate",
		func(i int) string { return fmt.Sprintf(`{"seed":%d}`, i+1) }))
}

// TestEvaluateHandlerAllocs gates BenchmarkEvaluateRepeat's op in
// tier-1: one /v1/evaluate request measured 55 allocs/op, and 59–60
// under -race (testing.AllocsPerRun, GOMAXPROCS 1). The race detector
// drops sync.Pool items at random, so the count is averaged over 1000
// requests.
func TestEvaluateHandlerAllocs(t *testing.T) {
	const ceiling = 60
	op := serveOp(t, New().Handler(), "/v1/evaluate", repeated(evaluateBody))
	got := testing.AllocsPerRun(1000, op)
	if got > ceiling {
		t.Errorf("/v1/evaluate: %.1f allocs/op, ceiling %d", got, ceiling)
	}
	t.Logf("/v1/evaluate: %.1f allocs/op (ceiling %d)", got, ceiling)
}
