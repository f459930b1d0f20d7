package serve

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/api"
	"repro/internal/model"
)

// latencyBuckets are the per-endpoint histogram upper bounds in
// seconds, spanning cached sub-millisecond replies to multi-second
// sweep grids.
var latencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5,
}

// histogram is a fixed-bucket latency histogram with atomic counters
// (one extra bucket for +Inf).
type histogram struct {
	counts []atomic.Int64
	sumNS  atomic.Int64
	count  atomic.Int64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]atomic.Int64, len(latencyBuckets)+1)}
}

func (h *histogram) observe(d time.Duration) {
	secs := d.Seconds()
	idx := len(latencyBuckets)
	for i, ub := range latencyBuckets {
		if secs <= ub {
			idx = i
			break
		}
	}
	h.counts[idx].Add(1)
	h.sumNS.Add(int64(d))
	h.count.Add(1)
}

// endpointMetrics counts one endpoint's traffic by outcome class.
type endpointMetrics struct {
	requests  atomic.Int64
	ok        atomic.Int64 // 2xx
	clientErr atomic.Int64 // 4xx except 429
	shed      atomic.Int64 // 429
	serverErr atomic.Int64 // 5xx
	latency   *histogram
}

func (em *endpointMetrics) record(status int, d time.Duration) {
	em.requests.Add(1)
	em.latency.observe(d)
	switch {
	case status == 429:
		em.shed.Add(1)
	case status >= 500:
		em.serverErr.Add(1)
	case status >= 400:
		em.clientErr.Add(1)
	default:
		em.ok.Add(1)
	}
}

// Metrics is the daemon's live telemetry: per-endpoint request counts
// and latency histograms plus the process-wide solver aggregate. Cache
// and admission counters live on their own types and are joined in at
// render time.
type Metrics struct {
	start     time.Time
	names     []string // stable exposition order
	endpoints map[string]*endpointMetrics

	// Solver aggregates the fixed-point telemetry of every solve the
	// daemon ran (iterations, bandwidth-limited counts, worst residual):
	// each request context records on it (see Server.record).
	Solver model.Aggregate
}

func newMetrics(endpoints []string) *Metrics {
	m := &Metrics{
		start:     time.Now(),
		names:     append([]string(nil), endpoints...),
		endpoints: map[string]*endpointMetrics{},
	}
	for _, name := range endpoints {
		m.endpoints[name] = &endpointMetrics{latency: newHistogram()}
	}
	return m
}

func (m *Metrics) endpoint(name string) *endpointMetrics { return m.endpoints[name] }

// render writes the Prometheus text exposition of every counter the
// daemon tracks.
func (m *Metrics) render(w io.Writer, cache CacheStats, adm AdmissionStats, faults FaultStats, draining bool) {
	up := 1
	if draining {
		up = 0
	}
	fmt.Fprintf(w, "# memmodeld live telemetry\n")
	fmt.Fprintf(w, "memmodeld_up %d\n", up)
	fmt.Fprintf(w, "memmodeld_uptime_seconds %.3f\n", time.Since(m.start).Seconds())

	for _, name := range m.names {
		em := m.endpoints[name]
		fmt.Fprintf(w, "memmodeld_requests_total{endpoint=%q} %d\n", name, em.requests.Load())
		fmt.Fprintf(w, "memmodeld_responses_total{endpoint=%q,class=\"2xx\"} %d\n", name, em.ok.Load())
		fmt.Fprintf(w, "memmodeld_responses_total{endpoint=%q,class=\"4xx\"} %d\n", name, em.clientErr.Load())
		fmt.Fprintf(w, "memmodeld_responses_total{endpoint=%q,class=\"429\"} %d\n", name, em.shed.Load())
		fmt.Fprintf(w, "memmodeld_responses_total{endpoint=%q,class=\"5xx\"} %d\n", name, em.serverErr.Load())
		cum := int64(0)
		for i, ub := range latencyBuckets {
			cum += em.latency.counts[i].Load()
			fmt.Fprintf(w, "memmodeld_request_latency_seconds_bucket{endpoint=%q,le=\"%g\"} %d\n", name, ub, cum)
		}
		cum += em.latency.counts[len(latencyBuckets)].Load()
		fmt.Fprintf(w, "memmodeld_request_latency_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", name, cum)
		fmt.Fprintf(w, "memmodeld_request_latency_seconds_sum{endpoint=%q} %.6f\n",
			name, time.Duration(em.latency.sumNS.Load()).Seconds())
		fmt.Fprintf(w, "memmodeld_request_latency_seconds_count{endpoint=%q} %d\n", name, em.latency.count.Load())
	}

	fmt.Fprintf(w, "memmodeld_cache_hits_total %d\n", cache.Hits)
	fmt.Fprintf(w, "memmodeld_cache_singleflight_shared_total %d\n", cache.Shared)
	fmt.Fprintf(w, "memmodeld_cache_misses_total %d\n", cache.Misses)
	fmt.Fprintf(w, "memmodeld_cache_evictions_total %d\n", cache.Evictions)
	fmt.Fprintf(w, "memmodeld_cache_entries %d\n", cache.Size)
	fmt.Fprintf(w, "memmodeld_cache_hit_ratio %.6f\n", cache.HitRatio())

	fmt.Fprintf(w, "memmodeld_admission_inflight %d\n", adm.InFlight)
	fmt.Fprintf(w, "memmodeld_admission_queued %d\n", adm.Queued)
	fmt.Fprintf(w, "memmodeld_admission_admitted_total %d\n", adm.Admitted)
	fmt.Fprintf(w, "memmodeld_admission_shed_total %d\n", adm.Shed)

	fmt.Fprintf(w, "memmodeld_faults_injected_total{kind=\"latency\"} %d\n", faults.Latencies)
	fmt.Fprintf(w, "memmodeld_faults_injected_total{kind=\"error\"} %d\n", faults.Errors)
	fmt.Fprintf(w, "memmodeld_faults_injected_total{kind=\"unavailable\"} %d\n", faults.Unavailable)
	fmt.Fprintf(w, "memmodeld_faults_injected_total{kind=\"drop\"} %d\n", faults.Drops)

	st := m.Solver.Stats()
	fmt.Fprintf(w, "memmodeld_solver_solves_total %d\n", st.Solves)
	fmt.Fprintf(w, "memmodeld_solver_iterations_total %d\n", st.Iterations)
	fmt.Fprintf(w, "memmodeld_solver_bandwidth_limited_total %d\n", st.BandwidthLimited)
	fmt.Fprintf(w, "memmodeld_solver_worst_residual %g\n", st.MaxResidual)
}

func solverBody(st model.Stats) api.SolverBody {
	return api.SolverBody{
		Solves:           st.Solves,
		Iterations:       st.Iterations,
		BandwidthLimited: st.BandwidthLimited,
		WorstResidual:    st.MaxResidual,
	}
}
