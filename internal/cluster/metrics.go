package cluster

import (
	"sort"

	"repro/internal/stats"
	"repro/internal/units"
)

// TenantMetrics are one tenant's per-class SLO observations over the
// measured window [Warmup, Duration).
type TenantMetrics struct {
	Name string
	// Offered counts measured arrivals; Completed the ones that finished
	// (drain included); Shed the ones admission rejected.
	Offered, Completed, Shed int64
	// OfferedRPS and GoodputRPS are the corresponding rates over the
	// measured window.
	OfferedRPS, GoodputRPS float64
	// ShedRate is Shed/Offered.
	ShedRate float64
	// Latency percentiles and mean over completed measured requests.
	P50, P95, P99, Mean units.Duration
	// MinService is the model-predicted unloaded service time on the
	// tenant's best host — the ideal this tenant's latency is judged
	// against in the fairness index.
	MinService units.Duration
}

// HostMetrics are one host's serving counters over the whole run.
type HostMetrics struct {
	Name string
	// Completions and Shed count every request, warmup included.
	Completions, Shed int64
	// Utilization is busy slot-time over slots × makespan.
	Utilization float64
	// PeakQueue is the deepest the wait queue got.
	PeakQueue int
}

// Result is one policy's simulation outcome.
type Result struct {
	Policy   Policy
	Seed     uint64
	Duration units.Duration
	Warmup   units.Duration
	// Events is the number of processed events; EventHash is the FNV-64a
	// fold of the handled event stream — two runs with the same Spec must
	// agree on both bit-exactly.
	Events    int64
	EventHash uint64
	// Fairness is the Jain index over the tenants' delivered-performance
	// shares.
	Fairness float64
	Tenants  []TenantMetrics
	Hosts    []HostMetrics
}

// JainFairness returns (Σx)² / (n·Σx²) — 1 when every tenant gets an
// equal share, approaching 1/n when one tenant takes everything. An
// all-zero allocation is equal by definition and returns 1; an empty
// one returns 0.
func JainFairness(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumsq float64
	for _, x := range xs {
		sum += x
		sumsq += x * x
	}
	if sumsq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumsq)
}

// result assembles the Result from the drained fleet state. It sorts
// the latency samples in place, so it runs once per fleet.
func (f *fleet) result() Result {
	res := Result{
		Policy:    f.spec.Policy,
		Seed:      f.spec.Seed,
		Duration:  f.spec.Duration,
		Warmup:    f.spec.Warmup,
		Events:    f.events,
		EventHash: f.hash.Sum64(),
	}
	window := (f.spec.Duration - f.spec.Warmup).Seconds()
	shares := make([]float64, 0, len(f.tens))
	for t := range f.tens {
		ts := &f.tens[t]
		tm := TenantMetrics{
			Name:       f.spec.Tenants[t].Name,
			Offered:    ts.offered,
			Completed:  int64(len(ts.samples)),
			Shed:       ts.shed,
			MinService: f.pr.minServe[t],
		}
		if window > 0 {
			tm.OfferedRPS = float64(tm.Offered) / window
			tm.GoodputRPS = float64(tm.Completed) / window
		}
		if tm.Offered > 0 {
			tm.ShedRate = float64(tm.Shed) / float64(tm.Offered)
		}
		if xs := ts.samples; len(xs) > 0 {
			// Sum in completion order before sorting: the sorted order
			// would round the mean differently.
			var sum float64
			for _, x := range xs {
				sum += x
			}
			tm.Mean = units.Duration(sum / float64(len(xs)))
			sort.Float64s(xs)
			tm.P50 = units.Duration(stats.SortedPercentile(xs, 50))
			tm.P95 = units.Duration(stats.SortedPercentile(xs, 95))
			tm.P99 = units.Duration(stats.SortedPercentile(xs, 99))
		}
		// Delivered-performance share: the completion ratio discounted by
		// mean slowdown against the tenant's best-host ideal. Shedding and
		// slow placement both pull a tenant's share down, so the Jain index
		// reads routing quality, not just admission quotas.
		var share float64
		if tm.Offered > 0 && tm.Mean > 0 {
			share = float64(tm.Completed) / float64(tm.Offered) *
				float64(tm.MinService) / float64(tm.Mean)
		}
		shares = append(shares, share)
		res.Tenants = append(res.Tenants, tm)
	}
	res.Fairness = JainFairness(shares)

	makespan := f.spec.Duration
	if f.last > makespan {
		makespan = f.last
	}
	for h := range f.hosts {
		hs := &f.hosts[h]
		hm := HostMetrics{
			Name:        hs.spec.Name,
			Completions: hs.completions,
			Shed:        hs.shed,
			PeakQueue:   hs.peakQueue,
		}
		if denom := float64(hs.slots) * float64(makespan); denom > 0 {
			hm.Utilization = float64(hs.busy) / denom
		}
		res.Hosts = append(res.Hosts, hm)
	}
	return res
}
