// Package cluster is a deterministic discrete-event fleet simulator:
// N simulated hosts, each backed by an analytic memory topology
// (model.Topology — flat, tiered, NUMA, or die-stacked), serving open-loop
// Poisson request streams from the paper's Table 6 workload classes under
// one shared clock.
//
// The paper quantifies memory latency/bandwidth sensitivity one machine
// at a time; this package asks the fleet-level question the ROADMAP's
// north star poses: once traffic, routing, and admission are real, which
// tenants should land on which memory tiers? Each (tenant, host) pair is
// priced once per spec through model.EvaluateTopology — the predicted
// CPI sets the base service time, the predicted bandwidth demand sets
// the request's footprint against the host's sustained bandwidth — and
// a single-clock event loop plays the traffic through routing policies,
// token-bucket admission, and FCFS multi-slot hosts. The loop replays
// internal/workgen's arrival Stream (each tenant is a one-scenario
// Poisson client) against a 4-ary min-heap of pending completions; the
// policies of one request share a single Stream, each policy's fleet
// replaying it a chunk at a time with its own hosts and heap.
//
// The determinism contract matches internal/sim: the same Spec and seed
// produce a bit-identical event order (asserted by folding every handled
// event into an FNV-64a EventHash) and bit-identical metrics, regardless
// of walltime or platform.
package cluster

import (
	"fmt"
	"math"

	"repro/internal/model"
	"repro/internal/params"
	"repro/internal/queueing"
	"repro/internal/units"
)

// HostSpec is one simulated machine: an analytic memory topology plus
// the serving knobs the fleet layer adds.
type HostSpec struct {
	Name string
	// Topology is the host's memory system; it must validate under
	// model.Topology.Validate.
	Topology model.Topology
	// Slots is the number of requests in service at once; 0 means the
	// topology's hardware thread count.
	Slots int
	// AdmitRate is the token-bucket refill rate in requests/second;
	// 0 disables admission control on this host.
	AdmitRate float64
	// AdmitBurst is the bucket depth in tokens; 0 means AdmitRate/4
	// (min 1) when admission is enabled.
	AdmitBurst float64
}

// TenantSpec is one workload class offering an open-loop Poisson
// request stream to the fleet.
type TenantSpec struct {
	Name string
	// Params are the tenant's Eq. 1/4 components (e.g. a Table 6 class).
	Params model.Params
	// Rate is the offered load in requests/second.
	Rate float64
	// Work is the instruction count of one request; the base service
	// time on a host is Work × CPI / CoreSpeed.
	Work float64
}

// Spec describes one fleet simulation.
type Spec struct {
	Hosts   []HostSpec
	Tenants []TenantSpec
	Policy  Policy
	// Duration is the arrival horizon; queues drain to completion after
	// it so every admitted request is measured.
	Duration units.Duration
	// Warmup discards requests arriving before it from the metrics.
	Warmup units.Duration
	// Seed derives every tenant's arrival stream.
	Seed uint64
	// MaxEvents bounds the event loop; 0 means defaultMaxEvents.
	MaxEvents int
}

// defaultMaxEvents is the runaway backstop: every request costs at most
// two events, so this admits ~5M requests per run.
const defaultMaxEvents = 10_000_000

// Validate reports configuration errors. Spec-shape failures wrap
// model.ErrInvalidPlatform and tenant-parameter failures wrap
// model.ErrInvalidParams, so the serving layer classifies both as 400s.
func (s Spec) Validate() error {
	if len(s.Hosts) == 0 {
		return fmt.Errorf("%w: cluster needs at least one host", model.ErrInvalidPlatform)
	}
	if len(s.Tenants) == 0 {
		return fmt.Errorf("%w: cluster needs at least one tenant", model.ErrInvalidParams)
	}
	if !finite(float64(s.Duration)) || s.Duration <= 0 {
		return fmt.Errorf("%w: cluster duration must be positive and finite", model.ErrInvalidPlatform)
	}
	if !finite(float64(s.Warmup)) || s.Warmup < 0 || s.Warmup >= s.Duration {
		return fmt.Errorf("%w: cluster warmup must be in [0, duration)", model.ErrInvalidPlatform)
	}
	if s.MaxEvents < 0 {
		return fmt.Errorf("%w: cluster max events must be non-negative", model.ErrInvalidPlatform)
	}
	if !s.Policy.valid() {
		return fmt.Errorf("%w: unknown routing policy %d", model.ErrInvalidPlatform, int(s.Policy))
	}
	for i, h := range s.Hosts {
		if err := h.Topology.Validate(); err != nil {
			return fmt.Errorf("host %d (%s): %w", i, h.Name, err)
		}
		if !finite(h.AdmitRate) || !finite(h.AdmitBurst) || h.Slots < 0 || h.AdmitRate < 0 || h.AdmitBurst < 0 {
			return fmt.Errorf("%w: host %d (%s): slots and admission knobs must be non-negative and finite",
				model.ErrInvalidPlatform, i, h.Name)
		}
	}
	for i, t := range s.Tenants {
		if err := t.Params.Validate(); err != nil {
			return fmt.Errorf("tenant %d (%s): %w", i, t.Name, err)
		}
		if !finite(t.Rate) || !finite(t.Work) || t.Rate <= 0 || t.Work <= 0 {
			return fmt.Errorf("%w: tenant %d (%s): rate and work must be positive and finite",
				model.ErrInvalidParams, i, t.Name)
		}
	}
	return nil
}

// finite reports whether x is neither NaN nor ±Inf.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// slots resolves the host's effective service slot count.
func (h HostSpec) slots() int {
	if h.Slots > 0 {
		return h.Slots
	}
	return h.Topology.Threads
}

// burst resolves the token-bucket depth when admission is enabled.
func (h HostSpec) burst() float64 {
	if h.AdmitBurst > 0 {
		return h.AdmitBurst
	}
	b := h.AdmitRate / 4
	if b < 1 {
		b = 1
	}
	return b
}

// DefaultWork is the default request size in instructions: ~tens of
// milliseconds of service on a baseline core, the right scale for the
// big-data query slices the paper's Fig. 2 time series shows.
const DefaultWork = 5e7

// defaultCurve is the analytic queuing curve every default tier uses —
// the same MM1{6 ns, 0.95} the serving layer defaults to.
func defaultCurve() queueing.Curve {
	return queueing.MM1{Service: 6 * units.Nanosecond, ULimit: 0.95}
}

// fleetTopology fills the core side of a default-fleet topology from
// the paper's §VI.C.2 baseline.
func fleetTopology(name string, policy model.SplitPolicy, tiers []model.MemTier) model.Topology {
	b := params.Baseline()
	return model.Topology{
		Name:      name,
		Threads:   b.Cores * b.ThreadsPerCore,
		Cores:     b.Cores,
		CoreSpeed: b.CoreSpeed,
		LineSize:  b.LineSize,
		Policy:    policy,
		Tiers:     tiers,
	}
}

// DefaultFleet is the 8-host heterogeneous reference fleet used by the
// registered experiments and as the wire default: three plain-DRAM
// hosts (the paper's baseline), three die-stacked hosts serving 80% of
// misses from an HBM-class tier at 4× bandwidth, and two CXL hosts
// interleaving a quarter of traffic onto a far pool at 3× latency.
// Latency-sensitive tenants want the DRAM/HBM hosts; bandwidth-hungry
// tenants want the HBM hosts; nobody wants the CXL hosts — which is
// exactly the placement problem the routing policies compete on.
func DefaultFleet() []HostSpec {
	b := params.Baseline()
	peak := b.EffectiveBandwidth()
	curve := defaultCurve()
	var hosts []HostSpec
	for i := 0; i < 3; i++ {
		hosts = append(hosts, HostSpec{
			Name: fmt.Sprintf("dram-%d", i),
			Topology: fleetTopology("dram", model.SplitFractions, []model.MemTier{
				{Name: "DRAM", Share: 1, Compulsory: b.Compulsory, PeakBW: peak, Queue: curve},
			}),
		})
	}
	for i := 0; i < 3; i++ {
		hosts = append(hosts, HostSpec{
			Name: fmt.Sprintf("hbm-%d", i),
			Topology: fleetTopology("hbm", model.SplitFractions, []model.MemTier{
				{Name: "HBM", Share: 0.8, Compulsory: b.Compulsory, PeakBW: 4 * peak, Queue: curve},
				{Name: "DRAM", Share: 0.2, Compulsory: b.Compulsory, PeakBW: peak, Queue: curve},
			}),
		})
	}
	for i := 0; i < 2; i++ {
		hosts = append(hosts, HostSpec{
			Name: fmt.Sprintf("cxl-%d", i),
			Topology: fleetTopology("cxl", model.SplitInterleave, []model.MemTier{
				{Name: "DRAM", Share: 3, Compulsory: b.Compulsory, PeakBW: peak, Queue: curve},
				{Name: "CXL", Share: 1, Compulsory: 3 * b.Compulsory, PeakBW: peak, Queue: curve},
			}),
		})
	}
	return hosts
}

// DefaultTenants is the three-class reference tenant set: the Table 6
// class means offering a mixed load that keeps the default fleet
// moderately busy. Enterprise is the latency-sensitive tenant (highest
// BF), HPC the bandwidth-sensitive one (highest MPKI), Big Data sits
// between.
func DefaultTenants() []TenantSpec {
	var out []TenantSpec
	rates := []float64{600, 500, 400} // Enterprise, Big Data, HPC
	for i, t := range params.Table6 {
		out = append(out, TenantSpec{
			Name: t.Workload,
			Params: model.Params{
				Name:     t.Workload,
				CPICache: t.CPICache,
				BF:       t.BF,
				MPKI:     t.MPKI,
				WBR:      t.WBR,
			},
			Rate: rates[i],
			Work: DefaultWork,
		})
	}
	return out
}
