package model

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/queueing"
	"repro/internal/units"
)

// This file is the unified N-tier memory evaluator. The paper's three
// platform families — the flat §VI.C baseline (Eq. 1/4), the tiered
// §VII hierarchy (Eq. 5), and the §VIII multi-socket extension — are the
// same mathematical object seen through different traffic splits: a set
// of memory tiers, each with its own unloaded latency, deliverable
// bandwidth, and queuing curve, loaded by some share of the workload's
// miss traffic. A Topology captures that object once and
// EvaluateTopology solves it with one scenario builder: the flat
// platform is the one-tier topology (Evaluate is its adapter), and
// every other memory-tier scenario (a tiered hierarchy, a NUMA
// local/remote split, die-stacked HBM, CXL-style far memory,
// sustained-vs-peak bandwidth derating) is a Topology value.

// SplitPolicy selects how LLC miss traffic is distributed across the
// tiers of a Topology.
type SplitPolicy int

const (
	// SplitFractions routes each tier its configured Share of the miss
	// population — the capacity-threshold split of the §VII tiered
	// hierarchy, where a tier's share is the hit rate of the capacity in
	// front of it. Shares must sum to 1.
	SplitFractions SplitPolicy = iota
	// SplitInterleave routes traffic by fixed-ratio interleaving: each
	// tier's Share is a non-negative weight (pages striped 3:1, say),
	// normalized to fractions. This is the page-placement knob of
	// hyperscale tiering studies (Mahar et al., arxiv 2303.08396).
	SplitInterleave
	// SplitLocalRemote is the NUMA-style split: tier 0 is the local
	// memory serving ALL traffic (local plus, by symmetry, inbound
	// remote), tier 1 is an interconnect traversed serially by the
	// RemoteFraction share on top of tier 0's loaded latency.
	SplitLocalRemote
)

// String names the policy for telemetry and canonical hashing.
func (sp SplitPolicy) String() string {
	switch sp {
	case SplitFractions:
		return "fractions"
	case SplitInterleave:
		return "interleave"
	case SplitLocalRemote:
		return "local-remote"
	}
	return fmt.Sprintf("policy(%d)", int(sp))
}

// MemTier is one memory tier of a Topology: a supply resource with its
// own unloaded latency, bandwidth, and queuing behaviour.
type MemTier struct {
	Name string
	// Share is this tier's slice of the miss traffic: a fraction in
	// [0,1] under SplitFractions (summing to 1 across tiers) or a
	// non-negative interleave weight under SplitInterleave. Ignored
	// under SplitLocalRemote, where Topology.RemoteFraction splits.
	Share float64
	// Compulsory is the tier's unloaded latency. For the interconnect
	// tier of a local/remote topology it is the remote hop adder and
	// may be zero.
	Compulsory units.Duration
	// PeakBW is the tier's theoretical peak bandwidth.
	PeakBW units.BytesPerSecond
	// Efficiency derates PeakBW to the bandwidth the tier actually
	// sustains — real channels deliver ~70–90% of peak under realistic
	// access streams, and modeling against peak understates queuing
	// delay and saturates too late. In (0,1]; 0 means 1.0 (no
	// derating).
	Efficiency float64
	// Queue maps the tier's bandwidth utilization (normalized to
	// sustained bandwidth) to queuing delay.
	Queue queueing.Curve
}

// SustainedBW returns the bandwidth the tier delivers after the
// efficiency derating. Efficiency 0 or 1 returns PeakBW bit-exactly.
func (t MemTier) SustainedBW() units.BytesPerSecond {
	if t.Efficiency == 0 || t.Efficiency == 1 {
		return t.PeakBW
	}
	return units.BytesPerSecond(float64(t.PeakBW) * t.Efficiency)
}

// Topology is an N-tier memory system under one processor: the unified
// supply side of the model. The zero policy is SplitFractions.
type Topology struct {
	Name      string
	Threads   int
	Cores     int
	CoreSpeed units.Hertz
	LineSize  units.Bytes
	// Policy distributes miss traffic across Tiers.
	Policy SplitPolicy
	// RemoteFraction is the share of misses that traverse the
	// interconnect under SplitLocalRemote (ignored otherwise).
	RemoteFraction float64
	Tiers          []MemTier
}

// Validate reports configuration errors, including NaN or infinite
// fields. Failures wrap ErrInvalidPlatform for errors.Is
// classification.
func (top Topology) Validate() error {
	if !finite(float64(top.CoreSpeed), float64(top.LineSize), top.RemoteFraction) {
		return fmt.Errorf("%w: Topology fields must be finite", ErrInvalidPlatform)
	}
	if top.Threads <= 0 || top.Cores <= 0 || top.CoreSpeed <= 0 || top.LineSize <= 0 {
		return fmt.Errorf("%w: Topology core parameters must be positive", ErrInvalidPlatform)
	}
	if len(top.Tiers) == 0 {
		return fmt.Errorf("%w: Topology needs at least one tier", ErrInvalidPlatform)
	}
	for i, t := range top.Tiers {
		if !finite(t.Share, float64(t.Compulsory), float64(t.PeakBW), t.Efficiency) {
			return fmt.Errorf("%w: tier %d (%s): fields must be finite", ErrInvalidPlatform, i, t.Name)
		}
		if t.PeakBW <= 0 || t.Queue == nil {
			return fmt.Errorf("%w: tier %d (%s): incomplete configuration", ErrInvalidPlatform, i, t.Name)
		}
		if t.Efficiency < 0 || t.Efficiency > 1 {
			return fmt.Errorf("%w: tier %d (%s): Efficiency must be in (0,1] (0 = 1.0)", ErrInvalidPlatform, i, t.Name)
		}
	}
	switch top.Policy {
	case SplitFractions:
		sum := 0.0
		for i, t := range top.Tiers {
			if t.Share < 0 || t.Share > 1 {
				return fmt.Errorf("%w: tier %d (%s): Share out of [0,1]", ErrInvalidPlatform, i, t.Name)
			}
			if t.Compulsory <= 0 {
				return fmt.Errorf("%w: tier %d (%s): Compulsory must be positive", ErrInvalidPlatform, i, t.Name)
			}
			sum += t.Share
		}
		if sum < 0.999 || sum > 1.001 {
			return fmt.Errorf("%w: tier shares sum to %.3f, want 1", ErrInvalidPlatform, sum)
		}
	case SplitInterleave:
		sum := 0.0
		for i, t := range top.Tiers {
			if t.Share < 0 {
				return fmt.Errorf("%w: tier %d (%s): interleave weight must be non-negative", ErrInvalidPlatform, i, t.Name)
			}
			if t.Compulsory <= 0 {
				return fmt.Errorf("%w: tier %d (%s): Compulsory must be positive", ErrInvalidPlatform, i, t.Name)
			}
			sum += t.Share
		}
		if sum <= 0 {
			return fmt.Errorf("%w: interleave weights sum to zero", ErrInvalidPlatform)
		}
	case SplitLocalRemote:
		if len(top.Tiers) != 2 {
			return fmt.Errorf("%w: local-remote topology needs exactly 2 tiers (local memory, interconnect), got %d",
				ErrInvalidPlatform, len(top.Tiers))
		}
		if top.Tiers[0].Compulsory <= 0 {
			return fmt.Errorf("%w: local tier Compulsory must be positive", ErrInvalidPlatform)
		}
		if top.Tiers[1].Compulsory < 0 {
			return fmt.Errorf("%w: interconnect Compulsory (remote adder) must be non-negative", ErrInvalidPlatform)
		}
		if top.RemoteFraction < 0 || top.RemoteFraction > 1 {
			return fmt.Errorf("%w: RemoteFraction must be in [0,1]", ErrInvalidPlatform)
		}
	default:
		return fmt.Errorf("%w: unknown split policy %v", ErrInvalidPlatform, top.Policy)
	}
	return nil
}

// visits returns the fraction of misses that visit each tier: Share
// under SplitFractions (passed through untouched), the normalized
// weights under SplitInterleave, and (1, RemoteFraction) under
// SplitLocalRemote — every miss queues at the local tier, by symmetry a
// socket's channels carry its local traffic plus its peers' inbound
// remote traffic, and the remote share also crosses the link.
func (top Topology) visits() []float64 {
	v := make([]float64, len(top.Tiers))
	switch top.Policy {
	case SplitLocalRemote:
		v[0], v[1] = 1, top.RemoteFraction
	case SplitInterleave:
		sum := 0.0
		for _, t := range top.Tiers {
			sum += t.Share
		}
		for i, t := range top.Tiers {
			v[i] = t.Share / sum
		}
	default:
		for i, t := range top.Tiers {
			v[i] = t.Share
		}
	}
	return v
}

// WithTierEfficiency returns a copy with every tier's efficiency set to
// eff — the one-knob sustained-vs-peak sweep.
func (top Topology) WithTierEfficiency(eff float64) Topology {
	tiers := make([]MemTier, len(top.Tiers))
	copy(tiers, top.Tiers)
	for i := range tiers {
		tiers[i].Efficiency = eff
	}
	top.Tiers = tiers
	top.Name = fmt.Sprintf("%s@eff=%.0f%%", top.Name, eff*100)
	return top
}

// Topology converts the flat platform to its one-tier topology.
func (pl Platform) Topology() Topology {
	return Topology{
		Name:      pl.Name,
		Threads:   pl.Threads,
		Cores:     pl.Cores,
		CoreSpeed: pl.CoreSpeed,
		LineSize:  pl.LineSize,
		Policy:    SplitFractions,
		Tiers: []MemTier{{
			Name:       "mem",
			Share:      1,
			Compulsory: pl.Compulsory,
			PeakBW:     pl.PeakBW,
			Queue:      pl.Queue,
		}},
	}
}

// DualSocketBaseline builds the two-socket version of the paper's
// baseline as a local/remote topology: each socket is the §VI.C.2
// single-socket platform (one socket describes the symmetric machine),
// behind a QPI-era interconnect with a 60 ns hop and 25 GB/s per
// direction per socket. The remote fraction starts at 0 (perfect
// locality); see WithRemoteFraction.
func DualSocketBaseline(curve queueing.Curve) Topology {
	single := BaselinePlatform(curve)
	return Topology{
		Name:      "dual-socket-baseline",
		Threads:   single.Threads,
		Cores:     single.Cores,
		CoreSpeed: single.CoreSpeed,
		LineSize:  single.LineSize,
		Policy:    SplitLocalRemote,
		Tiers: []MemTier{
			{Name: "dram", Compulsory: single.Compulsory, PeakBW: single.PeakBW, Queue: curve},
			{Name: "link", Compulsory: 60 * units.Nanosecond, PeakBW: units.GBpsOf(25), Queue: curve},
		},
	}
}

// WithRemoteFraction returns a copy with a different locality mix: the
// share of misses that traverse the interconnect under SplitLocalRemote.
func (top Topology) WithRemoteFraction(f float64) Topology {
	top.RemoteFraction = f
	top.Name = fmt.Sprintf("%s@remote=%.0f%%", top.Name, f*100)
	return top
}

// TopologyTierPoint is one tier's share of a solved topology point.
type TopologyTierPoint struct {
	Name string
	// MissPenalty is the tier's loaded latency. Under SplitLocalRemote
	// tier 1 reports the full remote-path latency (local tier's loaded
	// latency plus the loaded interconnect hop), since remote misses
	// traverse both resources serially.
	MissPenalty units.Duration
	// Demand is the bandwidth loading this tier's channels.
	Demand units.BytesPerSecond
	// Delivered is min(Demand, sustained bandwidth).
	Delivered units.BytesPerSecond
	// Utilization is Demand over the tier's sustained bandwidth.
	Utilization float64
	// Saturated reports the tier's bandwidth-limit check fired.
	Saturated bool
}

// TopologyPoint is the stable operating point of a workload class on an
// N-tier topology.
type TopologyPoint struct {
	CPI float64
	// EffectiveMP is the traffic-weighted miss penalty across tiers.
	EffectiveMP units.Duration
	Tiers       []TopologyTierPoint
	// BandwidthBound reports a saturated tier set (or bounded) the CPI.
	BandwidthBound bool
	// Limiter names the tier whose Eq. 4 bound won the regime choice,
	// if any.
	Limiter    string
	Iterations int
}

// EvaluateTopology finds the stable operating point of workload class p
// on an N-tier memory topology — the single evaluator behind Evaluate
// and every tiered, NUMA and die-stacked study. Aggregates planted in
// ctx by WithSolverStats record the solver telemetry, and cancellation
// is honored before any model evaluation.
func EvaluateTopology(ctx context.Context, p Params, top Topology) (TopologyPoint, error) {
	if err := p.Validate(); err != nil {
		return TopologyPoint{}, err
	}
	if err := top.Validate(); err != nil {
		return TopologyPoint{}, err
	}
	return evaluate(ctx, p, top)
}

// evaluate solves one validated (p, top) pair. Each tier i is visited
// by a fraction v_i of the misses (see Topology.visits) and queues on
// its v_i share of the demand, and the solve runs in CPI space on
// Eq. 5:
//
//	CPI = CPI_cache + MPI × BF × Σ v_i × MP_i(v_i × demand(CPI))
//
// Each tier then applies its Eq. 4 clamp when its share of the demand
// reaches 0.999 × its sustained bandwidth. The clamps run in tier
// order on the running CPI, so a clamp applied by one tier raises the
// CPI — and so lowers the demand — the next tier's check sees.
func evaluate(ctx context.Context, p Params, top Topology) (TopologyPoint, error) {
	if err := ctx.Err(); err != nil {
		return TopologyPoint{}, err
	}
	v := top.visits()
	// systems[i].PeakBW is tier i's sustained bandwidth.
	systems := make([]queueing.System, len(top.Tiers))
	tiers := make([]TopologyTierPoint, len(top.Tiers))
	// Bracket: CPI at zero queuing ≤ fixed point ≤ CPI at max stable
	// queuing on every tier.
	lo, hi := p.CPICache, p.CPICache
	for i, t := range top.Tiers {
		systems[i] = queueing.System{Compulsory: t.Compulsory, PeakBW: t.SustainedBW(), Curve: t.Queue}
		tiers[i].Name = t.Name
		lo += p.MPI() * v[i] * float64(t.Compulsory.Cycles(top.CoreSpeed)) * p.BF
		maxMP := t.Compulsory + t.Queue.MaxStableDelay()
		hi += p.MPI() * v[i] * float64(maxMP.Cycles(top.CoreSpeed)) * p.BF
	}
	threads := units.BytesPerSecond(top.Threads)

	// eq5 evaluates Eq. 5 with each tier's loaded latency implied by the
	// demand at candidate CPI cpi0, leaving each tier's state in tiers.
	eq5 := func(cpi0 float64) float64 {
		demandTotal := p.Demand(cpi0, top.CoreSpeed, top.LineSize) * threads
		cpi := p.CPICache
		for i, sys := range systems {
			tp := &tiers[i]
			tp.Demand = demandTotal * units.BytesPerSecond(v[i])
			tp.MissPenalty = sys.LoadedLatency(tp.Demand)
			tp.Utilization = sys.Utilization(tp.Demand)
			cpi += p.MPI() * v[i] * float64(tp.MissPenalty.Cycles(top.CoreSpeed)) * p.BF
		}
		return cpi
	}
	x, cpi, iters, err := bisect(lo, hi, eq5)
	if err != nil {
		recordSolve(ctx, iters, false, false, 0)
		return TopologyPoint{Iterations: iters}, err
	}
	residual := math.Abs(cpi - x)

	bound, limiter := false, ""
	for i, sys := range systems {
		demandTotal := p.Demand(cpi, top.CoreSpeed, top.LineSize) * threads
		if float64(demandTotal*units.BytesPerSecond(v[i])) < float64(sys.PeakBW)*0.999 {
			continue
		}
		tiers[i].Saturated = true
		bound = true
		share := p.BytesPerInstruction(top.LineSize) * v[i]
		if bwCPI := share * float64(top.CoreSpeed) / (float64(sys.PeakBW) / float64(top.Threads)); bwCPI > cpi {
			cpi, limiter = bwCPI, tiers[i].Name
		}
	}
	converged := finite(cpi)
	recordSolve(ctx, iters, bound, converged, residual)
	if !converged {
		return TopologyPoint{Iterations: iters}, ErrNoConvergence
	}

	eff := 0.0
	for i := range tiers {
		tiers[i].Delivered = minBW(tiers[i].Demand, systems[i].PeakBW)
		eff += v[i] * float64(tiers[i].MissPenalty)
	}
	if top.Policy == SplitLocalRemote {
		// A remote miss traverses the local tier and the link serially;
		// report the whole remote path.
		tiers[1].MissPenalty += tiers[0].MissPenalty
	}
	return TopologyPoint{
		CPI:            cpi,
		EffectiveMP:    units.Duration(eff),
		Tiers:          tiers,
		BandwidthBound: bound,
		Limiter:        limiter,
		Iterations:     iters,
	}, nil
}

// EvaluateTopologyAll evaluates the full cross product of classes ×
// topologies over a bounded worker pool — the point-grid path used by
// sweeps and the experiment engine. Points are returned as
// [class][topology]; the error is the first failure in that order,
// wrapped with the failing (class, topology) pair so batch callers can
// report which grid cell broke.
func EvaluateTopologyAll(ctx context.Context, classes []Params, tops []Topology) ([][]TopologyPoint, error) {
	topErrs := make([]error, len(tops))
	for j, top := range tops {
		topErrs[j] = top.Validate()
	}
	return evaluateGrid(ctx, classes, tops, topErrs)
}

// evaluateGrid is EvaluateTopologyAll with each topology's validation
// error already known (nil for one the caller validated), so every
// input is validated once per call. Every cell is validated before any
// is solved: an invalid grid records no telemetry.
func evaluateGrid(ctx context.Context, classes []Params, tops []Topology, topErrs []error) ([][]TopologyPoint, error) {
	for i, p := range classes {
		pErr := p.Validate()
		for j, top := range tops {
			// Abandoned grids (a server-side deadline, a disconnected
			// sweep client) stop between points.
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if err := cmp.Or(pErr, topErrs[j]); err != nil {
				return nil, gridErr(i, p, j, top.Name, err)
			}
		}
	}
	grid := make([][]TopologyPoint, len(classes))
	for i := range grid {
		grid[i] = make([]TopologyPoint, len(tops))
	}
	n := len(classes) * len(tops)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Cells claimed after a cancellation return the context
			// error from evaluate without solving.
			for k := int(next.Add(1)) - 1; k < n; k = int(next.Add(1)) - 1 {
				i, j := k/len(tops), k%len(tops)
				grid[i][j], errs[k] = evaluate(ctx, classes[i], tops[j])
			}
		}()
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			i, j := k/len(tops), k%len(tops)
			return nil, gridErr(i, classes[i], j, tops[j].Name, err)
		}
	}
	return grid, nil
}

func minBW(a, b units.BytesPerSecond) units.BytesPerSecond {
	if a < b {
		return a
	}
	return b
}

// gridErr wraps a batch failure with the indices and names of the grid
// cell that produced it, so wire-level batch errors are actionable.
func gridErr(i int, p Params, j int, platform string, err error) error {
	return fmt.Errorf("class %d (%s) × platform %d (%s): %w", i, p.Name, j, platform, err)
}
