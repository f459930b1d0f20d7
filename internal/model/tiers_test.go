package model

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/units"
)

// Behaviour of the tiered (Eq. 5) and NUMA (§VIII) shapes of a
// Topology: degenerate shapes reduce to the flat Eq. 1/4 model, the
// shapes' own validation rules, and the directions the paper's story
// depends on (far tiers and remote hops cost CPI, starved tiers and
// links bound the pipeline).

// consistencyTol bounds the CPI disagreement between two topologies
// that describe the same machine through different splits: both solve
// Eq. 5 in CPI space to solveTol, so they differ by rounding only.
const consistencyTol = 1e-9

// fractionTopology builds a fraction-split topology on pl's core side.
func fractionTopology(pl Platform, tiers ...MemTier) Topology {
	return Topology{
		Name:      "test",
		Threads:   pl.Threads,
		Cores:     pl.Cores,
		CoreSpeed: pl.CoreSpeed,
		LineSize:  pl.LineSize,
		Tiers:     tiers,
	}
}

// halves splits pl's memory into two identical tiers, each carrying half
// the misses on half the bandwidth: every tier sees pl's utilization and
// clamps at pl's Eq. 4 CPI, so the topology is pl in disguise.
func halves(pl Platform) Topology {
	half := MemTier{Share: 0.5, Compulsory: pl.Compulsory, PeakBW: pl.PeakBW / 2, Queue: pl.Queue}
	a, b := half, half
	a.Name, b.Name = "a", "b"
	return fractionTopology(pl, a, b)
}

// allLocal is a dual-socket machine whose sockets never reference each
// other; one socket is exactly pl.
func allLocal(pl Platform) Topology {
	top := fractionTopology(pl,
		MemTier{Name: "dram", Compulsory: pl.Compulsory, PeakBW: pl.PeakBW, Queue: pl.Queue},
		MemTier{Name: "link", Compulsory: 60 * units.Nanosecond, PeakBW: units.GBpsOf(25), Queue: pl.Queue})
	top.Policy = SplitLocalRemote
	return top
}

// consistencyCases spans both regimes: the paper's classes on the
// baseline platform stay latency limited; the bandwidth-hungry class on
// a starved platform saturates the channels and must clamp to the same
// Eq. 4 CPI in every shape.
func consistencyCases() []struct {
	name string
	p    Params
	pl   Platform
} {
	starved := testPlatform().WithPeakBW(units.GBpsOf(10))
	return []struct {
		name string
		p    Params
		pl   Platform
	}{
		{"enterprise/latency-limited", Params{Name: "Enterprise", CPICache: 1.07, BF: 0.42, MPKI: 1.3, WBR: 0.45}, testPlatform()},
		{"bigdata/latency-limited", Params{Name: "Big Data", CPICache: 0.91, BF: 0.21, MPKI: 5.5, WBR: 0.92}, testPlatform()},
		{"hpc/bandwidth-limited", Params{Name: "HPC", CPICache: 0.50, BF: 0.50, MPKI: 20, WBR: 0.50}, starved},
	}
}

// degenerateMatches compares a degenerate topology's point with the flat
// model's: CPI, regime, and the first tier's latency and demand.
func degenerateMatches(t *testing.T, what string, op OperatingPoint, pt TopologyPoint) {
	t.Helper()
	if math.Abs(pt.CPI-op.CPI) > consistencyTol*op.CPI {
		t.Errorf("CPI: %s %.12f vs flat %.12f", what, pt.CPI, op.CPI)
	}
	if pt.BandwidthBound != op.BandwidthBound {
		t.Errorf("BandwidthBound: %s %v vs flat %v", what, pt.BandwidthBound, op.BandwidthBound)
	}
	if d := math.Abs(float64(pt.Tiers[0].MissPenalty - op.MissPenalty)); d > 1e-6 {
		t.Errorf("miss penalty: %s %v vs flat %v", what, pt.Tiers[0].MissPenalty, op.MissPenalty)
	}
	if d := math.Abs(float64(pt.EffectiveMP - op.MissPenalty)); d > 1e-6 {
		t.Errorf("effective MP: %s %v vs flat %v", what, pt.EffectiveMP, op.MissPenalty)
	}
}

func TestTieredDegeneratesToEvaluate(t *testing.T) {
	for _, tc := range consistencyCases() {
		t.Run(tc.name, func(t *testing.T) {
			op, err := Evaluate(context.Background(), tc.p, tc.pl)
			if err != nil {
				t.Fatal(err)
			}
			pt, err := EvaluateTopology(context.Background(), tc.p, halves(tc.pl))
			if err != nil {
				t.Fatal(err)
			}
			degenerateMatches(t, "halves", op, pt)
			for i, tier := range pt.Tiers {
				if d := math.Abs(float64(2*tier.Demand-op.Demand)) / float64(op.Demand); d > consistencyTol {
					t.Errorf("tier %d demand %v, want half of flat %v", i, tier.Demand, op.Demand)
				}
			}
		})
	}
}

func TestNUMADegeneratesToEvaluate(t *testing.T) {
	for _, tc := range consistencyCases() {
		t.Run(tc.name, func(t *testing.T) {
			op, err := Evaluate(context.Background(), tc.p, tc.pl)
			if err != nil {
				t.Fatal(err)
			}
			pt, err := EvaluateTopology(context.Background(), tc.p, allLocal(tc.pl))
			if err != nil {
				t.Fatal(err)
			}
			degenerateMatches(t, "numa", op, pt)
			if d := math.Abs(float64(pt.Tiers[0].Demand-op.Demand)) / float64(op.Demand); d > consistencyTol {
				t.Errorf("demand: numa %v vs flat %v", pt.Tiers[0].Demand, op.Demand)
			}
			// Perfect locality: no link traffic, and every miss pays only
			// the local latency.
			link := pt.Tiers[1]
			if link.Demand != 0 || link.Utilization != 0 {
				t.Errorf("zero-remote link demand = %v (util %v), want 0", link.Demand, link.Utilization)
			}
			if pt.EffectiveMP != pt.Tiers[0].MissPenalty {
				t.Errorf("EffectiveMP %v != local MP %v with RemoteFraction 0", pt.EffectiveMP, pt.Tiers[0].MissPenalty)
			}
		})
	}
}

func TestTieredValidate(t *testing.T) {
	pl := testPlatform()
	good := fractionTopology(pl, MemTier{Name: "DRAM", Share: 1, Compulsory: pl.Compulsory, PeakBW: pl.PeakBW, Queue: pl.Queue})
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Topology{
		fractionTopology(pl), // no tiers
		fractionTopology(pl, MemTier{Name: "x", Share: 0.5, Compulsory: 75, PeakBW: 1e9, Queue: pl.Queue}), // shares don't sum to 1
		fractionTopology(pl, MemTier{Name: "x", Share: 1.5, Compulsory: 75, PeakBW: 1e9, Queue: pl.Queue}), // share out of range
		fractionTopology(pl, MemTier{Name: "x", Share: 1, Compulsory: 0, PeakBW: 1e9, Queue: pl.Queue}),    // bad latency
		fractionTopology(pl, MemTier{Name: "x", Share: 1, Compulsory: 75, PeakBW: 0, Queue: pl.Queue}),     // bad bandwidth
		fractionTopology(pl, MemTier{Name: "x", Share: 1, Compulsory: 75, PeakBW: 1e9, Queue: nil}),        // no curve
		{Tiers: []MemTier{{Name: "x", Share: 1, Compulsory: 75, PeakBW: 1e9, Queue: pl.Queue}}},            // bad core params
	}
	for i, top := range bad {
		if err := top.Validate(); !errors.Is(err, ErrInvalidPlatform) {
			t.Errorf("case %d: err = %v, want ErrInvalidPlatform", i, err)
		}
	}
}

func TestSingleTierMatchesEvaluate(t *testing.T) {
	// Eq. 5 with one tier is Eq. 1; an interleave weight of 3 on the only
	// tier normalizes to the same visit fraction of exactly 1.
	pl := testPlatform()
	top := fractionTopology(pl, MemTier{Name: "DRAM", Share: 3, Compulsory: pl.Compulsory, PeakBW: pl.PeakBW, Queue: pl.Queue})
	top.Policy = SplitInterleave
	for _, p := range allClasses() {
		single, err := Evaluate(context.Background(), p, pl)
		if err != nil {
			t.Fatal(err)
		}
		tiered, err := EvaluateTopology(context.Background(), p, top)
		if err != nil {
			t.Fatal(err)
		}
		if !bitEq(single.CPI, tiered.CPI) {
			t.Fatalf("%s: single %v vs one-tier interleave %v", p.Name, single.CPI, tiered.CPI)
		}
	}
}

func TestTieredDegradesWithFarTier(t *testing.T) {
	pl := testPlatform()
	far := MemTier{Name: "PMEM", Compulsory: pl.Compulsory * 3, PeakBW: pl.PeakBW, Queue: pl.Queue}
	near := MemTier{Name: "DRAM", Compulsory: pl.Compulsory, PeakBW: pl.PeakBW, Queue: pl.Queue}
	p := enterpriseClass()

	cpiAt := func(hit float64) float64 {
		n, f := near, far
		n.Share, f.Share = hit, 1-hit
		pt, err := EvaluateTopology(context.Background(), p, fractionTopology(pl, n, f))
		if err != nil {
			t.Fatal(err)
		}
		return pt.CPI
	}
	// For a latency-sensitive class with ample bandwidth, more far-tier
	// traffic strictly hurts.
	prev := cpiAt(1.0)
	for _, hit := range []float64{0.8, 0.6, 0.4, 0.2, 0.0} {
		cur := cpiAt(hit)
		if cur < prev-1e-9 {
			t.Fatalf("CPI decreased as far-tier share grew: %v -> %v at hit %v", prev, cur, hit)
		}
		prev = cur
	}
}

func TestTieredEq5HandComputed(t *testing.T) {
	// Zero-queue curves make Eq. 5 closed-form:
	// CPI = CPI_cache + MPI×(f1×MP1 + f2×MP2)×BF.
	pl := testPlatform()
	zero := zeroQueue{}
	top := fractionTopology(pl,
		MemTier{Name: "near", Share: 0.8, Compulsory: 75, PeakBW: pl.PeakBW, Queue: zero},
		MemTier{Name: "far", Share: 0.2, Compulsory: 225, PeakBW: pl.PeakBW, Queue: zero},
	)
	p := enterpriseClass()
	pt, err := EvaluateTopology(context.Background(), p, top)
	if err != nil {
		t.Fatal(err)
	}
	mp1 := units.Duration(75).Cycles(pl.CoreSpeed)
	mp2 := units.Duration(225).Cycles(pl.CoreSpeed)
	want := p.CPICache + p.MPI()*(0.8*float64(mp1)+0.2*float64(mp2))*p.BF
	if math.Abs(pt.CPI-want) > 1e-6 {
		t.Fatalf("Eq.5 = %v, want %v", pt.CPI, want)
	}
	if got := pt.EffectiveMP.Nanoseconds(); math.Abs(got-(0.8*75+0.2*225)) > 1e-9 {
		t.Fatalf("effective MP = %v ns, want the share-weighted 105", got)
	}
}

// zeroQueue is a Curve with no queuing at all.
type zeroQueue struct{}

func (zeroQueue) Delay(float64) units.Duration   { return 0 }
func (zeroQueue) MaxStableDelay() units.Duration { return 0 }

func TestTieredBandwidthBoundTier(t *testing.T) {
	// Starve the far tier's bandwidth: HPC-class traffic through it must
	// flag bandwidth-bound, name the far tier as the limiter, and clamp
	// CPI to that tier's Eq. 4 value for its share of the traffic.
	pl := testPlatform()
	top := fractionTopology(pl,
		MemTier{Name: "near", Share: 0.5, Compulsory: pl.Compulsory, PeakBW: pl.PeakBW, Queue: pl.Queue},
		MemTier{Name: "far", Share: 0.5, Compulsory: pl.Compulsory * 3, PeakBW: units.GBpsOf(2), Queue: pl.Queue},
	)
	p := hpcClass()
	pt, err := EvaluateTopology(context.Background(), p, top)
	if err != nil {
		t.Fatal(err)
	}
	if !pt.BandwidthBound || pt.Limiter != "far" || !pt.Tiers[1].Saturated {
		t.Fatalf("starved far tier must bound the point: bound=%v limiter=%q far=%+v",
			pt.BandwidthBound, pt.Limiter, pt.Tiers[1])
	}
	perThread := float64(units.GBpsOf(2)) / float64(pl.Threads)
	want := p.BytesPerInstruction(pl.LineSize) * 0.5 * float64(pl.CoreSpeed) / perThread
	if math.Abs(pt.CPI-want) > 1e-9*want {
		t.Fatalf("CPI = %v, want the far tier's Eq. 4 clamp %v", pt.CPI, want)
	}
	if pt.Tiers[1].Delivered != units.GBpsOf(2) {
		t.Fatalf("far tier delivers %v, want its sustained 2 GB/s", pt.Tiers[1].Delivered)
	}
}

func TestTieredRejectsBadInput(t *testing.T) {
	pl := testPlatform()
	top := fractionTopology(pl, MemTier{Name: "DRAM", Share: 1, Compulsory: pl.Compulsory, PeakBW: pl.PeakBW, Queue: pl.Queue})
	if _, err := EvaluateTopology(context.Background(), Params{}, top); !errors.Is(err, ErrInvalidParams) {
		t.Fatalf("err = %v, want ErrInvalidParams", err)
	}
	if _, err := EvaluateTopology(context.Background(), bigDataClass(), fractionTopology(pl)); !errors.Is(err, ErrInvalidPlatform) {
		t.Fatalf("err = %v, want ErrInvalidPlatform", err)
	}
}

func dualSocket() Topology {
	return DualSocketBaseline(testCurve())
}

func TestNUMAValidate(t *testing.T) {
	if err := dualSocket().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Topology){
		func(n *Topology) { n.Threads = 0 },
		func(n *Topology) { n.CoreSpeed = 0 },
		func(n *Topology) { n.Tiers = n.Tiers[:1] },
		func(n *Topology) { n.Tiers[0].Compulsory = 0 },
		func(n *Topology) { n.Tiers[1].Compulsory = -1 },
		func(n *Topology) { n.Tiers[0].PeakBW = 0 },
		func(n *Topology) { n.Tiers[1].PeakBW = 0 },
		func(n *Topology) { n.RemoteFraction = 1.5 },
		func(n *Topology) { n.Tiers[0].Queue = nil },
	}
	for i, mutate := range bad {
		np := dualSocket()
		np.Tiers = append([]MemTier(nil), np.Tiers...)
		mutate(&np)
		if err := np.Validate(); !errors.Is(err, ErrInvalidPlatform) {
			t.Errorf("case %d: err = %v, want ErrInvalidPlatform", i, err)
		}
	}
}

func TestNUMAZeroRemoteMatchesSingleSocket(t *testing.T) {
	// With perfect locality, each socket behaves exactly like the
	// single-socket baseline.
	np := dualSocket()
	for _, p := range allClasses() {
		single, err := Evaluate(context.Background(), p, testPlatform())
		if err != nil {
			t.Fatal(err)
		}
		numa, err := EvaluateTopology(context.Background(), p, np)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(single.CPI-numa.CPI) > consistencyTol*single.CPI {
			t.Fatalf("%s: single %v vs NUMA(local) %v", p.Name, single.CPI, numa.CPI)
		}
	}
}

func TestNUMARemoteAccessesCostMore(t *testing.T) {
	np := dualSocket()
	p := enterpriseClass()
	prev := -1.0
	for _, rf := range []float64{0, 0.25, 0.5} {
		pt, err := EvaluateTopology(context.Background(), p, np.WithRemoteFraction(rf))
		if err != nil {
			t.Fatal(err)
		}
		if pt.CPI <= prev {
			t.Fatalf("CPI must rise with remote fraction: %v at rf=%v after %v", pt.CPI, rf, prev)
		}
		prev = pt.CPI
	}
}

func TestNUMAEffectiveMPIsWeighted(t *testing.T) {
	np := dualSocket().WithRemoteFraction(0.5)
	pt, err := EvaluateTopology(context.Background(), enterpriseClass(), np)
	if err != nil {
		t.Fatal(err)
	}
	local, remote := pt.Tiers[0].MissPenalty, pt.Tiers[1].MissPenalty
	want := 0.5*float64(local) + 0.5*float64(remote)
	if math.Abs(float64(pt.EffectiveMP)-want) > 1e-6 {
		t.Fatalf("effective MP = %v, want weighted %v", pt.EffectiveMP, want)
	}
	if remote < local+50*units.Nanosecond {
		t.Fatalf("remote MP (%v) must include the ~60ns hop over local (%v)", remote, local)
	}
}

func TestNUMAMatchesPaperTable3Latencies(t *testing.T) {
	// The paper's measured Structured-Data MPs (Table 3: 402 cycles at
	// 2.1 GHz ≈ 191 ns) embed dual-socket remote accesses. A uniform
	// interleave on the dual-socket baseline must land in that regime.
	np := dualSocket().WithRemoteFraction(UniformInterleave(2))
	pt, err := EvaluateTopology(context.Background(), bigDataClass(), np)
	if err != nil {
		t.Fatal(err)
	}
	if ns := pt.EffectiveMP.Nanoseconds(); ns < 95 || ns > 200 {
		t.Fatalf("interleaved effective MP = %v ns, want in the paper's loaded NUMA regime", ns)
	}
}

func TestNUMALinkSaturation(t *testing.T) {
	// Choke the interconnect: HPC with half-remote traffic must become
	// link-bound.
	np := dualSocket().WithRemoteFraction(0.5)
	np.Tiers = append([]MemTier(nil), np.Tiers...)
	np.Tiers[1].PeakBW = units.GBpsOf(3)
	pt, err := EvaluateTopology(context.Background(), hpcClass(), np)
	if err != nil {
		t.Fatal(err)
	}
	if !pt.BandwidthBound || pt.Limiter != "link" || !pt.Tiers[1].Saturated {
		t.Fatalf("choked link must bound the operating point: bound=%v limiter=%q", pt.BandwidthBound, pt.Limiter)
	}
	wide, err := EvaluateTopology(context.Background(), hpcClass(), dualSocket().WithRemoteFraction(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if pt.CPI <= wide.CPI {
		t.Fatalf("choked link CPI (%v) must exceed wide link (%v)", pt.CPI, wide.CPI)
	}
}

func TestNUMAUniformInterleave(t *testing.T) {
	for sockets, want := range map[int]float64{1: 0, 2: 0.5, 4: 0.75} {
		if got := UniformInterleave(sockets); got != want {
			t.Errorf("%d-socket interleave = %v, want %v", sockets, got, want)
		}
	}
}

func TestNUMARejectsBadInput(t *testing.T) {
	if _, err := EvaluateTopology(context.Background(), Params{}, dualSocket()); !errors.Is(err, ErrInvalidParams) {
		t.Fatalf("err = %v, want ErrInvalidParams", err)
	}
	np := dualSocket()
	np.Tiers = append([]MemTier(nil), np.Tiers...)
	np.Tiers[1].Queue = nil
	if _, err := EvaluateTopology(context.Background(), bigDataClass(), np); !errors.Is(err, ErrInvalidPlatform) {
		t.Fatalf("err = %v, want ErrInvalidPlatform", err)
	}
}

func TestNUMALatencySensitivityOrdering(t *testing.T) {
	// The class story survives the NUMA extension: going from perfect
	// locality to uniform interleave hurts enterprise (latency-bound)
	// proportionally more than it hurts HPC via latency alone.
	np := dualSocket()
	relCost := func(p Params) float64 {
		local, err := EvaluateTopology(context.Background(), p, np)
		if err != nil {
			t.Fatal(err)
		}
		inter, err := EvaluateTopology(context.Background(), p, np.WithRemoteFraction(0.5))
		if err != nil {
			t.Fatal(err)
		}
		return inter.CPI/local.CPI - 1
	}
	ent, hpc := relCost(enterpriseClass()), relCost(hpcClass())
	if ent <= hpc {
		t.Fatalf("enterprise NUMA cost (%v) must exceed HPC's (%v)", ent, hpc)
	}
}

// UniformInterleave returns the remote fraction of an address space
// interleaved evenly across sockets: (sockets−1)/sockets.
func UniformInterleave(sockets int) float64 {
	if sockets <= 1 {
		return 0
	}
	return float64(sockets-1) / float64(sockets)
}
