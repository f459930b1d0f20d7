package queueing_test

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/queueing"
	"repro/internal/units"
)

// The loaded-latency fixed point a System implies — the miss penalty at
// which the queuing delay of the demand equals MP − compulsory — is
// solved by the model's topology evaluator, so these tests drive a
// one-tier topology over the System's curve and check the fixed point
// it reports.

var mm1 = queueing.MM1{Service: 6 * units.Nanosecond, ULimit: 0.95}

// oneTier is a single memory tier with the given compulsory latency and
// bandwidth behind threads cores at cps.
func oneTier(threads int, cps units.Hertz, compulsory units.Duration, peak units.BytesPerSecond, curve queueing.Curve) model.Topology {
	return model.Topology{
		Name: "sys", Threads: threads, Cores: threads, CoreSpeed: cps, LineSize: 64,
		Tiers: []model.MemTier{{Name: "mem", Share: 1, Compulsory: compulsory, PeakBW: peak, Queue: curve}},
	}
}

// constantDemand is a class whose demand does not depend on the miss
// penalty: with BF = 0 the CPI is CPI_cache whatever MP is, and
// 312.5 MPKI × 64 B is 20 bytes per instruction, so one thread at
// 1 GHz and CPI 1 demands exactly gbps GB/s.
func constantDemand(gbps float64) model.Params {
	return model.Params{Name: "constant", CPICache: 1, BF: 0, MPKI: 312.5 * gbps / 20}
}

func evalTier(t *testing.T, p model.Params, top model.Topology) model.TopologyTierPoint {
	t.Helper()
	pt, err := model.EvaluateTopology(context.Background(), p, top)
	if err != nil {
		t.Fatal(err)
	}
	return pt.Tiers[0]
}

func TestSolveConstantDemand(t *testing.T) {
	// With demand independent of MP the answer is closed-form.
	top := oneTier(1, units.GHzOf(1), 75*units.Nanosecond, units.GBpsOf(40), mm1)
	tier := evalTier(t, constantDemand(20), top)
	wantQueue := 6.0 * 0.5 / 0.5 // u = 0.5
	if got := float64(tier.MissPenalty) - 75; math.Abs(got-wantQueue) > 1e-9 {
		t.Fatalf("queue = %v, want %v", got, wantQueue)
	}
	if tier.Saturated || tier.Utilization != 0.5 {
		t.Fatalf("50%% utilization must not be saturated: %+v", tier)
	}
}

func TestSolveSaturated(t *testing.T) {
	top := oneTier(1, units.GHzOf(1), 75*units.Nanosecond, units.GBpsOf(40), mm1)
	tier := evalTier(t, constantDemand(400), top)
	if !tier.Saturated || tier.Delivered != units.GBpsOf(40) {
		t.Fatalf("10x overload must saturate and deliver the sustained 40 GB/s: %+v", tier)
	}
	maxMP := 75 + float64(mm1.MaxStableDelay())
	if math.Abs(float64(tier.MissPenalty)-maxMP) > 1e-9 {
		t.Fatalf("MP = %v, want %v (max stable)", tier.MissPenalty, maxMP)
	}
}

// TestSolveMatchesDampedOnShallowCurve checks the evaluator against the
// paper's own method, "an iterative calculation to find a stable
// solution": a damped direct iteration of MP ← LoadedLatency(demand(MP))
// converges on a shallow part of the curve, and must land where the
// evaluator's CPI-space bisection does.
func TestSolveMatchesDampedOnShallowCurve(t *testing.T) {
	sys := queueing.System{Compulsory: 75 * units.Nanosecond, PeakBW: units.GBpsOf(42), Curve: mm1}
	top := oneTier(16, units.GHzOf(2.5), sys.Compulsory, sys.PeakBW, mm1)
	p := model.Params{Name: "Enterprise", CPICache: 1.47, BF: 0.41, MPKI: 6.7, WBR: 0.27}
	demand := func(mp units.Duration) units.BytesPerSecond {
		cpi := p.CPIEffAt(mp, top.CoreSpeed)
		return p.Demand(cpi, top.CoreSpeed, top.LineSize) * units.BytesPerSecond(top.Threads)
	}
	mp := sys.Compulsory
	for i := 0; i < 1000; i++ {
		mp += 0.5 * (sys.LoadedLatency(demand(mp)) - mp)
	}
	if tier := evalTier(t, p, top); math.Abs(float64(tier.MissPenalty-mp)) > 1e-6 {
		t.Fatalf("bisection %v vs damped %v", tier.MissPenalty, mp)
	}
}

func TestSolveConvergesNearSaturation(t *testing.T) {
	// The HPC-class operating point that makes naive damped iteration
	// oscillate: demand within a few percent of peak.
	hpc := model.Params{Name: "HPC", CPICache: 0.75, BF: 0.07, MPKI: 26.7, WBR: 0.27}
	top := oneTier(16, units.GHzOf(2.5), 75*units.Nanosecond, units.GBpsOf(42), mm1)
	if tier := evalTier(t, hpc, top); !tier.Saturated {
		t.Fatalf("HPC-class demand should saturate; util = %v", tier.Utilization)
	}
}

// Property: the solution is a true fixed point — the loaded latency at
// the solved demand equals the solved miss penalty, and the CPI is
// Eq. 1 at that penalty.
func TestSolveFixedPointProperty(t *testing.T) {
	sys := queueing.System{Compulsory: 75 * units.Nanosecond, PeakBW: units.GBpsOf(42), Curve: mm1}
	top := oneTier(16, units.GHzOf(2.5), sys.Compulsory, sys.PeakBW, mm1)
	f := func(bfRaw, mpkiRaw float64) bool {
		bf := math.Abs(math.Mod(bfRaw, 1))
		mpki := math.Abs(math.Mod(mpkiRaw, 30))
		if mpki < 0.1 {
			mpki = 0.1
		}
		p := model.Params{Name: "q", CPICache: 1, BF: bf, MPKI: mpki, WBR: 0.3}
		pt, err := model.EvaluateTopology(context.Background(), p, top)
		if err != nil {
			return false
		}
		tier := pt.Tiers[0]
		if tier.Saturated {
			return true // fixed point replaced by the stability cap
		}
		implied := sys.LoadedLatency(tier.Demand)
		return math.Abs(float64(implied-tier.MissPenalty)) < 1e-6 &&
			math.Abs(p.CPIEffAt(tier.MissPenalty, top.CoreSpeed)-pt.CPI) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveDegenerateCurve(t *testing.T) {
	// A curve with no queuing at all: the answer is the compulsory
	// latency immediately.
	flat := queueing.MM1{Service: 0, ULimit: 0.95}
	top := oneTier(16, units.GHzOf(2.5), 75*units.Nanosecond, units.GBpsOf(42), flat)
	p := model.Params{Name: "bd", CPICache: 0.91, BF: 0.21, MPKI: 5.5, WBR: 0.92}
	if tier := evalTier(t, p, top); tier.MissPenalty != 75*units.Nanosecond {
		t.Fatalf("MP = %v, want compulsory", tier.MissPenalty)
	}
}
