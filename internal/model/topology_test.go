package model

import (
	"context"
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/queueing"
	"repro/internal/units"
)

// Golden pins for the three topology shapes. The values were captured
// with strconv.FormatFloat(f, 'x', -1, 64) from the evaluators that
// predate the single CPI-space builder. The Eq. 5 fraction shape still
// solves with exactly the arithmetic it was captured with, so it stays
// pinned bit for bit. The flat and local/remote shapes used to solve in
// loaded-latency space at a 1e-4 ns tolerance and to apply Eq. 1 once to
// the weighted latency respectively; the single builder reaches the same
// fixed points through different rounding, so they are pinned to
// goldenLatTol on latencies and goldenRelTol on CPI and bandwidth.

const (
	goldenLatTol = 1e-4 // ns
	goldenRelTol = 1e-6
)

func mustHex(t *testing.T, s string) float64 {
	t.Helper()
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad hex float %q: %v", s, err)
	}
	return f
}

func bitEq(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// checkNear asserts got is within tol of the golden value: absolute
// for latencies (rel false), relative otherwise.
func checkNear(t *testing.T, field string, got float64, wantHex string, tol float64, rel bool) {
	t.Helper()
	want := mustHex(t, wantHex)
	d := math.Abs(got - want)
	if rel && want != 0 {
		d /= math.Abs(want)
	}
	if !(d <= tol) {
		t.Errorf("%s = %v, want %v within %g", field, got, want, tol)
	}
}

// checkBits asserts exact bit equality, reporting both hex forms.
func checkBits(t *testing.T, field string, got float64, wantHex string) {
	t.Helper()
	want := mustHex(t, wantHex)
	if !bitEq(got, want) {
		t.Errorf("%s = %s, want %s (pre-refactor bits)",
			field, strconv.FormatFloat(got, 'x', -1, 64), wantHex)
	}
}

// equivCases mirrors the capture harness that produced the golden
// values: three workload classes spanning the latency-limited
// (enterprise), mixed (bigdata), and bandwidth-starved (hpc on a
// 10 GB/s machine) regimes.
func equivCases() (queueing.Curve, []struct {
	name string
	p    Params
	pl   Platform
}) {
	curve := queueing.MM1{Service: 6, ULimit: 0.95}
	base := BaselinePlatform(curve)
	starved := base.WithPeakBW(units.GBpsOf(10))
	return curve, []struct {
		name string
		p    Params
		pl   Platform
	}{
		{"enterprise", Params{Name: "Enterprise", CPICache: 1.07, BF: 0.42, MPKI: 1.3, WBR: 0.45}, base},
		{"bigdata", Params{Name: "Big Data", CPICache: 0.91, BF: 0.21, MPKI: 5.5, WBR: 0.92}, base},
		{"hpc-starved", Params{Name: "HPC", CPICache: 0.50, BF: 0.50, MPKI: 20, WBR: 0.50}, starved},
	}
}

// equivTiered is the two-tier Eq. 5 hierarchy of the golden cases:
// 80% of misses to the platform's DRAM, 20% to a far tier at 3× the
// latency and 0.4× the bandwidth.
func equivTiered(pl Platform, curve queueing.Curve) Topology {
	return Topology{
		Name: "tp", Threads: pl.Threads, Cores: pl.Cores, CoreSpeed: pl.CoreSpeed, LineSize: pl.LineSize,
		Tiers: []MemTier{
			{Name: "near", Share: 0.8, Compulsory: pl.Compulsory, PeakBW: pl.PeakBW, Queue: curve},
			{Name: "far", Share: 0.2, Compulsory: 3 * pl.Compulsory, PeakBW: pl.PeakBW * 0.4, Queue: curve},
		},
	}
}

// equivNUMA is one socket of a symmetric dual-socket machine built from
// pl, with 30% of misses remote over a 60 ns, 25 GB/s link.
func equivNUMA(pl Platform, curve queueing.Curve) Topology {
	return Topology{
		Name: "np", Threads: pl.Threads, Cores: pl.Cores, CoreSpeed: pl.CoreSpeed, LineSize: pl.LineSize,
		Policy: SplitLocalRemote, RemoteFraction: 0.3,
		Tiers: []MemTier{
			{Name: "dram", Compulsory: pl.Compulsory, PeakBW: pl.PeakBW, Queue: curve},
			{Name: "link", Compulsory: 60 * units.Nanosecond, PeakBW: units.GBpsOf(25), Queue: curve},
		},
	}
}

// TestFlatGoldenBitIdentity pins Evaluate to the golden values within
// goldenLatTol/goldenRelTol. A bandwidth-bound point reports Demand at
// the latency fixed point, so the starved case asserts that convention
// instead of a golden demand: Delivered is the sustained bandwidth,
// Demand is at or above it, and the point is bandwidth bound.
func TestFlatGoldenBitIdentity(t *testing.T) {
	golden := map[string]struct{ cpi, mp, q, d, del, u string }{
		"enterprise":  {"0x1.2c5b50f694467p+00", "0x1.2e9e32p+06", "0x1.4f19p-01", "0x1.ea4d6cb9f0405p+31", "0x1.ea4d6cb9f0405p+31", "0x1.92d46c50868ebp-04"},
		"bigdata":     {"0x1.261b2d001a36ep+00", "0x1.4ae0a18p+06", "0x1.ee0a18p+02", "0x1.5ea381d850817p+34", "0x1.5ea381d850817p+34", "0x1.201533af69c96p-01"},
		"hpc-starved": {"0x1.eb851eb851eb8p+02", "0x1.79fff8dfffffcp+07", "0x1.c7fff1bfffff8p+06", "0x1.2a05f2p+33", "0x1.2a05f2p+33", "0x1p+00"},
	}
	wantBound := map[string]bool{"enterprise": false, "bigdata": false, "hpc-starved": true}
	_, cases := equivCases()
	for _, tc := range cases {
		op, err := Evaluate(context.Background(), tc.p, tc.pl)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		g := golden[tc.name]
		checkNear(t, tc.name+".CPI", op.CPI, g.cpi, goldenRelTol, true)
		checkNear(t, tc.name+".MissPenalty", float64(op.MissPenalty), g.mp, goldenLatTol, false)
		checkNear(t, tc.name+".QueueDelay", float64(op.QueueDelay), g.q, goldenLatTol, false)
		checkNear(t, tc.name+".Delivered", float64(op.Delivered), g.del, goldenRelTol, true)
		checkNear(t, tc.name+".Utilization", op.Utilization, g.u, goldenRelTol, true)
		if wantBound[tc.name] {
			if op.Delivered != tc.pl.PeakBW || op.Demand < tc.pl.PeakBW {
				t.Errorf("%s: Demand %v / Delivered %v, want Demand >= Delivered = sustained %v",
					tc.name, op.Demand, op.Delivered, tc.pl.PeakBW)
			}
		} else {
			checkNear(t, tc.name+".Demand", float64(op.Demand), g.d, goldenRelTol, true)
		}
		if op.BandwidthBound != wantBound[tc.name] {
			t.Errorf("%s.BandwidthBound = %v, want %v", tc.name, op.BandwidthBound, wantBound[tc.name])
		}
	}
}

// TestTieredGoldenBitIdentity pins the Eq. 5 fraction topology to the
// golden bits, including per-tier state and iteration counts.
func TestTieredGoldenBitIdentity(t *testing.T) {
	type tierG struct{ mp, d, u string }
	golden := map[string]struct {
		cpi   string
		bound bool
		iters int
		near  tierG
		far   tierG
		sat   [2]bool
	}{
		"enterprise": {"0x1.36c5298bf3f58p+00", false, 24,
			tierG{"0x1.2df9a5e1af1c1p+06", "0x1.7b193693494b9p+31", "0x1.37771902ce9c1p-04"},
			tierG{"0x1.c29948c6f88f4p+07", "0x1.7b193693494b9p+29", "0x1.8554df4382432p-05"},
			[2]bool{false, false}},
		"bigdata": {"0x1.397cdf8575b94p+00", false, 26,
			tierG{"0x1.3d8b462df0ab6p+06", "0x1.072b0bc1dfbbbp+34", "0x1.b06f5bd35bc0fp-02"},
			tierG{"0x1.c64d8ed3f02d5p+07", "0x1.072b0bc1dfbbbp+32", "0x1.0e45996419589p-02"},
			[2]bool{false, false}},
		"hpc-starved": {"0x1.89374bc6a7efap+02", true, 30,
			tierG{"0x1.79ffffffffffcp+07", "0x1.4e698fdac7688p+33", "0x1p+00"},
			tierG{"0x1.de2d0849b69e6p+07", "0x1.4e698fdac7688p+31", "0x1.67129132c2284p-01"},
			[2]bool{true, false}},
	}
	curve, cases := equivCases()
	for _, tc := range cases {
		op, err := EvaluateTopology(context.Background(), tc.p, equivTiered(tc.pl, curve))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		g := golden[tc.name]
		checkBits(t, tc.name+".CPI", op.CPI, g.cpi)
		if op.BandwidthBound != g.bound {
			t.Errorf("%s.BandwidthBound = %v, want %v", tc.name, op.BandwidthBound, g.bound)
		}
		if op.Iterations != g.iters {
			t.Errorf("%s.Iterations = %d, want %d", tc.name, op.Iterations, g.iters)
		}
		if len(op.Tiers) != 2 {
			t.Fatalf("%s: got %d tiers", tc.name, len(op.Tiers))
		}
		for i, tg := range []tierG{g.near, g.far} {
			tr := op.Tiers[i]
			checkBits(t, tc.name+"."+tr.Name+".MissPenalty", float64(tr.MissPenalty), tg.mp)
			checkBits(t, tc.name+"."+tr.Name+".Demand", float64(tr.Demand), tg.d)
			checkBits(t, tc.name+"."+tr.Name+".Utilization", tr.Utilization, tg.u)
			if tr.Saturated != g.sat[i] {
				t.Errorf("%s.%s.Saturated = %v, want %v", tc.name, tr.Name, tr.Saturated, g.sat[i])
			}
		}
	}
}

// TestNUMAGoldenBitIdentity pins the local/remote topology to the
// golden values within goldenLatTol/goldenRelTol. Tier 1 reports the
// whole remote path (local tier plus link).
func TestNUMAGoldenBitIdentity(t *testing.T) {
	golden := map[string]struct {
		cpi, lmp, rmp, emp, dd, ld, du, lu string
		bound                              bool
	}{
		"enterprise": {"0x1.32ac60698064ap+00", "0x1.2e8ee0aadcb44p+06", "0x1.0fe37a85a634bp+07", "0x1.76ec8061649dcp+06",
			"0x1.e0341ae92a8eap+31", "0x1.201f4358b3226p+30", "0x1.8a8856bbb6eb3p-04", "0x1.8bfdf591bde08p-05", false},
		"bigdata": {"0x1.335ef2806b827p+00", "0x1.47fda4cb4152bp+06", "0x1.20701ca0d0b1dp+07", "0x1.92a804885e248p+06",
			"0x1.4f81b8be53e4dp+34", "0x1.929baa7dfe45cp+32", "0x1.13a685651d7f3p-01", "0x1.14ab8f8d3d79p-02", false},
		"hpc-starved": {"0x1.eb851eb851eb8p+02", "0x1.79ffffffffffcp+07", "0x1.f45284624b802p+07", "0x1.9eb25aea49d98p+07",
			"0x1.92b2b29aa7027p+33", "0x1.e33cd6532ecfbp+31", "0x1p+00", "0x1.4c1410cb77ec8p-03", true},
	}
	curve, cases := equivCases()
	for _, tc := range cases {
		pt, err := EvaluateTopology(context.Background(), tc.p, equivNUMA(tc.pl, curve))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		g := golden[tc.name]
		local, remote := pt.Tiers[0], pt.Tiers[1]
		checkNear(t, tc.name+".CPI", pt.CPI, g.cpi, goldenRelTol, true)
		checkNear(t, tc.name+".LocalMP", float64(local.MissPenalty), g.lmp, goldenLatTol, false)
		checkNear(t, tc.name+".RemoteMP", float64(remote.MissPenalty), g.rmp, goldenLatTol, false)
		checkNear(t, tc.name+".EffectiveMP", float64(pt.EffectiveMP), g.emp, goldenLatTol, false)
		checkNear(t, tc.name+".DRAMDemand", float64(local.Demand), g.dd, goldenRelTol, true)
		checkNear(t, tc.name+".LinkDemand", float64(remote.Demand), g.ld, goldenRelTol, true)
		checkNear(t, tc.name+".DRAMUtil", local.Utilization, g.du, goldenRelTol, true)
		checkNear(t, tc.name+".LinkUtil", remote.Utilization, g.lu, goldenRelTol, true)
		if pt.BandwidthBound != g.bound {
			t.Errorf("%s.BandwidthBound = %v, want %v", tc.name, pt.BandwidthBound, g.bound)
		}
	}
}

// TestAdaptersMatchTopology asserts Evaluate returns exactly what
// EvaluateTopology returns for the platform's one-tier topology — the
// flat adapter only renames fields.
func TestAdaptersMatchTopology(t *testing.T) {
	ctx := context.Background()
	_, cases := equivCases()
	for _, tc := range cases {
		op, err := Evaluate(ctx, tc.p, tc.pl)
		if err != nil {
			t.Fatal(err)
		}
		pt, err := EvaluateTopology(ctx, tc.p, tc.pl.Topology())
		if err != nil {
			t.Fatal(err)
		}
		tier := pt.Tiers[0]
		if !bitEq(op.CPI, pt.CPI) || op.MissPenalty != tier.MissPenalty ||
			op.QueueDelay != tier.MissPenalty-tc.pl.Compulsory || op.Demand != tier.Demand ||
			op.Delivered != tier.Delivered || !bitEq(op.Utilization, tier.Utilization) ||
			op.BandwidthBound != pt.BandwidthBound {
			t.Errorf("%s: flat adapter diverges from 1-tier topology: %+v vs %+v", tc.name, op, pt)
		}
	}
}

// TestInterleaveNormalization: integer interleave weights are the same
// topology as the equivalent explicit fractions (3:1 == 0.75/0.25).
func TestInterleaveNormalization(t *testing.T) {
	curve, cases := equivCases()
	tc := cases[1] // bigdata
	frac := equivTiered(tc.pl, curve)
	inter := frac
	inter.Policy = SplitInterleave
	inter.Tiers = append([]MemTier(nil), frac.Tiers...)
	inter.Tiers[0].Share = 8 // 8:2 == 0.8/0.2
	inter.Tiers[1].Share = 2

	a, err := EvaluateTopology(context.Background(), tc.p, frac)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EvaluateTopology(context.Background(), tc.p, inter)
	if err != nil {
		t.Fatal(err)
	}
	// 8/10 and 2/10 are exact in binary floating point only up to
	// rounding; 0.8 = 8/10 rounds identically, so the solves agree.
	if !bitEq(a.CPI, b.CPI) {
		t.Errorf("interleave 8:2 CPI %v != fractions 0.8/0.2 CPI %v", b.CPI, a.CPI)
	}
}

// TestEfficiencyDerating: a derated tier behaves exactly like a tier
// whose peak is the sustained bandwidth, and derating never improves
// CPI. Efficiency 1 (or 0, the default) changes no bits.
func TestEfficiencyDerating(t *testing.T) {
	ctx := context.Background()
	_, cases := equivCases()
	for _, tc := range cases {
		top := tc.pl.Topology()
		one := top
		one.Tiers = append([]MemTier(nil), top.Tiers...)
		one.Tiers[0].Efficiency = 1

		base, err := EvaluateTopology(ctx, tc.p, top)
		if err != nil {
			t.Fatal(err)
		}
		unity, err := EvaluateTopology(ctx, tc.p, one)
		if err != nil {
			t.Fatal(err)
		}
		if !bitEq(base.CPI, unity.CPI) {
			t.Errorf("%s: Efficiency=1 changed CPI bits", tc.name)
		}

		der := top.WithTierEfficiency(0.8)
		derated, err := EvaluateTopology(ctx, tc.p, der)
		if err != nil {
			t.Fatal(err)
		}
		if derated.CPI < base.CPI {
			t.Errorf("%s: derating improved CPI (%v < %v)", tc.name, derated.CPI, base.CPI)
		}

		// Equivalent formulation: scale the peak directly.
		scaled := top
		scaled.Tiers = append([]MemTier(nil), top.Tiers...)
		scaled.Tiers[0].PeakBW = units.BytesPerSecond(float64(top.Tiers[0].PeakBW) * 0.8)
		viaPeak, err := EvaluateTopology(ctx, tc.p, scaled)
		if err != nil {
			t.Fatal(err)
		}
		if !bitEq(derated.CPI, viaPeak.CPI) {
			t.Errorf("%s: Efficiency=0.8 (%v) != PeakBW×0.8 (%v)", tc.name, derated.CPI, viaPeak.CPI)
		}
	}
}

// TestTopologyValidate exercises the per-policy validation rules.
func TestTopologyValidate(t *testing.T) {
	curve := queueing.MM1{Service: 6, ULimit: 0.95}
	good := BaselinePlatform(curve).Topology()
	if err := good.Validate(); err != nil {
		t.Fatalf("baseline topology should validate: %v", err)
	}
	bad := []Topology{
		{},
		func() Topology { c := good; c.Tiers = nil; return c }(),
		func() Topology {
			c := good
			c.Tiers = []MemTier{{Name: "m", Share: 1, Compulsory: 75, PeakBW: units.GBpsOf(10), Efficiency: 1.5, Queue: curve}}
			return c
		}(),
		func() Topology {
			c := good
			c.Tiers = []MemTier{{Name: "m", Share: 0.5, Compulsory: 75, PeakBW: units.GBpsOf(10), Queue: curve}}
			return c
		}(),
		func() Topology { c := good; c.Policy = SplitLocalRemote; return c }(), // needs 2 tiers
		func() Topology {
			c := good
			c.Policy = SplitInterleave
			c.Tiers = []MemTier{{Name: "m", Share: 0, Compulsory: 75, PeakBW: units.GBpsOf(10), Queue: curve}}
			return c
		}(),
		func() Topology { c := good; c.Policy = SplitPolicy(99); return c }(),
	}
	for i, top := range bad {
		err := top.Validate()
		if err == nil {
			t.Errorf("case %d: expected validation error", i)
			continue
		}
		if !errors.Is(err, ErrInvalidPlatform) {
			t.Errorf("case %d: error %v should wrap ErrInvalidPlatform", i, err)
		}
	}
	if _, err := EvaluateTopology(context.Background(), Params{Name: "w", CPICache: 1, BF: 0.4, MPKI: 2, WBR: 0.5}, bad[0]); err == nil {
		t.Error("EvaluateTopology must reject invalid topologies")
	}
}

// TestEvaluateTopologyAllIndexedErrors: batch failures name the grid
// cell (the EvaluateAll satellite, via the shared grid path).
func TestEvaluateTopologyAllIndexedErrors(t *testing.T) {
	curve := queueing.MM1{Service: 6, ULimit: 0.95}
	goodP := Params{Name: "ok", CPICache: 1, BF: 0.4, MPKI: 2, WBR: 0.5}
	badP := Params{Name: "broken"} // fails Params.Validate
	top := BaselinePlatform(curve).Topology()

	var agg Aggregate
	_, err := EvaluateTopologyAll(WithSolverStats(context.Background(), &agg), []Params{goodP, badP}, []Topology{top})
	if err == nil {
		t.Fatal("expected an error for the invalid class")
	}
	for _, want := range []string{"class 1", "broken"} {
		if !contains(err.Error(), want) {
			t.Errorf("error %q should mention %q", err, want)
		}
	}
	// The grid is validated whole before any cell solves.
	if st := agg.Stats(); st.Solves != 0 {
		t.Errorf("invalid grid recorded %d solves, want 0", st.Solves)
	}
}

// TestEvaluateAllIndexedErrors: the flat batch evaluator names the
// failing (class, platform) pair.
func TestEvaluateAllIndexedErrors(t *testing.T) {
	curve := queueing.MM1{Service: 6, ULimit: 0.95}
	goodP := Params{Name: "ok", CPICache: 1, BF: 0.4, MPKI: 2, WBR: 0.5}
	pl := BaselinePlatform(curve)
	badPl := pl
	badPl.Name = "no-queue"
	badPl.Queue = nil

	_, err := EvaluateAll(context.Background(), []Params{goodP}, []Platform{pl, badPl})
	if err == nil {
		t.Fatal("expected an error for the invalid platform")
	}
	for _, want := range []string{"platform 1", "no-queue"} {
		if !contains(err.Error(), want) {
			t.Errorf("error %q should mention %q", err, want)
		}
	}
	if !errors.Is(err, ErrInvalidPlatform) {
		t.Errorf("wrapped error should still classify as ErrInvalidPlatform: %v", err)
	}

	_, err = EvaluateAll(context.Background(), []Params{goodP, {Name: "bad"}}, []Platform{pl})
	if err == nil {
		t.Fatal("expected an error for the invalid class")
	}
	if !contains(err.Error(), "class 1 (bad)") {
		t.Errorf("error %q should name the failing class cell", err)
	}
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }

// TestSplitPolicyString covers the telemetry names.
func TestSplitPolicyString(t *testing.T) {
	for want, got := range map[string]string{
		"fractions":    SplitFractions.String(),
		"interleave":   SplitInterleave.String(),
		"local-remote": SplitLocalRemote.String(),
		"policy(42)":   SplitPolicy(42).String(),
	} {
		if got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}
