package model

import (
	"testing"

	"repro/internal/queueing"
	"repro/internal/units"
)

func hashTestPlatform(curve queueing.Curve) Platform {
	pl := BaselinePlatform(queueing.MM1{Service: 6, ULimit: 0.95})
	if curve != nil {
		pl.Queue = curve
	}
	return pl
}

func TestCanonicalExcludesNames(t *testing.T) {
	p := Params{Name: "bigdata", CPICache: 0.91, BF: 0.21, MPKI: 5.5, WBR: 0.92}
	q := p
	q.Name = "hand-entered"
	if CanonicalParams(p) != CanonicalParams(q) {
		t.Error("params canonical form should not depend on Name")
	}
	pl := hashTestPlatform(nil)
	pl2 := pl
	pl2.Name = "other"
	if CanonicalPlatform(pl) != CanonicalPlatform(pl2) {
		t.Error("platform canonical form should not depend on Name")
	}
}

func TestCanonicalSeparatesValues(t *testing.T) {
	p := Params{Name: "w", CPICache: 0.91, BF: 0.21, MPKI: 5.5, WBR: 0.92}
	q := p
	q.MPKI = 5.5000001
	if CanonicalParams(p) == CanonicalParams(q) {
		t.Error("distinct MPKI must change the canonical form")
	}
	pl := hashTestPlatform(nil)
	pl2 := pl
	pl2.Compulsory += units.Nanosecond
	if CanonicalPlatform(pl) == CanonicalPlatform(pl2) {
		t.Error("distinct compulsory latency must change the canonical form")
	}
}

func TestCanonicalCurveDistinguishesShapes(t *testing.T) {
	mm1 := queueing.MM1{Service: 6, ULimit: 0.95}
	md1 := queueing.MD1{Service: 6, ULimit: 0.95}
	if CanonicalCurve(mm1) == CanonicalCurve(md1) {
		t.Error("MM1 and MD1 with equal parameters must fingerprint differently")
	}
	if CanonicalCurve(mm1) != CanonicalCurve(queueing.MM1{Service: 6, ULimit: 0.95}) {
		t.Error("equal curves must fingerprint equally")
	}
	m1, err := queueing.NewMeasured([]float64{0, 0.5, 0.95}, []units.Duration{0, 10, 80})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := queueing.NewMeasured([]float64{0, 0.5, 0.95}, []units.Duration{0, 10, 80})
	if err != nil {
		t.Fatal(err)
	}
	if CanonicalCurve(m1) != CanonicalCurve(m2) {
		t.Error("identical measured curves must fingerprint equally")
	}
}

func TestScenarioKeyBoundaries(t *testing.T) {
	// The part separator must prevent "ab"+"c" colliding with "a"+"bc".
	if ScenarioKey("ab", "c") == ScenarioKey("a", "bc") {
		t.Error("part boundaries must be significant")
	}
	if ScenarioKey("x") != ScenarioKey("x") {
		t.Error("keys must be deterministic")
	}
}

// TestCanonicalTieredAndNUMA: the tiered and NUMA shapes hash through
// CanonicalTopology, where a tier's bandwidth and the remote fraction
// are part of the problem.
func TestCanonicalTieredAndNUMA(t *testing.T) {
	curve := queueing.MM1{Service: 6, ULimit: 0.95}
	tp := Topology{
		Name: "tp", Threads: 16, Cores: 8, CoreSpeed: units.GHzOf(2.5), LineSize: 64,
		Tiers: []MemTier{
			{Name: "near", Share: 0.8, Compulsory: 75, PeakBW: units.GBpsOf(42), Queue: curve},
			{Name: "far", Share: 0.2, Compulsory: 300, PeakBW: units.GBpsOf(10), Queue: curve},
		},
	}
	tp2 := tp
	tp2.Tiers = append([]MemTier(nil), tp.Tiers...)
	tp2.Tiers[1].PeakBW = units.GBpsOf(12)
	if CanonicalTopology(tp) == CanonicalTopology(tp2) {
		t.Error("tier bandwidth must change the tiered canonical form")
	}

	np := DualSocketBaseline(curve)
	np2 := np.WithRemoteFraction(0.3)
	if CanonicalTopology(np) == CanonicalTopology(np2) {
		t.Error("remote fraction must change the NUMA canonical form")
	}
}

// TestLegacyScenarioKeysStable pins the /v1/evaluate cache key to its
// value from before the Topology refactor: the flat endpoint's key is
// part of its observable behaviour (two spellings of one scenario share
// a cache line), so any change here is a cache-invalidation regression.
func TestLegacyScenarioKeysStable(t *testing.T) {
	curve := queueing.MM1{Service: 6, ULimit: 0.95}
	p := Params{Name: "bigdata", CPICache: 0.91, BF: 0.21, MPKI: 5.5, WBR: 0.92}
	pl := BaselinePlatform(curve)
	if got, want := ScenarioKey("evaluate", CanonicalParams(p), CanonicalPlatform(pl)), "8706d5f289f8a9b6"; got != want {
		t.Errorf("evaluate key = %s, want pre-refactor %s", got, want)
	}
}

// TestCanonicalTopology covers the topology fingerprint: names are
// excluded, the split policy and every tier number participate, and a
// tier at the default efficiency collides with one spelled with
// Efficiency 1 (both deliver peak).
func TestCanonicalTopology(t *testing.T) {
	curve := queueing.MM1{Service: 6, ULimit: 0.95}
	top := BaselinePlatform(curve).Topology()

	named := top
	named.Name = "other"
	named.Tiers = append([]MemTier(nil), top.Tiers...)
	named.Tiers[0].Name = "renamed"
	if CanonicalTopology(top) != CanonicalTopology(named) {
		t.Error("topology canonical form should not depend on names")
	}

	policy := top
	policy.Policy = SplitInterleave
	if CanonicalTopology(top) == CanonicalTopology(policy) {
		t.Error("split policy must change the canonical form")
	}

	derated := top
	derated.Tiers = append([]MemTier(nil), top.Tiers...)
	derated.Tiers[0].Efficiency = 0.8
	if CanonicalTopology(top) == CanonicalTopology(derated) {
		t.Error("tier efficiency must change the canonical form")
	}

	unity := top
	unity.Tiers = append([]MemTier(nil), top.Tiers...)
	unity.Tiers[0].Efficiency = 1
	if CanonicalTopology(top) != CanonicalTopology(unity) {
		t.Error("Efficiency 1 and the 0 default describe the same problem and must share a key")
	}
}
