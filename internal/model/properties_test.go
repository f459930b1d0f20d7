package model

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/queueing"
	"repro/internal/units"
)

// Directional properties of EvaluateTopology under every split policy:
// each test changes one knob and checks the direction the paper's model
// guarantees, plus the typed-error contract for inputs that are not
// finite numbers.

// policyTopologies returns one topology per split policy on the
// baseline core side: a DRAM + far-memory fraction split, the same two
// tiers interleaved 3:1, and the dual-socket local/remote machine.
func policyTopologies() []Topology {
	pl := testPlatform()
	frac := fractionTopology(pl,
		MemTier{Name: "dram", Share: 0.8, Compulsory: pl.Compulsory, PeakBW: pl.PeakBW, Queue: pl.Queue},
		MemTier{Name: "far", Share: 0.2, Compulsory: 3 * pl.Compulsory, PeakBW: pl.PeakBW * 0.4, Queue: pl.Queue})
	frac.Name = "fractions"
	inter := frac
	inter.Name = "interleave"
	inter.Policy = SplitInterleave
	inter.Tiers = append([]MemTier(nil), frac.Tiers...)
	inter.Tiers[0].Share, inter.Tiers[1].Share = 3, 1
	numa := dualSocket().WithRemoteFraction(0.3)
	return []Topology{frac, inter, numa}
}

// withTier returns a copy of top with tier i changed by mutate.
func withTier(top Topology, i int, mutate func(*MemTier)) Topology {
	top.Tiers = append([]MemTier(nil), top.Tiers...)
	mutate(&top.Tiers[i])
	return top
}

// propertyCPI evaluates p on top, failing the test on error.
func propertyCPI(t *testing.T, p Params, top Topology) float64 {
	t.Helper()
	pt, err := EvaluateTopology(context.Background(), p, top)
	if err != nil {
		t.Fatalf("%s on %s: %v", p.Name, top.Name, err)
	}
	return pt.CPI
}

// slack absorbs the bisection tolerance when two solves land on the
// same CPI from different brackets.
func slack(cpi float64) float64 { return 4 * solveTol * math.Max(1, cpi) }

// starvedClasses adds the bandwidth-starved HPC case so every policy is
// also exercised with a tier clamp active.
func starvedClasses() []Params {
	starved := hpcClass()
	starved.Name = "HPC-x2"
	starved.MPKI *= 2
	return append(allClasses(), starved)
}

func TestRaisingCompulsoryNeverLowersCPI(t *testing.T) {
	for _, top := range policyTopologies() {
		for _, p := range starvedClasses() {
			base := propertyCPI(t, p, top)
			for i := range top.Tiers {
				for _, add := range []units.Duration{1, 10, 100} {
					raised := withTier(top, i, func(m *MemTier) { m.Compulsory += add })
					if got := propertyCPI(t, p, raised); got < base-slack(base) {
						t.Errorf("%s on %s: tier %d Compulsory +%v lowered CPI %v -> %v",
							p.Name, top.Name, i, add, base, got)
					}
				}
			}
		}
	}
}

func TestRaisingPeakBWNeverRaisesCPI(t *testing.T) {
	for _, top := range policyTopologies() {
		for _, p := range starvedClasses() {
			base := propertyCPI(t, p, top)
			for i := range top.Tiers {
				for _, scale := range []float64{1.01, 1.5, 10} {
					raised := withTier(top, i, func(m *MemTier) { m.PeakBW *= units.BytesPerSecond(scale) })
					if got := propertyCPI(t, p, raised); got > base+slack(base) {
						t.Errorf("%s on %s: tier %d PeakBW ×%v raised CPI %v -> %v",
							p.Name, top.Name, i, scale, base, got)
					}
				}
			}
		}
	}
}

func TestEfficiencyDeratingHurtsHPCMore(t *testing.T) {
	// Table 6 classes: HPC lives at the bandwidth limit, Enterprise at
	// the latency limit, so losing sustained bandwidth costs HPC more.
	for _, top := range policyTopologies() {
		derated := top.WithTierEfficiency(0.8)
		cost := func(p Params) float64 {
			return propertyCPI(t, p, derated)/propertyCPI(t, p, top) - 1
		}
		hpc, ent := cost(hpcClass()), cost(enterpriseClass())
		if !(hpc > ent) || ent < 0 {
			t.Errorf("%s: derating to 80%% cost HPC %.4f, Enterprise %.4f; want HPC > Enterprise >= 0",
				top.Name, hpc, ent)
		}
	}
}

// nonFiniteCases are the inputs the validators must reject with a typed
// error rather than solve into a NaN or Inf CPI (or a finite CPI built
// on a NaN tier). Each mutates the Big Data class on the baseline
// one-tier topology.
var nonFiniteCases = []struct {
	name   string
	mutate func(*Params, *Topology)
	want   error
}{
	{"NaN Share", func(_ *Params, top *Topology) { top.Tiers[0].Share = math.NaN() }, ErrInvalidPlatform},
	{"NaN Efficiency", func(_ *Params, top *Topology) { top.Tiers[0].Efficiency = math.NaN() }, ErrInvalidPlatform},
	{"NaN PeakBW", func(_ *Params, top *Topology) { top.Tiers[0].PeakBW = units.BytesPerSecond(math.NaN()) }, ErrInvalidPlatform},
	{"NaN CPICache", func(p *Params, _ *Topology) { p.CPICache = math.NaN() }, ErrInvalidParams},
	{"NaN BF", func(p *Params, _ *Topology) { p.BF = math.NaN() }, ErrInvalidParams},
	{"+Inf MPKI", func(p *Params, _ *Topology) { p.MPKI = math.Inf(1) }, ErrInvalidParams},
	{"+Inf CoreSpeed", func(_ *Params, top *Topology) { top.CoreSpeed = units.Hertz(math.Inf(1)) }, ErrInvalidPlatform},
	{"NaN Compulsory", func(_ *Params, top *Topology) { top.Tiers[0].Compulsory = units.Duration(math.NaN()) }, ErrInvalidPlatform},
}

func nonFiniteInput(mutate func(*Params, *Topology)) (Params, Topology) {
	p, top := bigDataClass(), testPlatform().Topology()
	mutate(&p, &top)
	return p, top
}

func TestValidateRejectsNonFinite(t *testing.T) {
	for _, tc := range nonFiniteCases {
		t.Run(tc.name, func(t *testing.T) {
			p, top := nonFiniteInput(tc.mutate)
			pt, err := EvaluateTopology(context.Background(), p, top)
			if !errors.Is(err, tc.want) {
				t.Fatalf("EvaluateTopology = CPI %v, err %v; want %v", pt.CPI, err, tc.want)
			}
		})
	}
	// The flat Platform validates its own fields the same way.
	for name, mutate := range map[string]func(*Platform){
		"+Inf CoreSpeed": func(pl *Platform) { pl.CoreSpeed = units.Hertz(math.Inf(1)) },
		"NaN Compulsory": func(pl *Platform) { pl.Compulsory = units.Duration(math.NaN()) },
		"-Inf PeakBW":    func(pl *Platform) { pl.PeakBW = units.BytesPerSecond(math.Inf(-1)) },
		"NaN LineSize":   func(pl *Platform) { pl.LineSize = units.Bytes(math.NaN()) },
	} {
		pl := testPlatform()
		mutate(&pl)
		if _, err := Evaluate(context.Background(), bigDataClass(), pl); !errors.Is(err, ErrInvalidPlatform) {
			t.Errorf("Platform %s: err = %v, want ErrInvalidPlatform", name, err)
		}
	}
}

// FuzzEvaluateTopology drives EvaluateTopology with arbitrary floats in
// every Params and Topology field under all three split policies. Every
// result must either wrap a typed model/solver error or be a finite CPI
// no lower than CPI_cache, and nothing may panic.
func FuzzEvaluateTopology(f *testing.F) {
	for _, tc := range nonFiniteCases {
		p, top := nonFiniteInput(tc.mutate)
		t0 := top.Tiers[0]
		f.Add(p.CPICache, p.BF, p.MPKI, p.WBR, p.IOPI, p.IOSZ,
			float64(top.CoreSpeed), float64(top.LineSize), top.RemoteFraction, top.Threads, uint8(0),
			t0.Share, float64(t0.Compulsory), float64(t0.PeakBW), t0.Efficiency,
			0.0, 60.0, 25e9, 0.0)
	}
	f.Add(0.5, 0.5, 20.0, 0.5, 0.0, 0.0, 2.5e9, 64.0, 0.3, 16, uint8(2),
		1.0, 75.0, 10e9, 0.0, 0.0, 60.0, 1e9, 0.5)
	f.Add(1.0, 0.4, 2.0, 0.5, 1e-3, 4096.0, 2.5e9, 64.0, 0.0, 16, uint8(4),
		3.0, 75.0, 42e9, 0.9, 1.0, 225.0, 1e6, 1.0)

	curve := queueing.MM1{Service: 6, ULimit: 0.95}
	f.Fuzz(func(t *testing.T, cpiCache, bf, mpki, wbr, iopi, iosz, cps, ls, rf float64, threads int, shape uint8,
		share0, comp0, peak0, eff0, share1, comp1, peak1, eff1 float64) {
		p := Params{Name: "fuzz", CPICache: cpiCache, BF: bf, MPKI: mpki, WBR: wbr, IOPI: iopi, IOSZ: iosz}
		top := Topology{
			Name: "fuzz", Threads: threads, Cores: 1, CoreSpeed: units.Hertz(cps), LineSize: units.Bytes(ls),
			Policy: SplitPolicy(shape % 3), RemoteFraction: rf,
			Tiers: []MemTier{
				{Name: "t0", Share: share0, Compulsory: units.Duration(comp0), PeakBW: units.BytesPerSecond(peak0), Efficiency: eff0, Queue: curve},
				{Name: "t1", Share: share1, Compulsory: units.Duration(comp1), PeakBW: units.BytesPerSecond(peak1), Efficiency: eff1, Queue: curve},
			},
		}
		if shape/3%2 == 0 {
			top.Tiers = top.Tiers[:1]
		}
		pt, err := EvaluateTopology(context.Background(), p, top)
		if err != nil {
			if !errors.Is(err, ErrInvalidParams) && !errors.Is(err, ErrInvalidPlatform) && !errors.Is(err, ErrNoConvergence) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if math.IsNaN(pt.CPI) || math.IsInf(pt.CPI, 0) || pt.CPI < p.CPICache {
			t.Fatalf("CPI %v for CPI_cache %v (%v)", pt.CPI, p.CPICache, top.Policy)
		}
	})
}
