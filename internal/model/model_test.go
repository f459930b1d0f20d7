package model

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func bigDataClass() Params {
	return Params{Name: "Big Data", CPICache: 0.91, BF: 0.21, MPKI: 5.5, WBR: 0.92}
}

func enterpriseClass() Params {
	return Params{Name: "Enterprise", CPICache: 1.47, BF: 0.41, MPKI: 6.7, WBR: 0.27}
}

func hpcClass() Params {
	return Params{Name: "HPC", CPICache: 0.75, BF: 0.07, MPKI: 26.7, WBR: 0.27}
}

func TestParamsValidate(t *testing.T) {
	if err := bigDataClass().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{CPICache: 0, BF: 0.2},
		{CPICache: 1, BF: -0.1},
		{CPICache: 1, BF: 1.1},
		{CPICache: 1, BF: 0.2, MPKI: -1},
		{CPICache: 1, BF: 0.2, WBR: -1},
		{CPICache: 1, BF: 0.2, IOPI: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

func TestEq1HandComputed(t *testing.T) {
	// DESIGN.md §6: enterprise at MP = 187.5 cycles (75ns at 2.5GHz):
	// CPI_eff = 1.47 + 0.0067×187.5×0.41 ≈ 1.985.
	p := enterpriseClass()
	got := p.CPIEff(187.5)
	if math.Abs(got-1.985) > 0.002 {
		t.Fatalf("CPIEff = %v, want ≈1.985", got)
	}
	// And the time-denominated form must agree.
	got2 := p.CPIEffAt(75*units.Nanosecond, units.GHzOf(2.5))
	if math.Abs(got-got2) > 1e-12 {
		t.Fatalf("CPIEffAt disagrees: %v vs %v", got, got2)
	}
}

func TestEq4HandComputed(t *testing.T) {
	// HPC per-thread demand at CPI 1.10 ≈ 4.93 GB/s (DESIGN.md §6).
	p := hpcClass()
	got := p.Demand(1.10, units.GHzOf(2.5), 64).GBps()
	if math.Abs(got-4.93) > 0.05 {
		t.Fatalf("demand = %v GB/s, want ≈4.93", got)
	}
}

func TestEq4IOTerm(t *testing.T) {
	p := bigDataClass()
	base := p.BytesPerInstruction(64)
	p.IOPI = 0.001
	p.IOSZ = 1000
	if got := p.BytesPerInstruction(64); math.Abs(got-(base+1)) > 1e-12 {
		t.Fatalf("I/O term: %v, want %v", got, base+1)
	}
}

func TestDemandZeroCPI(t *testing.T) {
	if got := bigDataClass().Demand(0, units.GHzOf(2.5), 64); got != 0 {
		t.Fatalf("demand at CPI 0 = %v", got)
	}
}

// Property: BandwidthLimitedCPI inverts Eq. 4 — the demand at the
// bandwidth-limited CPI equals the available bandwidth.
func TestBandwidthLimitedCPIInversion(t *testing.T) {
	f := func(mpkiRaw, wbrRaw, bwRaw float64) bool {
		mpki := 0.5 + math.Abs(math.Mod(mpkiRaw, 40))
		wbr := math.Abs(math.Mod(wbrRaw, 2))
		bw := units.GBpsOf(0.5 + math.Abs(math.Mod(bwRaw, 10)))
		p := Params{Name: "x", CPICache: 1, BF: 0.2, MPKI: mpki, WBR: wbr}
		cpi, err := p.BandwidthLimitedCPI(bw, units.GHzOf(2.5), 64)
		if err != nil {
			return false
		}
		back := p.Demand(cpi, units.GHzOf(2.5), 64)
		return math.Abs(float64(back)-float64(bw)) < 1e-3*float64(bw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBandwidthLimitedCPIError(t *testing.T) {
	if _, err := bigDataClass().BandwidthLimitedCPI(0, units.GHzOf(2.5), 64); err == nil {
		t.Fatal("want error for zero bandwidth")
	}
}

func TestReferencesPerCycle(t *testing.T) {
	// Fig. 6 y axis: MPI×(1+WBR)/CPI_cache.
	p := hpcClass()
	want := 0.0267 * 1.27 / 0.75
	if got := p.ReferencesPerCycle(); math.Abs(got-want) > 1e-6 {
		t.Fatalf("refs/cycle = %v, want %v", got, want)
	}
	zero := Params{}
	if zero.ReferencesPerCycle() != 0 {
		t.Fatal("zero CPICache must give 0")
	}
}

// Property: Eq. 1 with BF from Eq. 3 reproduces Eq. 2 exactly — the
// algebraic identity the paper's model construction rests on.
func TestEq1Eq2Eq3Consistency(t *testing.T) {
	f := func(ovRaw, mlpRaw, mpRaw float64) bool {
		overlap := math.Abs(math.Mod(ovRaw, 0.9))
		mlp := 1 + math.Abs(math.Mod(mlpRaw, 9))
		mp := units.Cycles(50 + math.Abs(math.Mod(mpRaw, 500)))
		cpiCache, mpi := 1.0, 0.006

		eq2, err := CPIEffChou(cpiCache, overlap, mpi, mp, mlp)
		if err != nil {
			return false
		}
		bf, err := BlockingFactorFromMLP(cpiCache, overlap, mpi, mp, mlp)
		if err != nil {
			return false
		}
		eq1 := cpiCache + mpi*float64(mp)*bf
		return math.Abs(eq1-eq2) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEq3SecondTermVanishesWithMissPenalty(t *testing.T) {
	// §IV.B: the overlap term "will tend toward zero as miss penalty
	// increases", justifying the constant-BF assumption.
	bfAt := func(mp units.Cycles) float64 {
		bf, err := BlockingFactorFromMLP(1.0, 0.2, 0.006, mp, 4)
		if err != nil {
			t.Fatal(err)
		}
		return bf
	}
	near := math.Abs(bfAt(100) - 0.25)
	far := math.Abs(bfAt(10000) - 0.25)
	if far >= near {
		t.Fatalf("BF must approach 1/MLP as MP grows: |Δ|=%v at 100cy vs %v at 10000cy", near, far)
	}
}

func TestChouErrors(t *testing.T) {
	if _, err := CPIEffChou(1, 0.1, 0.006, 100, 0); err == nil {
		t.Fatal("want error for MLP 0")
	}
	if _, err := BlockingFactorFromMLP(1, 0.1, 0.006, 100, 0); err == nil {
		t.Fatal("want error for MLP 0")
	}
	if _, err := BlockingFactorFromMLP(1, 0.1, 0, 100, 2); err == nil {
		t.Fatal("want error for MPI 0")
	}
}

// BandwidthLimitedCPI solves Eq. 4 for CPI_eff with BW set to the
// available bandwidth per thread — the paper's treatment of
// bandwidth-bound operating points (§VI.C.1).
func (p Params) BandwidthLimitedCPI(availPerThread units.BytesPerSecond, cps units.Hertz, lineSize units.Bytes) (float64, error) {
	if availPerThread <= 0 {
		return 0, errors.New("model: available bandwidth must be positive")
	}
	return p.BytesPerInstruction(lineSize) * float64(cps) / float64(availPerThread), nil
}
