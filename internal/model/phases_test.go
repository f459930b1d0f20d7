package model

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
)

func TestCombinePhasesSingleIsIdentity(t *testing.T) {
	p := bigDataClass()
	got, err := CombinePhases("x", []Phase{{Params: p, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.CPICache-p.CPICache) > 1e-12 || math.Abs(got.BF-p.BF) > 1e-12 ||
		math.Abs(got.MPKI-p.MPKI) > 1e-12 || math.Abs(got.WBR-p.WBR) > 1e-12 {
		t.Fatalf("identity combine changed params: %+v", got)
	}
}

func TestCombinePhasesWeights(t *testing.T) {
	compute := Params{Name: "compute", CPICache: 0.8, BF: 0, MPKI: 0.1, WBR: 0}
	memory := Params{Name: "memory", CPICache: 1.2, BF: 0.4, MPKI: 10, WBR: 0.5}
	got, err := CombinePhases("mix", []Phase{
		{Params: compute, Weight: 0.5},
		{Params: memory, Weight: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.CPICache-1.0) > 1e-12 {
		t.Fatalf("CPI_cache = %v, want 1.0", got.CPICache)
	}
	if math.Abs(got.MPKI-5.05) > 1e-12 {
		t.Fatalf("MPKI = %v, want 5.05", got.MPKI)
	}
	// BF blends by miss traffic: (0.05×0 + 5×0.4)/5.05.
	wantBF := 5.0 * 0.4 / 5.05
	if math.Abs(got.BF-wantBF) > 1e-12 {
		t.Fatalf("BF = %v, want %v (miss-weighted)", got.BF, wantBF)
	}
}

func TestCombinePhasesErrors(t *testing.T) {
	if _, err := CombinePhases("x", nil); err == nil {
		t.Fatal("want error for no phases")
	}
	p := bigDataClass()
	if _, err := CombinePhases("x", []Phase{{Params: p, Weight: 0.5}}); err == nil {
		t.Fatal("want error for weights not summing to 1")
	}
	if _, err := CombinePhases("x", []Phase{{Params: p, Weight: -1}, {Params: p, Weight: 2}}); err == nil {
		t.Fatal("want error for negative weight")
	}
	if _, err := CombinePhases("x", []Phase{{Params: Params{}, Weight: 1}}); err == nil {
		t.Fatal("want error for invalid phase params")
	}
}

func TestPhaseCPIMatchesDirectForUniformPhases(t *testing.T) {
	// Identical phases: the weighted phase CPI equals the direct CPI.
	pl := testPlatform()
	p := enterpriseClass()
	direct, err := Evaluate(context.Background(), p, pl)
	if err != nil {
		t.Fatal(err)
	}
	phased, ops, err := PhaseCPI(context.Background(), []Phase{
		{Params: p, Weight: 0.3},
		{Params: p, Weight: 0.7},
	}, pl)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 2 {
		t.Fatalf("ops = %d", len(ops))
	}
	if math.Abs(phased-direct.CPI) > 1e-9 {
		t.Fatalf("phase CPI %v vs direct %v", phased, direct.CPI)
	}
}

func TestPhaseCPIHandlesMixedRegimes(t *testing.T) {
	// A compute phase plus an HPC-like phase: the weighted result falls
	// strictly between the phase CPIs.
	pl := testPlatform()
	compute := Params{Name: "compute", CPICache: 1.0, BF: 0.01, MPKI: 0.1, WBR: 0.3}
	heavy := hpcClass()
	cpi, ops, err := PhaseCPI(context.Background(), []Phase{
		{Params: compute, Weight: 0.5},
		{Params: heavy, Weight: 0.5},
	}, pl)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := ops[0].CPI, ops[1].CPI
	if lo > hi {
		lo, hi = hi, lo
	}
	if cpi <= lo || cpi >= hi {
		t.Fatalf("weighted CPI %v outside phase range [%v, %v]", cpi, lo, hi)
	}
}

func TestPhaseCPIErrors(t *testing.T) {
	pl := testPlatform()
	if _, _, err := PhaseCPI(context.Background(), nil, pl); err == nil {
		t.Fatal("want error for no phases")
	}
	if _, _, err := PhaseCPI(context.Background(), []Phase{{Params: bigDataClass(), Weight: 0.2}}, pl); err == nil {
		t.Fatal("want error for bad weights")
	}
	if _, _, err := PhaseCPI(context.Background(), []Phase{{Params: Params{}, Weight: 1}}, pl); err == nil {
		t.Fatal("want error for invalid params")
	}
}

// §IV.D's multi-phase combination, kept here as a worked statement of the
// paper's procedure: no model path evaluates phased workloads.

// Phase is one program phase with its own model parameters and its
// instruction share ("a weight to each phase based on the relative
// number of instructions contained in that phase", §IV.D).
type Phase struct {
	Params Params
	// Weight is the phase's fraction of retired instructions. Weights
	// must sum to 1 across the phase list.
	Weight float64
}

// CombinePhases builds the instruction-weighted aggregate parameters for
// a multi-phase workload. CPI-like components (CPI_cache) combine
// linearly in instruction weight; rate components (MPKI, IOPI) likewise;
// BF and WBR combine weighted by their associated traffic (a phase with
// more misses contributes proportionally more of the blended blocking
// factor and writeback rate).
func CombinePhases(name string, phases []Phase) (Params, error) {
	if len(phases) == 0 {
		return Params{}, errors.New("model: CombinePhases of no phases")
	}
	var wSum float64
	for _, ph := range phases {
		if ph.Weight < 0 {
			return Params{}, fmt.Errorf("model: phase %q has negative weight", ph.Params.Name)
		}
		if err := ph.Params.Validate(); err != nil {
			return Params{}, err
		}
		wSum += ph.Weight
	}
	if wSum < 0.999 || wSum > 1.001 {
		return Params{}, fmt.Errorf("model: phase weights sum to %.3f, want 1", wSum)
	}

	var out Params
	out.Name = name
	var missW, bfAcc, wbrAcc float64
	for _, ph := range phases {
		p := ph.Params
		out.CPICache += ph.Weight * p.CPICache
		out.MPKI += ph.Weight * p.MPKI
		out.IOPI += ph.Weight * p.IOPI
		out.IOSZ += ph.Weight * p.IOSZ // approximation: weighted event size
		mw := ph.Weight * p.MPKI
		missW += mw
		bfAcc += mw * p.BF
		wbrAcc += mw * p.WBR
	}
	if missW > 0 {
		out.BF = bfAcc / missW
		out.WBR = wbrAcc / missW
	}
	return out, nil
}

// PhaseCPI evaluates each phase independently on a platform and combines
// the phase CPIs by instruction weight — the §IV.D procedure when the
// single-steady-state assumption does not hold. It returns the weighted
// CPI and the per-phase operating points. Each phase is one solve (via
// Evaluate), so the aggregates WithSolverStats plants in ctx record
// every phase's telemetry.
func PhaseCPI(ctx context.Context, phases []Phase, pl Platform) (float64, []OperatingPoint, error) {
	if len(phases) == 0 {
		return 0, nil, errors.New("model: PhaseCPI of no phases")
	}
	var cpi float64
	var ops []OperatingPoint
	var wSum float64
	for _, ph := range phases {
		op, err := Evaluate(ctx, ph.Params, pl)
		if err != nil {
			return 0, nil, err
		}
		ops = append(ops, op)
		cpi += ph.Weight * op.CPI
		wSum += ph.Weight
	}
	if wSum < 0.999 || wSum > 1.001 {
		return 0, nil, fmt.Errorf("model: phase weights sum to %.3f, want 1", wSum)
	}
	return cpi, ops, nil
}
