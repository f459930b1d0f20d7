package solve

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
)

// affine returns the scenario for F(x) = a + b·x with b in (-1, 0],
// whose exact fixed point is a/(1-b). This is the shape every adapter
// produces: a decreasing affine-ish re-estimation map.
func affine(a, b, lo, hi float64) Scenario {
	return Scenario{
		Name: "affine",
		Lo:   lo,
		Hi:   hi,
		F:    func(x float64) float64 { return a + b*x },
	}
}

func TestBisectFindsFixedPoint(t *testing.T) {
	a, b := 10.0, -0.5
	want := a / (1 - b)
	sc := affine(a, b, 0, 100)
	out, err := Solve(context.Background(), sc)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if math.Abs(out.X-want) > 1e-3 {
		t.Errorf("X = %v, want %v", out.X, want)
	}
	if !out.Converged {
		t.Error("Converged = false")
	}
	if out.Iterations <= 0 {
		t.Errorf("Iterations = %d, want > 0", out.Iterations)
	}
	if out.Residual >= Tol {
		t.Errorf("Residual = %v, want < tol", out.Residual)
	}
	if out.Scenario != "affine" {
		t.Errorf("labels not echoed: %+v", out)
	}
}

func TestBisectDegenerateBracket(t *testing.T) {
	sc := affine(5, 0, 7, 7) // hi == lo: answer is lo, one F evaluation
	out, err := Solve(context.Background(), sc)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if out.X != 7 {
		t.Errorf("X = %v, want 7", out.X)
	}
	if out.Iterations != 1 {
		t.Errorf("Iterations = %d, want 1", out.Iterations)
	}
	if !out.Converged {
		t.Error("Converged = false")
	}
}

func TestNoConvergence(t *testing.T) {
	// 200 halvings cannot narrow a 1e300-wide bracket to Tol.
	sc := affine(10, -0.5, 0, 1e300)
	_, err := Solve(context.Background(), sc)
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("err = %v, want ErrNoConvergence", err)
	}
}

func TestRegimeChoice(t *testing.T) {
	base := affine(10, -0.5, 0, 100)
	base.CPIOf = func(x float64) float64 { return 2 * x }

	t.Run("latency limited without limits", func(t *testing.T) {
		out, err := Solve(context.Background(), base)
		if err != nil {
			t.Fatal(err)
		}
		if out.Regime != LatencyLimited {
			t.Errorf("Regime = %v, want LatencyLimited", out.Regime)
		}
		if math.Abs(out.CPI-2*out.X) > 1e-9 {
			t.Errorf("CPI = %v, want %v", out.CPI, 2*out.X)
		}
	})

	t.Run("inactive limit ignored", func(t *testing.T) {
		sc := base
		sc.Limits = []LimitFunc{
			func(x, cpi float64) (Limit, bool) { return Limit{}, false },
		}
		out, err := Solve(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
		if out.Regime != LatencyLimited || out.Limiter != "" {
			t.Errorf("Regime = %v Limiter = %q, want latency/none", out.Regime, out.Limiter)
		}
	})

	t.Run("winning limit clamps CPI", func(t *testing.T) {
		sc := base
		sc.Limits = []LimitFunc{
			func(x, cpi float64) (Limit, bool) {
				return Limit{Resource: "dram", CPI: cpi + 5, Bound: true}, true
			},
		}
		out, err := Solve(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
		if out.Regime != BandwidthLimited {
			t.Errorf("Regime = %v, want BandwidthLimited", out.Regime)
		}
		if out.Limiter != "dram" {
			t.Errorf("Limiter = %q, want dram", out.Limiter)
		}
		if math.Abs(out.CPI-(2*out.X+5)) > 1e-9 {
			t.Errorf("CPI = %v, want clamped %v", out.CPI, 2*out.X+5)
		}
	})

	t.Run("bound without winning still flips regime", func(t *testing.T) {
		sc := base
		sc.Limits = []LimitFunc{
			func(x, cpi float64) (Limit, bool) {
				return Limit{Resource: "link", CPI: cpi / 2, Bound: true}, true
			},
		}
		out, err := Solve(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
		if out.Regime != BandwidthLimited {
			t.Errorf("Regime = %v, want BandwidthLimited (bound flag)", out.Regime)
		}
		if out.Limiter != "" {
			t.Errorf("Limiter = %q, want empty (limit did not win)", out.Limiter)
		}
	})

	t.Run("limits chain against running cpi", func(t *testing.T) {
		// The second limit sees the CPI already raised by the first —
		// the sequential-clamp semantics the tiered evaluator needs.
		var sawCPI float64
		sc := base
		sc.Limits = []LimitFunc{
			func(x, cpi float64) (Limit, bool) {
				return Limit{Resource: "tier0", CPI: 100, Bound: true}, true
			},
			func(x, cpi float64) (Limit, bool) {
				sawCPI = cpi
				return Limit{}, false
			},
		}
		out, err := Solve(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
		if sawCPI != 100 {
			t.Errorf("second limit saw cpi=%v, want running 100", sawCPI)
		}
		if out.CPI != 100 || out.Limiter != "tier0" {
			t.Errorf("CPI = %v Limiter = %q, want 100/tier0", out.CPI, out.Limiter)
		}
	})
}

// countingRecorder tallies outcomes; safe for concurrent RecordSolve.
type countingRecorder struct {
	mu       sync.Mutex
	outcomes []Outcome
}

func (r *countingRecorder) RecordSolve(out Outcome) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.outcomes = append(r.outcomes, out)
}

func TestRecorderObservesOutcomes(t *testing.T) {
	rec := &countingRecorder{}
	ctx := WithRecorder(context.Background(), rec)
	if _, err := Solve(ctx, affine(10, -0.5, 0, 100)); err != nil {
		t.Fatal(err)
	}
	// Failed solves are recorded too — that is the point of telemetry.
	if _, err := Solve(ctx, affine(10, -0.5, 0, 1e300)); !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("want ErrNoConvergence, got %v", err)
	}
	if len(rec.outcomes) != 2 {
		t.Fatalf("recorded %d outcomes, want 2", len(rec.outcomes))
	}
	if !rec.outcomes[0].Converged || rec.outcomes[1].Converged {
		t.Errorf("converged flags = %v, %v; want true, false",
			rec.outcomes[0].Converged, rec.outcomes[1].Converged)
	}
}

func TestSolveAllOrderAndTelemetry(t *testing.T) {
	rec := &countingRecorder{}
	ctx := WithRecorder(context.Background(), rec)
	var scs []Scenario
	for i := 0; i < 37; i++ {
		a := float64(i + 1)
		scs = append(scs, affine(a, -0.5, 0, 1000))
	}
	outs, err := SolveAll(ctx, scs)
	if err != nil {
		t.Fatalf("SolveAll: %v", err)
	}
	if len(outs) != len(scs) {
		t.Fatalf("got %d outcomes, want %d", len(outs), len(scs))
	}
	for i, out := range outs {
		want := float64(i+1) / 1.5
		if math.Abs(out.X-want) > 1e-3 {
			t.Errorf("outs[%d].X = %v, want %v", i, out.X, want)
		}
	}
	rec.mu.Lock()
	n := len(rec.outcomes)
	rec.mu.Unlock()
	if n != len(scs) {
		t.Errorf("recorder saw %d outcomes, want %d", n, len(scs))
	}
}

func TestSolveAllEmpty(t *testing.T) {
	outs, err := SolveAll(context.Background(), nil)
	if err != nil || len(outs) != 0 {
		t.Fatalf("SolveAll(nil) = %v, %v", outs, err)
	}
}

func TestSolveAllFirstErrorByIndex(t *testing.T) {
	bad := affine(10, -0.5, 0, 1e300) // cannot converge in MaxIter iterations
	good := affine(5, 0, 7, 7)        // degenerate bracket: one evaluation
	scs := []Scenario{good, bad, good, bad}
	outs, err := SolveAll(context.Background(), scs)
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("err = %v, want ErrNoConvergence", err)
	}
	if !outs[0].Converged {
		t.Error("outs[0] should have converged")
	}
	if outs[1].Converged {
		t.Error("outs[1] should not have converged")
	}
}

func TestSolveAllCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	scs := []Scenario{affine(10, -0.5, 0, 100), affine(20, -0.5, 0, 100)}
	_, err := SolveAll(ctx, scs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestMethodAndRegimeStrings pins the regime names telemetry readers
// match on (bisection is the only method, so only regimes have names).
func TestMethodAndRegimeStrings(t *testing.T) {
	cases := map[string]string{
		LatencyLimited.String():   "latency-limited",
		BandwidthLimited.String(): "bandwidth-limited",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}
