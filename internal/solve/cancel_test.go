package solve

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
)

// Solve must honor an already-ended context before evaluating F.
func TestSolveCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int64
	sc := Scenario{
		Name: "cancelled", Lo: 0, Hi: 1,
		F: func(x float64) float64 { calls.Add(1); return x / 2 },
	}
	out, err := Solve(ctx, sc)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls.Load() != 0 {
		t.Errorf("F evaluated %d times on a cancelled context", calls.Load())
	}
	if out.Scenario != "cancelled" {
		t.Errorf("outcome should echo the scenario label, got %q", out.Scenario)
	}
}

// SolveAll must cut off a batch promptly when the context ends
// mid-flight: scenarios that have not started yet report the
// cancellation instead of solving.
func TestSolveAllCancelMidFlight(t *testing.T) {
	workers := runtime.GOMAXPROCS(0)
	n := workers + 8

	gate := make(chan struct{})
	started := make(chan struct{}, n)
	scs := make([]Scenario, n)
	for i := range scs {
		scs[i] = Scenario{
			Name: "gated", Lo: 0, Hi: 1,
			F: func(x float64) float64 {
				select {
				case started <- struct{}{}:
				default:
				}
				<-gate
				return x / 2
			},
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	var outs []Outcome
	go func() {
		var err error
		outs, err = SolveAll(ctx, scs)
		done <- err
	}()

	// Wait until the pool is saturated with blocked solves, then cancel
	// while the gate is still closed: everything not yet started must
	// fail with the context error.
	for i := 0; i < workers; i++ {
		<-started
	}
	cancel()
	close(gate)

	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("SolveAll err = %v, want context.Canceled", err)
	}
	unsolved := 0
	for _, out := range outs {
		if !out.Converged {
			unsolved++
		}
	}
	if unsolved == 0 {
		t.Error("cancellation should have prevented at least the queued scenarios from solving")
	}
}
