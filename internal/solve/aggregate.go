package solve

import (
	"math"
	"sync/atomic"
)

// Aggregate is a Recorder that accumulates solver telemetry across many
// outcomes. It is safe for concurrent use — SolveAll's worker pool, the
// engine scheduler, and the serving daemon all report from many
// goroutines into one Aggregate — and the zero value is ready to use.
//
// The engine's per-experiment Metrics embeds an Aggregate, and the
// serving layer exposes one per process on /metrics, so every consumer
// of solver telemetry shares this single implementation.
type Aggregate struct {
	solves, iterations, bwLimited atomic.Int64
	maxResidual                   atomic.Uint64 // float64 bits; residuals are non-negative
}

// RecordSolve implements Recorder: it folds one fixed-point outcome
// into the running counters.
func (a *Aggregate) RecordSolve(out Outcome) {
	a.solves.Add(1)
	a.iterations.Add(int64(out.Iterations))
	if out.Regime == BandwidthLimited {
		a.bwLimited.Add(1)
	}
	if !out.Converged {
		return
	}
	// Lock-free max: non-negative float64s order the same as their bits.
	bits := math.Float64bits(out.Residual)
	for {
		cur := a.maxResidual.Load()
		if bits <= cur || a.maxResidual.CompareAndSwap(cur, bits) {
			return
		}
	}
}

// Stats is a point-in-time copy of an Aggregate's counters.
type Stats struct {
	Solves           int64   // fixed points solved
	Iterations       int64   // total kernel iterations across them
	BandwidthLimited int64   // outcomes in the bandwidth-limited regime
	MaxResidual      float64 // worst |F(x)−x| among converged solves
}

// Stats snapshots the counters. Under concurrent recording the fields
// are individually, not mutually, consistent — fine for telemetry.
func (a *Aggregate) Stats() Stats {
	return Stats{
		Solves:           a.solves.Load(),
		Iterations:       a.iterations.Load(),
		BandwidthLimited: a.bwLimited.Load(),
		MaxResidual:      math.Float64frombits(a.maxResidual.Load()),
	}
}
