package model

import (
	"context"
	"math"
	"sync/atomic"
)

// The fixed point behind every evaluation: bisection of Eq. 5 in CPI
// space. One tolerance and iteration budget serve every topology.
const (
	// solveTol is the convergence tolerance on the CPI: bisection stops
	// when |F(x)−x| or the bracket width falls below it.
	solveTol = 1e-9
	// solveMaxIter bounds the bisection steps. Halving a bracket of a
	// few CPI down to solveTol takes ~35; the budget only trips on an
	// absurdly wide bracket.
	solveMaxIter = 200
)

// bisect finds the root of f(x)−x on [lo, hi]. f(x)−x is non-negative
// at lo (queuing delay cannot be negative), non-positive at hi (delay
// is capped at the stable maximum), and decreasing for any demand
// function that falls as the penalty rises. It returns the root x, f(x)
// and the number of f evaluations; the last evaluation is always the
// one at x, so state f leaves behind describes the returned point. The
// error is ErrNoConvergence for a non-finite bracket or an exhausted
// budget.
func bisect(lo, hi float64, f func(float64) float64) (x, fx float64, iters int, err error) {
	if !finite(lo, hi) {
		return 0, 0, 0, ErrNoConvergence
	}
	// Degenerate bracket (no queuing at all): the answer is the left
	// end.
	if hi <= lo {
		return lo, f(lo), 1, nil
	}
	for iters < solveMaxIter {
		x = (lo + hi) / 2
		fx = f(x)
		iters++
		d := fx - x
		if math.Abs(d) < solveTol || hi-lo < solveTol {
			return x, fx, iters, nil
		}
		if d > 0 {
			lo = x
		} else {
			hi = x
		}
	}
	return x, fx, iters, ErrNoConvergence
}

// Aggregate accumulates solver telemetry across many solves. It is safe
// for concurrent use — EvaluateTopologyAll's worker pool, the engine
// scheduler and the serving daemon all record from many goroutines into
// one Aggregate — and the zero value is ready to use.
type Aggregate struct {
	solves, iterations, bwLimited atomic.Int64
	maxResidual                   atomic.Uint64 // float64 bits; residuals are non-negative
}

// add folds one solve into the running counters. residual counts only
// for a converged solve.
func (a *Aggregate) add(iters int, bandwidthBound, converged bool, residual float64) {
	a.solves.Add(1)
	a.iterations.Add(int64(iters))
	if bandwidthBound {
		a.bwLimited.Add(1)
	}
	if !converged {
		return
	}
	// Lock-free max: non-negative float64s order the same as their bits.
	bits := math.Float64bits(residual)
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
	Iterations       int64   // total bisection steps across them
	BandwidthLimited int64   // solves a saturated tier bounded
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

type statsKey struct{}

// WithSolverStats returns a context under which every solve records its
// telemetry on each of aggs, replacing any aggregates an outer context
// carried. Planting it once at the scheduler or the request handler
// covers every nested evaluator call.
func WithSolverStats(ctx context.Context, aggs ...*Aggregate) context.Context {
	return context.WithValue(ctx, statsKey{}, aggs)
}

// recordSolve delivers one solve's telemetry to the context's
// aggregates, if any.
func recordSolve(ctx context.Context, iters int, bandwidthBound, converged bool, residual float64) {
	aggs, _ := ctx.Value(statsKey{}).([]*Aggregate)
	for _, a := range aggs {
		a.add(iters, bandwidthBound, converged, residual)
	}
}
