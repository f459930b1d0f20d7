// Package solve is the single fixed-point kernel behind the analytic
// model. The paper's §VI.C.1 loop — demand → utilization → queuing
// delay → loaded latency → miss penalty → CPI — is one mathematical
// object whatever the memory system looks like: a scalar unknown x with
// a monotone non-increasing re-estimation map F(x), bracketed on
// [Lo, Hi], followed by a bandwidth-limited regime check (Eq. 4) against
// every saturated supply resource.
//
// This package owns that object once. A Scenario couples the supply
// side and the demand adapter into (Lo, Hi, F, CPIOf, Limits); Solve
// owns the bisection, the saturation clamp, and the
// latency-vs-bandwidth-limited regime choice. Every solve returns an
// Outcome with its telemetry — iterations, final residual, winning
// regime — so the experiment pipeline can record how each published
// number converged. The tolerance and iteration budget are package
// constants: the model solves every topology in CPI space, where one
// setting serves all of them.
//
// The package deliberately depends on nothing in the repo: the adapter
// in internal/model composes its supply curves and Eq. 1/4/5 demand
// functions into plain float64 closures, which keeps the kernel
// reusable, benchmarkable, and bit-stable across refactors.
package solve

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
)

const (
	// Tol is the convergence tolerance on the unknown: bisection stops
	// when |F(x)−x| or the bracket width falls below it.
	Tol = 1e-9
	// MaxIter bounds the bisection steps. Halving a bracket of a few CPI
	// down to Tol takes ~35; the budget only trips on a non-finite or
	// absurdly wide bracket.
	MaxIter = 200
)

// ErrNoConvergence is returned when the iteration exhausts its budget
// without meeting the tolerance, or when the bracket or the final CPI is
// not finite (inputs whose CPI overflows float64). For a monotone F on a
// finite bracket of sane width it is unreachable: bisection halves the
// bracket every step, so the width test fires long before MaxIter.
var ErrNoConvergence = errors.New("solve: fixed-point iteration did not converge")

// Regime records which side of the model chose the final CPI.
type Regime int

const (
	// LatencyLimited: the fixed point of the queuing loop set the CPI
	// (Eq. 1 at the converged loaded latency).
	LatencyLimited Regime = iota
	// BandwidthLimited: a saturated resource's Eq. 4 CPI took over, or a
	// resource reported saturation at the operating point.
	BandwidthLimited
)

// String names the regime for telemetry.
func (r Regime) String() string {
	if r == BandwidthLimited {
		return "bandwidth-limited"
	}
	return "latency-limited"
}

// Limit is one bandwidth-limited candidate produced by a Scenario's
// supply side: the Eq. 4 CPI of a saturated resource.
type Limit struct {
	// Resource names the saturated supply resource (a memory tier, an
	// interconnect link).
	Resource string
	// CPI is the Eq. 4 bandwidth-limited CPI; it replaces the running
	// CPI when larger (the model takes the worse of the two).
	CPI float64
	// Bound marks the outcome bandwidth-limited even when CPI does not
	// win the clamp (a saturated resource bounds the pipeline whether or
	// not its Eq. 4 value exceeds the latency-limited CPI).
	Bound bool
}

// LimitFunc lazily evaluates one resource's saturation check at the
// converged unknown x and the running CPI. Laziness matters: limits are
// applied in order, and a clamp applied by an earlier resource lowers
// the demand later resources see (a higher CPI means a slower core).
// The second return reports whether the limit is active.
type LimitFunc func(x, cpi float64) (Limit, bool)

// Scenario is one fixed-point problem handed to Solve: the supply side
// and per-thread demand adapter of an evaluator, composed into a scalar
// unknown.
type Scenario struct {
	// Name labels the scenario in telemetry (workload @ platform).
	Name string
	// Lo and Hi bracket the unknown: Lo is the unloaded (zero-queue)
	// value, Hi the value at every resource's maximum stable queuing
	// delay — the saturation clamp that keeps the queue model inside its
	// validated range.
	Lo, Hi float64
	// F re-estimates the unknown implied by candidate x: the demand at
	// x (Eq. 4 at Eq. 1's CPI), pushed through the supply side's
	// queuing curves. F must be non-increasing in x, which Eq. 1 + Eq. 4
	// guarantee (a larger penalty means a slower core means less
	// demand means shorter queues).
	F func(x float64) float64
	// CPIOf converts a converged unknown into the latency-limited CPI.
	// Optional: when nil the Outcome carries no CPI or regime
	// information.
	CPIOf func(x float64) float64
	// Limits are the supply side's bandwidth-limit checks, applied in
	// order against the running CPI. Optional.
	Limits []LimitFunc
}

// Outcome is the solved operating point plus its solver telemetry.
type Outcome struct {
	// Scenario echoes the scenario's label.
	Scenario string
	// X is the converged unknown.
	X float64
	// CPI is the final effective CPI after the regime choice (zero when
	// the scenario has no CPIOf).
	CPI float64
	// Regime records whether the latency fixed point or a saturated
	// resource's Eq. 4 bound set the CPI.
	Regime Regime
	// Limiter names the resource whose bandwidth limit set the CPI, if
	// any.
	Limiter string
	// Residual is |F(X) − X| at the returned X — how self-consistent
	// the reported operating point is.
	Residual float64
	// Iterations counts F evaluations.
	Iterations int
	// Converged reports whether the tolerance was met (false only on
	// ErrNoConvergence).
	Converged bool
}

// Solve runs one scenario to its Outcome. A recorder planted in ctx
// (WithRecorder) observes the outcome whether or not the solve
// converged; the error is ErrNoConvergence exactly when it did not.
// A cancelled or expired context returns its error before any F
// evaluation, which is what lets batch callers cut off abandoned grids
// between points.
func Solve(ctx context.Context, sc Scenario) (Outcome, error) {
	if err := ctx.Err(); err != nil {
		return Outcome{Scenario: sc.Name}, err
	}
	out, err := bisect(sc)
	out.Scenario = sc.Name
	if err == nil && sc.CPIOf != nil {
		out.CPI = sc.CPIOf(out.X)
		out.Regime = LatencyLimited
		for _, lf := range sc.Limits {
			l, active := lf(out.X, out.CPI)
			if !active {
				continue
			}
			if l.Bound {
				out.Regime = BandwidthLimited
			}
			if l.CPI > out.CPI {
				out.CPI = l.CPI
				out.Limiter = l.Resource
				out.Regime = BandwidthLimited
			}
		}
		if !finite(out.CPI) {
			out.Converged = false
			err = ErrNoConvergence
		}
	}
	record(ctx, out)
	return out, err
}

// bisect finds the root of F(x)−x on [lo, hi]. F(x)−x is non-negative
// at lo (queuing delay cannot be negative), non-positive at hi (delay
// is capped at the stable maximum), and decreasing for any demand
// function that falls as the penalty rises.
func bisect(sc Scenario) (Outcome, error) {
	lo, hi := sc.Lo, sc.Hi
	if !finite(lo) || !finite(hi) {
		return Outcome{}, ErrNoConvergence
	}
	// Degenerate bracket (no queuing at all): the answer is the left
	// end.
	if hi <= lo {
		fx := sc.F(lo)
		return Outcome{
			X:          lo,
			Residual:   math.Abs(fx - lo),
			Iterations: 1,
			Converged:  true,
		}, nil
	}
	var out Outcome
	for i := 0; i < MaxIter; i++ {
		mid := (lo + hi) / 2
		f := sc.F(mid) - mid
		out.X = mid
		out.Residual = math.Abs(f)
		out.Iterations = i + 1
		if math.Abs(f) < Tol || hi-lo < Tol {
			out.Converged = true
			return out, nil
		}
		if f > 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return out, ErrNoConvergence
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// SolveAll solves a batch of scenarios concurrently over a bounded
// worker pool — the point-grid path used by sweeps and the experiment
// engine. Outcomes are returned in input order; the error is the first
// failure by input index (with unsolved scenarios left zero after a
// context cancellation). Telemetry recording is safe for concurrent
// use because recorders are required to be.
func SolveAll(ctx context.Context, scs []Scenario) ([]Outcome, error) {
	outs, errs := SolveEach(ctx, scs)
	for _, err := range errs {
		if err != nil {
			return outs, err
		}
	}
	return outs, nil
}

// SolveEach is SolveAll with per-scenario error attribution: every
// scenario's error is returned at its input index instead of collapsing
// the batch to the first failure. Grid callers use this to report which
// (class, platform) cell failed rather than an anonymous batch error.
func SolveEach(ctx context.Context, scs []Scenario) ([]Outcome, []error) {
	outs := make([]Outcome, len(scs))
	errs := make([]error, len(scs))
	if len(scs) == 0 {
		return outs, errs
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(scs) {
		workers = len(scs)
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				outs[i], errs[i] = Solve(ctx, scs[i])
			}
		}()
	}
feed:
	for i := range scs {
		select {
		case next <- i:
		case <-ctx.Done():
			// Stop feeding promptly: unfed scenarios report the
			// cancellation without ever reaching a worker.
			for j := i; j < len(scs); j++ {
				errs[j] = ctx.Err()
			}
			break feed
		}
	}
	close(next)
	wg.Wait()
	return outs, errs
}
