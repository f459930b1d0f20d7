package model

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"

	"repro/internal/queueing"
	"repro/internal/units"
)

// Solver behaviour on model inputs: the bisection bracket, the Eq. 4
// clamps, the telemetry each solve records, and the grid worker pool's
// ordering and cancellation.

// fixedCurve is a Curve with a constant delay and stable maximum, for
// brackets no real queue produces.
type fixedCurve struct{ delay, max units.Duration }

func (c fixedCurve) Delay(float64) units.Duration   { return c.delay }
func (c fixedCurve) MaxStableDelay() units.Duration { return c.max }

// linearCurve's delay grows as slope × utilization up to max.
type linearCurve struct{ slope, max units.Duration }

func (c linearCurve) Delay(u float64) units.Duration { return units.Duration(u) * c.slope }
func (c linearCurve) MaxStableDelay() units.Duration { return c.max }

// recorded runs one EvaluateTopology under a fresh Aggregate.
func recorded(ctx context.Context, p Params, top Topology) (TopologyPoint, Stats, error) {
	var agg Aggregate
	pt, err := EvaluateTopology(WithSolverStats(ctx, &agg), p, top)
	return pt, agg.Stats(), err
}

// zeroQueueTopology is testPlatform's memory as tiers that never queue:
// the bracket is degenerate and the CPI is Eq. 5 at compulsory latency
// whatever the bandwidth, which puts the Eq. 4 clamps under the test's
// control.
func zeroQueueTopology(bws ...units.BytesPerSecond) Topology {
	pl := testPlatform()
	var tiers []MemTier
	for i, bw := range bws {
		tiers = append(tiers, MemTier{Name: string(rune('a' + i)), Share: 1 / float64(len(bws)),
			Compulsory: pl.Compulsory, PeakBW: bw, Queue: zeroQueue{}})
	}
	return fractionTopology(pl, tiers...)
}

func TestEvaluateDegenerateBracket(t *testing.T) {
	p := bigDataClass()
	top := zeroQueueTopology(units.GBpsOf(1000))
	pt, st, err := recorded(context.Background(), p, top)
	if err != nil {
		t.Fatal(err)
	}
	// hi == lo: the answer is the left end after one Eq. 5 evaluation.
	want := p.CPIEffAt(top.Tiers[0].Compulsory, top.CoreSpeed)
	if pt.CPI != want || pt.Iterations != 1 || pt.BandwidthBound {
		t.Errorf("CPI = %v after %d iterations (bound %v), want %v after 1", pt.CPI, pt.Iterations, pt.BandwidthBound, want)
	}
	if st != (Stats{Solves: 1, Iterations: 1}) {
		t.Errorf("stats = %+v, want one converged one-step solve", st)
	}
}

// The bisection lands on the fixed point of Eq. 5: re-evaluating the
// tier's loaded latency at the returned CPI gives the same CPI back.
func TestEvaluateFindsFixedPoint(t *testing.T) {
	p := bigDataClass()
	top := testPlatform().Topology()
	pt, st, err := recorded(context.Background(), p, top)
	if err != nil {
		t.Fatal(err)
	}
	tier := top.Tiers[0]
	sys := queueing.System{Compulsory: tier.Compulsory, PeakBW: tier.SustainedBW(), Curve: tier.Queue}
	mp := sys.LoadedLatency(p.Demand(pt.CPI, top.CoreSpeed, top.LineSize) * units.BytesPerSecond(top.Threads))
	if mp <= tier.Compulsory {
		t.Fatalf("loaded latency %v at the fixed point, want queuing above compulsory %v", mp, tier.Compulsory)
	}
	if f := p.CPIEffAt(mp, top.CoreSpeed); math.Abs(f-pt.CPI) > 1e-6 {
		t.Errorf("F(CPI) = %v at CPI = %v, want a fixed point", f, pt.CPI)
	}
	if pt.Iterations <= 1 || pt.BandwidthBound {
		t.Errorf("%d iterations (bound %v), want a latency-limited bisection", pt.Iterations, pt.BandwidthBound)
	}
	if st.Solves != 1 || st.Iterations != int64(pt.Iterations) || !(st.MaxResidual < solveTol) {
		t.Errorf("stats = %+v, want one solve converged below %v", st, solveTol)
	}
}

// A solve that cannot converge returns ErrNoConvergence and is still
// recorded: telemetry counts failed solves too.
func TestEvaluateNoConvergenceRecorded(t *testing.T) {
	pl := testPlatform()
	tier := func(bw units.BytesPerSecond, q queueing.Curve) Topology {
		return fractionTopology(pl, MemTier{Name: "m", Share: 1, Compulsory: pl.Compulsory, PeakBW: bw, Queue: q})
	}
	for _, tc := range []struct {
		name  string
		top   Topology
		iters func(int64) bool
		bound int64
	}{
		{"non-finite bracket", tier(pl.PeakBW, fixedCurve{max: units.Duration(math.Inf(1))}),
			func(n int64) bool { return n == 0 }, 0},
		{"exhausted budget", tier(pl.PeakBW, linearCurve{slope: 1e300, max: 1e300}),
			func(n int64) bool { return n == solveMaxIter }, 0},
		// The per-thread bandwidth underflows to zero, so the Eq. 4
		// clamp overflows the CPI of a converged bisection.
		{"non-finite CPI", tier(math.SmallestNonzeroFloat64, pl.Queue),
			func(n int64) bool { return n > 0 && n < solveMaxIter }, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pt, st, err := recorded(context.Background(), hpcClass(), tc.top)
			if !errors.Is(err, ErrNoConvergence) {
				t.Fatalf("err = %v, want ErrNoConvergence", err)
			}
			if st.Solves != 1 || !tc.iters(st.Iterations) || st.Iterations != int64(pt.Iterations) ||
				st.BandwidthLimited != tc.bound || st.MaxResidual != 0 {
				t.Errorf("stats = %+v (point iterations %d), want one unconverged solve, %d bandwidth-limited",
					st, pt.Iterations, tc.bound)
			}
		})
	}
}

// A context that ended before the solve returns its error without
// evaluating the model or recording anything.
func TestEvaluateCancelledBeforeSolve(t *testing.T) {
	curve := &countingCurve{inner: testCurve()}
	top := BaselinePlatform(curve).Topology()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, st, err := recorded(ctx, bigDataClass(), top)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := curve.calls.Load(); n != 0 || st != (Stats{}) {
		t.Errorf("cancelled solve evaluated the curve %d times and recorded %+v", n, st)
	}
}

// The Eq. 4 clamps run in tier order on the running CPI: an active clamp
// marks the point bandwidth-bound, only a winning one names the limiter
// and sets the CPI, and a clamp that wins lowers the demand later tiers
// check.
func TestClampRegime(t *testing.T) {
	p := hpcClass()
	// Unclamped, each of two tiers carries half the demand at the
	// compulsory-latency CPI.
	free, err := EvaluateTopology(context.Background(), p, zeroQueueTopology(units.GBpsOf(1e6), units.GBpsOf(1e6)))
	if err != nil {
		t.Fatal(err)
	}
	d := free.Tiers[0].Demand

	t.Run("latency limited when unsaturated", func(t *testing.T) {
		if free.BandwidthBound || free.Limiter != "" {
			t.Errorf("bound %v limiter %q, want neither", free.BandwidthBound, free.Limiter)
		}
		if want := p.CPIEffAt(testPlatform().Compulsory, testPlatform().CoreSpeed); free.CPI != want {
			t.Errorf("CPI = %v, want %v at compulsory latency", free.CPI, want)
		}
	})

	// Utilization 0.5 on tier a: below the trigger, the clamp stays off.
	t.Run("inactive clamp ignored", func(t *testing.T) {
		pt, st, err := recorded(context.Background(), p, zeroQueueTopology(d/0.5, units.GBpsOf(1e6)))
		if err != nil {
			t.Fatal(err)
		}
		if pt.BandwidthBound || pt.Limiter != "" || pt.Tiers[0].Saturated || !bitEq(pt.CPI, free.CPI) {
			t.Errorf("bound %v limiter %q saturated %v CPI %v, want the unclamped CPI %v",
				pt.BandwidthBound, pt.Limiter, pt.Tiers[0].Saturated, pt.CPI, free.CPI)
		}
		if st.BandwidthLimited != 0 {
			t.Errorf("bandwidth-limited count = %d, want 0", st.BandwidthLimited)
		}
	})

	for _, tc := range []struct {
		name      string
		bwA, bwB  units.BytesPerSecond
		cpiScale  float64 // final CPI over the unclamped one
		limiter   string
		saturated [2]bool
	}{
		// Utilization 0.9995: past the 0.999 trigger, but the Eq. 4
		// CPI is 0.9995 × the latency-limited one.
		{"active clamp loses", d / 0.9995, units.GBpsOf(1e6), 1, "", [2]bool{true, false}},
		{"winning clamp", d / 2, units.GBpsOf(1e6), 2, "a", [2]bool{true, false}},
		// Tier a doubles the CPI, halving the demand b sees: b would
		// saturate at the unclamped CPI (utilization 1.5), not at the
		// clamped one (0.75).
		{"clamps chain", d / 2, d / 1.5, 2, "a", [2]bool{true, false}},
		{"later clamp wins", d / 1.5, d / 2, 2, "b", [2]bool{true, true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pt, st, err := recorded(context.Background(), p, zeroQueueTopology(tc.bwA, tc.bwB))
			if err != nil {
				t.Fatal(err)
			}
			if !pt.BandwidthBound || pt.Limiter != tc.limiter {
				t.Errorf("bound %v limiter %q, want true %q", pt.BandwidthBound, pt.Limiter, tc.limiter)
			}
			if got := [2]bool{pt.Tiers[0].Saturated, pt.Tiers[1].Saturated}; got != tc.saturated {
				t.Errorf("saturated = %v, want %v", got, tc.saturated)
			}
			if want := free.CPI * tc.cpiScale; math.Abs(pt.CPI-want) > 1e-12*want {
				t.Errorf("CPI = %v, want %v", pt.CPI, want)
			}
			if st.BandwidthLimited != 1 {
				t.Errorf("bandwidth-limited count = %d, want 1", st.BandwidthLimited)
			}
		})
	}
}

// The pooled grid returns every cell in [class][topology] order, equal
// to its one-off evaluation, and records one converged solve per cell.
func TestEvaluateTopologyAllOrderAndTelemetry(t *testing.T) {
	classes := starvedClasses()
	tops := append(policyTopologies(), testPlatform().Topology())
	var agg Aggregate
	grid, err := EvaluateTopologyAll(WithSolverStats(context.Background(), &agg), classes, tops)
	if err != nil {
		t.Fatal(err)
	}
	var iters int64
	for i, p := range classes {
		for j, top := range tops {
			want, err := EvaluateTopology(context.Background(), p, top)
			if err != nil {
				t.Fatal(err)
			}
			if got := grid[i][j]; !bitEq(got.CPI, want.CPI) || got.Iterations != want.Iterations || got.Limiter != want.Limiter {
				t.Errorf("grid[%d][%d] = %+v, want %+v", i, j, got, want)
			}
			iters += int64(want.Iterations)
		}
	}
	st := agg.Stats()
	if n := int64(len(classes) * len(tops)); st.Solves != n || st.Iterations != iters {
		t.Errorf("stats = %+v, want %d solves and %d iterations", st, n, iters)
	}
	if !(st.MaxResidual < solveTol) {
		t.Errorf("worst residual %v, want below the tolerance %v", st.MaxResidual, solveTol)
	}
}

// A grid on an already-cancelled context returns the context error
// without evaluating the model or recording anything.
func TestEvaluateTopologyAllCancelled(t *testing.T) {
	curve := &countingCurve{inner: testCurve()}
	top := BaselinePlatform(curve).Topology()
	start := curve.calls.Load()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var agg Aggregate
	_, err := EvaluateTopologyAll(WithSolverStats(ctx, &agg), allClasses(), []Topology{top, top})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := curve.calls.Load() - start; n != 0 || agg.Stats() != (Stats{}) {
		t.Errorf("cancelled grid evaluated the curve %d times and recorded %+v", n, agg.Stats())
	}
}

func TestEvaluateTopologyAllEmpty(t *testing.T) {
	for _, tc := range []struct {
		classes []Params
		tops    []Topology
	}{{nil, nil}, {allClasses(), nil}, {nil, policyTopologies()}} {
		grid, err := EvaluateTopologyAll(context.Background(), tc.classes, tc.tops)
		if err != nil || len(grid) != len(tc.classes) {
			t.Fatalf("%d × %d grid = %v, %v", len(tc.classes), len(tc.tops), grid, err)
		}
		for _, row := range grid {
			if len(row) != 0 {
				t.Fatalf("row of %d points for no topologies", len(row))
			}
		}
	}
}

// Solve failures, like validation failures, report the first failing
// cell in [class][topology] order whichever worker finishes first.
func TestEvaluateTopologyAllFirstErrorInOrder(t *testing.T) {
	good := testPlatform().Topology()
	bad := good
	bad.Name = "unbounded"
	bad.Tiers = []MemTier{good.Tiers[0]}
	bad.Tiers[0].Queue = fixedCurve{max: units.Duration(math.Inf(1))}
	classes := []Params{enterpriseClass(), bigDataClass()}
	_, err := EvaluateTopologyAll(context.Background(), classes, []Topology{good, bad, good, bad})
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("err = %v, want ErrNoConvergence", err)
	}
	want := gridErr(0, classes[0], 1, bad.Name, ErrNoConvergence).Error()
	if err.Error() != want {
		t.Errorf("err = %q, want %q", err, want)
	}
}

// gatedCurve blocks every delay evaluation until gate closes,
// announcing the first blocked call of each solve on started.
type gatedCurve struct {
	inner   queueing.Curve
	gate    chan struct{}
	started chan struct{}
}

func (c gatedCurve) Delay(u float64) units.Duration {
	select {
	case c.started <- struct{}{}:
	default:
	}
	<-c.gate
	return c.inner.Delay(u)
}

func (c gatedCurve) MaxStableDelay() units.Duration { return c.inner.MaxStableDelay() }

// A grid cancelled mid-flight returns the context error: the solves in
// flight finish and are recorded, and no cell claimed after the
// cancellation solves.
func TestEvaluateTopologyAllCancelMidGrid(t *testing.T) {
	workers := runtime.GOMAXPROCS(0)
	n := workers + 8
	curve := gatedCurve{inner: testCurve(), gate: make(chan struct{}), started: make(chan struct{}, n)}
	tops := make([]Topology, n)
	for j := range tops {
		tops[j] = BaselinePlatform(curve).Topology()
	}

	ctx, cancel := context.WithCancel(context.Background())
	var agg Aggregate
	done := make(chan error, 1)
	go func() {
		_, err := EvaluateTopologyAll(WithSolverStats(ctx, &agg), []Params{bigDataClass()}, tops)
		done <- err
	}()
	// Cancel once every worker is blocked inside a solve.
	for i := 0; i < workers; i++ {
		<-curve.started
	}
	cancel()
	close(curve.gate)

	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := agg.Stats(); st.Solves != int64(workers) {
		t.Errorf("recorded %d solves, want the %d in flight at the cancellation", st.Solves, workers)
	}
}

// BenchmarkEvaluateTopologyAll times the pooled grid path on the Fig. 8
// grid: the three paper classes × the paper's bandwidth variants.
func BenchmarkEvaluateTopologyAll(b *testing.B) {
	base := testPlatform()
	var tops []Topology
	for _, v := range PaperBandwidthVariants() {
		tops = append(tops, base.WithPeakBW(v.EffectiveBW()).Topology())
	}
	classes := allClasses()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EvaluateTopologyAll(ctx, classes, tops); err != nil {
			b.Fatal(err)
		}
	}
}
