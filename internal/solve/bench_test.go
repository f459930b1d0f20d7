package solve

import (
	"context"
	"math"
	"testing"
)

// mm1Scenario builds a realistic scenario shaped like the platform
// adapter: an M/M/1 loaded latency against a demand that falls as the
// miss penalty (and hence CPI) rises. service ~ 1/peakBW; the fixed
// point sits partway up the queuing curve.
func mm1Scenario(compulsory, peakBW, mpi, bpi, cpiCache, threads float64) Scenario {
	maxDelay := 0.95 / (1 - 0.95) / peakBW * 64 // ns at the stability limit
	demand := func(mp float64) float64 {
		cpi := cpiCache + mpi*mp
		return threads * bpi / cpi // bytes per ns per-core clock ~ GB/s
	}
	return Scenario{
		Name: "bench-mm1",
		Lo:   compulsory,
		Hi:   compulsory + maxDelay,
		F: func(mp float64) float64 {
			u := demand(mp) / peakBW
			if u > 0.95 {
				u = 0.95
			}
			q := u / (1 - u) / peakBW * 64
			return compulsory + q
		},
		CPIOf: func(mp float64) float64 { return cpiCache + mpi*mp },
	}
}

// BenchmarkSolveBisect measures the unified kernel's production path on
// a realistic queuing fixed point.
func BenchmarkSolveBisect(b *testing.B) {
	sc := mm1Scenario(80, 60, 0.005, 0.3, 0.6, 16)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := Solve(ctx, sc)
		if err != nil || math.IsNaN(out.X) {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveAll measures the batch path over a point grid the size
// of a bandwidth sweep (8 workload classes × 16 platform variants).
func BenchmarkSolveAll(b *testing.B) {
	var scs []Scenario
	for c := 0; c < 8; c++ {
		for p := 0; p < 16; p++ {
			scs = append(scs, mm1Scenario(60+float64(10*c), 30+float64(5*p), 0.004, 0.3, 0.6, 16))
		}
	}
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SolveAll(ctx, scs); err != nil {
			b.Fatal(err)
		}
	}
}
