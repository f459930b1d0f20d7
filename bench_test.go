// Package repro_test holds microbenchmarks of the measurement hot path
// (its ops live in alloc_test.go, where tier-1 gates their allocations)
// and of the analytic model, the §VII/§VIII topology solves, the
// blocking-factor ablation of DESIGN.md §5 and the workload trace
// generator. Artifact regeneration is profiled through cmd/repro
// (`-only <id> -cpuprofile/-memprofile`), and end-to-end performance is
// measured by perfbench/.
package repro_test

import (
	"context"
	"testing"

	"repro/api"
	"repro/internal/memsys"
	"repro/internal/model"
	"repro/internal/queueing"
	"repro/internal/units"
	"repro/internal/workgen"
	"repro/internal/workloads"
)

// runOp times op, one call per iteration.
func runOp(b *testing.B, op func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// BenchmarkMachineSimulation measures raw simulator throughput in
// instructions per wall second for the flagship workload.
func BenchmarkMachineSimulation(b *testing.B) {
	runOp(b, machineSimulationOp(b))
	b.ReportMetric(float64(machineSimInstr)*float64(b.N)/b.Elapsed().Seconds(), "instr/s")
}

// BenchmarkMachineGrid measures one fit grid: a warm-up and eight
// probes on copies that share its tracks.
func BenchmarkMachineGrid(b *testing.B) {
	runOp(b, machineGridOp(b))
	instr := gridWarmInstr + 8*(gridRewarmInstr+gridMeasureInstr)
	b.ReportMetric(float64(instr)*float64(b.N)/b.Elapsed().Seconds(), "instr/s")
}

func BenchmarkCacheAccess(b *testing.B) { runOp(b, cacheAccessOp(b)) }

func BenchmarkCacheAccessStream(b *testing.B) { runOp(b, cacheAccessStreamOp(b)) }

func BenchmarkMemsysAccess(b *testing.B) { runOp(b, memsysAccessOp(b)) }

func BenchmarkModelEvaluate(b *testing.B) {
	pl := model.BaselinePlatform(queueing.MM1{Service: 6 * units.Nanosecond, ULimit: 0.95})
	p := model.Params{Name: "Big Data", CPICache: 0.91, BF: 0.21, MPKI: 5.5, WBR: 0.92}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.Evaluate(context.Background(), p, pl); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMLCSweepPoint(b *testing.B) {
	cfg := memsys.DefaultConfig()
	for i := 0; i < b.N; i++ {
		mlc := workloads.MLC{
			ReadFraction: 1,
			Rate:         units.GBpsOf(20),
			Duration:     20 * units.Microsecond,
			Seed:         uint64(i + 1),
		}
		if _, err := mlc.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTopology measures one EvaluateTopology solve of the Big Data
// class on top.
func benchTopology(b *testing.B, top model.Topology) {
	p := model.Params{Name: "Big Data", CPICache: 0.91, BF: 0.21, MPKI: 5.5, WBR: 0.92}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := model.EvaluateTopology(context.Background(), p, top); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHierarchicalEq5 solves the §VII two-tier hierarchy (Eq. 5):
// 80% of misses to DRAM, 20% to a far tier at 3x the latency and 0.4x
// the bandwidth.
func BenchmarkHierarchicalEq5(b *testing.B) {
	base := model.BaselinePlatform(queueing.MM1{Service: 6 * units.Nanosecond, ULimit: 0.95})
	top := base.Topology()
	top.Tiers = []model.MemTier{
		{Name: "DRAM", Share: 0.8, Compulsory: base.Compulsory, PeakBW: base.PeakBW, Queue: base.Queue},
		{Name: "far", Share: 0.2, Compulsory: 3 * base.Compulsory, PeakBW: base.PeakBW * 0.4, Queue: base.Queue},
	}
	benchTopology(b, top)
}

// BenchmarkNUMAStudy solves the §VIII multi-socket extension: the
// dual-socket baseline at a uniform two-socket interleave.
func BenchmarkNUMAStudy(b *testing.B) {
	curve := queueing.MM1{Service: 6 * units.Nanosecond, ULimit: 0.95}
	benchTopology(b, model.DualSocketBaseline(curve).WithRemoteFraction(0.5))
}

// BenchmarkAblationBlockingFactor compares the constant-BF Eq. 1 against
// Chou's Eq. 2 with the Eq. 3 offset across a latency sweep.
func BenchmarkAblationBlockingFactor(b *testing.B) {
	p := model.Params{Name: "Enterprise", CPICache: 1.47, BF: 0.41, MPKI: 6.7, WBR: 0.27}
	b.Run("eq1-constant-bf", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for mp := units.Cycles(180); mp < 500; mp += 20 {
				_ = p.CPIEff(mp)
			}
		}
	})
	b.Run("eq2-mlp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for mp := units.Cycles(180); mp < 500; mp += 20 {
				if _, err := model.CPIEffChou(p.CPICache, 0.15, p.MPI(), mp, 1/p.BF); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkWorkgenTrace generates and hashes the reference three-client
// workload's arrival schedule at a CI-sized horizon: the seeded renewal
// sampling (Poisson, Gamma, Weibull inter-arrivals), the per-client
// stream merge, and the FNV determinism witness.
func BenchmarkWorkgenTrace(b *testing.B) {
	spec, err := workgen.Compile(api.WorkloadSpec{TotalRPS: 2000, DurationS: 30, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	var arrivals int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := spec.Trace()
		if tr.Hash == 0 {
			b.Fatal("degenerate trace hash")
		}
		arrivals = len(tr.Arrivals)
	}
	b.ReportMetric(float64(arrivals)*float64(b.N)/b.Elapsed().Seconds(), "arrivals/s")
}
