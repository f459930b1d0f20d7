// Package repro_test benchmarks the regeneration of every table and
// figure in the paper (DESIGN.md §4 maps each benchmark to its
// experiment) plus the design-choice ablations of DESIGN.md §5 and
// microbenchmarks of the hot simulation paths.
//
// Each Benchmark{Figure,Table}N iteration regenerates its artifact from
// scratch — including the simulated-machine measurement runs behind the
// fitted tables — at a reduced but steady-state scale.
package repro_test

import (
	"context"
	"testing"

	"repro/api"
	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/memsys"
	"repro/internal/model"
	"repro/internal/queueing"
	"repro/internal/sim"
	"repro/internal/simcache"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workgen"
	"repro/internal/workloads"
)

// benchScale keeps per-iteration cost manageable while staying past the
// LLC-fill warm-up knee (see experiments.Quick).
func benchScale() experiments.Scale {
	s := experiments.Quick()
	s.MeasureInstr = 1_500_000
	return s
}

// benchSetup builds the scale the artifact benchmarks run at. The
// iterations share one in-process measurement cache and let the fit
// grids fan out — the configuration cmd/repro runs with — so the first
// iteration pays the simulation cost and steady-state iterations
// measure everything downstream of it.
func benchSetup(b *testing.B) experiments.Scale {
	b.Helper()
	s := benchScale()
	c, err := simcache.New(4096, "")
	if err != nil {
		b.Fatal(err)
	}
	s.SimCache = c
	return s
}

func runArtifact(b *testing.B, run func(*experiments.Suite, context.Context) (experiments.Artifact, error)) {
	b.Helper()
	scale := benchSetup(b)
	for i := 0; i < b.N; i++ {
		suite := experiments.NewSuite(scale)
		art, err := run(suite, context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if art.Text() == "" {
			b.Fatal("empty artifact")
		}
	}
}

func BenchmarkFigure1(b *testing.B) {
	runArtifact(b, (*experiments.Suite).Figure1)
}

func BenchmarkFigure2(b *testing.B) {
	runArtifact(b, (*experiments.Suite).Figure2)
}

func BenchmarkFigure3(b *testing.B) {
	runArtifact(b, (*experiments.Suite).Figure3)
}

func BenchmarkTable2(b *testing.B) {
	runArtifact(b, (*experiments.Suite).Table2)
}

func BenchmarkTable3(b *testing.B) {
	runArtifact(b, (*experiments.Suite).Table3)
}

func BenchmarkFigure4(b *testing.B) {
	runArtifact(b, (*experiments.Suite).Figure4)
}

func BenchmarkFigure5(b *testing.B) {
	runArtifact(b, (*experiments.Suite).Figure5)
}

func BenchmarkTable4(b *testing.B) {
	runArtifact(b, (*experiments.Suite).Table4)
}

func BenchmarkTable5(b *testing.B) {
	runArtifact(b, (*experiments.Suite).Table5)
}

func BenchmarkTable6(b *testing.B) {
	runArtifact(b, (*experiments.Suite).Table6)
}

func BenchmarkFigure6(b *testing.B) {
	runArtifact(b, (*experiments.Suite).Figure6)
}

func BenchmarkFigure7(b *testing.B) {
	runArtifact(b, (*experiments.Suite).Figure7)
}

func BenchmarkFigure8(b *testing.B) {
	runArtifact(b, (*experiments.Suite).Figure8)
}

func BenchmarkFigure9(b *testing.B) {
	runArtifact(b, (*experiments.Suite).Figure9)
}

func BenchmarkFigure10(b *testing.B) {
	runArtifact(b, (*experiments.Suite).Figure10)
}

func BenchmarkFigure11(b *testing.B) {
	runArtifact(b, (*experiments.Suite).Figure11)
}

func BenchmarkTable7(b *testing.B) {
	runArtifact(b, (*experiments.Suite).Table7)
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

// ---- Ablations (DESIGN.md §5) ----

// BenchmarkAblationQueueCurve compares the model over the measured
// composite curve against the analytic M/M/1 form.
func BenchmarkAblationQueueCurve(b *testing.B) {
	runArtifact(b, (*experiments.Suite).QueueCurveAblation)
}

// BenchmarkAblationPrefetch re-fits key workloads with the prefetcher
// disabled (the §VII blocking-factor mechanism).
func BenchmarkAblationPrefetch(b *testing.B) {
	runArtifact(b, (*experiments.Suite).PrefetchAblation)
}

// BenchmarkAblationPrefetchDepth sweeps prefetch depth vs fitted BF
// (§VII: prefetch effectiveness read off the blocking factor).
func BenchmarkAblationPrefetchDepth(b *testing.B) {
	runArtifact(b, (*experiments.Suite).PrefetchDepthSweep)
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

// ---- Hot-path microbenchmarks ----

// BenchmarkMachineSimulation measures raw simulator throughput in
// instructions per wall second for the flagship workload. It reuses one
// machine via Reset — the production configuration since the experiments
// layer pools machines — so steady-state iterations measure simulation,
// not construction.
func BenchmarkMachineSimulation(b *testing.B) {
	w, err := workloads.ByName("columnstore")
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.Threads = 8
	const instr = 2_000_000
	m, err := sim.New(cfg, w.Name(), w)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Reset(cfg, w.Name(), w); err != nil {
			b.Fatal(err)
		}
		if _, err := m.Run(context.Background(), 0, instr); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(instr)*float64(b.N)/b.Elapsed().Seconds(), "instr/s")
}

func BenchmarkCacheAccess(b *testing.B) {
	memCfg := memsys.DefaultConfig()
	mem, err := memsys.NewSimulator(memCfg)
	if err != nil {
		b.Fatal(err)
	}
	h, err := cache.New(cache.DefaultConfig(), mem)
	if err != nil {
		b.Fatal(err)
	}
	rng := trace.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := rng.Uint64n(1<<24) * 64
		h.Access(units.Duration(i), trace.Ref{Addr: addr}, units.GHzOf(2.5))
	}
}

// BenchmarkCacheAccessStream interleaves the streams the prefetcher
// trains on: ascending and descending line-by-line scans and a 16-byte
// stride scan, each over a footprint far beyond the LLC. Trained
// accesses run prefetchFill's window of lookups and fills, which the
// random traffic of BenchmarkCacheAccess never reaches.
func BenchmarkCacheAccessStream(b *testing.B) {
	mem, err := memsys.NewSimulator(memsys.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	h, err := cache.New(cache.DefaultConfig(), mem)
	if err != nil {
		b.Fatal(err)
	}
	const span = 1 << 26 // bytes per stream
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(i / 3)
		var addr uint64
		switch i % 3 {
		case 0:
			addr = k * 64 % span
		case 1:
			addr = 2*span - 64 - k*64%span
		default:
			addr = 2*span + k*16%span
		}
		h.Access(units.Duration(i), trace.Ref{Addr: addr}, units.GHzOf(2.5))
	}
}

func BenchmarkMemsysAccess(b *testing.B) {
	mem, err := memsys.NewSimulator(memsys.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	rng := trace.NewRNG(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mem.Access(units.Duration(i)*3, rng.Uint64n(1<<26)*64, memsys.Read)
	}
}

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

// BenchmarkFutureMemory evaluates the §VII future-memory designs.
func BenchmarkFutureMemory(b *testing.B) {
	runArtifact(b, (*experiments.Suite).FutureMemory)
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

// BenchmarkClusterSimulate runs the reference 8-host fleet under the
// model-aware weighted policy: the (tenant, host) pricing pass plus
// the discrete-event loop end to end.
func BenchmarkClusterSimulate(b *testing.B) {
	spec := cluster.Spec{
		Hosts:    cluster.DefaultFleet(),
		Tenants:  cluster.DefaultTenants(),
		Policy:   cluster.WeightedScore,
		Duration: 4 * units.Second,
		Warmup:   units.Second / 2,
		Seed:     42,
	}
	var events int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cluster.Simulate(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		events = res.Events
	}
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}
