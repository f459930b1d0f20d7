package repro_test

import (
	"context"
	"testing"

	"repro/internal/cache"
	"repro/internal/memsys"
	"repro/internal/model"
	"repro/internal/queueing"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workloads"
)

// The measurement hot path's operations, each written once: its
// Benchmark* in bench_test.go times the op, and its TestAllocs* here
// gates the op's allocations in tier-1, so an accidental allocation on
// the path fails `go test ./...`. testing.AllocsPerRun measures at
// GOMAXPROCS 1, without runtime thread allocations, so the counts are
// stable and each ceiling sits just above its measurement.

func checkAllocs(t *testing.T, name string, runs int, ceiling float64, f func()) {
	t.Helper()
	got := testing.AllocsPerRun(runs, f)
	if got > ceiling {
		t.Errorf("%s: %.1f allocs/op, ceiling %.0f", name, got, ceiling)
	}
	t.Logf("%s: %.1f allocs/op (ceiling %.0f)", name, got, ceiling)
}

func newHierarchy(tb testing.TB) *cache.Hierarchy {
	tb.Helper()
	mem, err := memsys.NewSimulator(memsys.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	h, err := cache.New(cache.DefaultConfig(), mem)
	if err != nil {
		tb.Fatal(err)
	}
	return h
}

// cacheAccessOp is one random demand access through the hierarchy.
func cacheAccessOp(tb testing.TB) func() {
	h := newHierarchy(tb)
	rng := trace.NewRNG(1)
	i := 0
	return func() {
		h.Access(units.Duration(i), trace.Ref{Addr: rng.Uint64n(1<<24) * 64}, units.GHzOf(2.5))
		i++
	}
}

// cacheAccessStreamOp interleaves the streams the prefetcher trains on:
// ascending and descending line-by-line scans and a 16-byte stride
// scan, each over a footprint far beyond the LLC. Trained accesses run
// prefetchFill's window of lookups and fills, which the random traffic
// of cacheAccessOp never reaches.
func cacheAccessStreamOp(tb testing.TB) func() {
	h := newHierarchy(tb)
	const span = 1 << 26 // bytes per stream
	i := 0
	return func() {
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
		i++
	}
}

// memsysAccessOp is one random read through the memory system.
func memsysAccessOp(tb testing.TB) func() {
	mem, err := memsys.NewSimulator(memsys.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	rng := trace.NewRNG(2)
	i := 0
	return func() {
		mem.Access(units.Duration(i)*3, rng.Uint64n(1<<26)*64, memsys.Read)
		i++
	}
}

// machineSimInstr is the run length of one machineSimulationOp.
const machineSimInstr = 2_000_000

// machineSimulationOp resets one 8-thread columnstore machine and runs
// it for machineSimInstr instructions. Reusing the machine is the
// production configuration (the experiments layer pools machines), so
// the op measures simulation, not construction.
func machineSimulationOp(tb testing.TB) func() {
	w, err := workloads.ByName("columnstore")
	if err != nil {
		tb.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.Threads = 8
	m, err := sim.New(cfg, w.Name(), w)
	if err != nil {
		tb.Fatal(err)
	}
	return func() {
		if err := m.Reset(cfg, w.Name(), w); err != nil {
			tb.Fatal(err)
		}
		if _, err := m.Run(context.Background(), 0, machineSimInstr); err != nil {
			tb.Fatal(err)
		}
	}
}

// Fit-grid run lengths of one machineGridOp, in aggregate instructions.
const (
	gridWarmInstr    = 2_000_000
	gridRewarmInstr  = 500_000
	gridMeasureInstr = 1_000_000
)

// machineGridOp is one fit grid: it Resets and warms a 16-thread
// columnstore machine, then takes eight probes on retimed copies of it
// (the paper's 4 core speeds × 2 memory grades), each re-warmed and
// measured. The copies share the warm machine's tracks, so the grid
// generates each block and steps it through the caches once, and every
// probe replays only its timing.
func machineGridOp(tb testing.TB) func() {
	w, err := workloads.ByName("columnstore")
	if err != nil {
		tb.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	src, err := sim.New(cfg, w.Name(), w)
	if err != nil {
		tb.Fatal(err)
	}
	copies := make([]sim.Machine, 8)
	ctx := context.Background()
	return func() {
		if err := src.Reset(cfg, w.Name(), w); err != nil {
			tb.Fatal(err)
		}
		if err := src.Warm(ctx, gridWarmInstr); err != nil {
			tb.Fatal(err)
		}
		for i := range copies {
			m := &copies[i]
			if err := m.CopyFrom(src); err != nil {
				tb.Fatal(err)
			}
			grade := memsys.DDR3_1867
			if i >= 4 {
				grade = memsys.DDR3_1333
			}
			if err := m.Retime(units.GHzOf([]float64{2.1, 2.4, 2.7, 3.1}[i%4]), grade); err != nil {
				tb.Fatal(err)
			}
			if _, err := m.Run(ctx, gridRewarmInstr, gridMeasureInstr); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// TestAllocsCacheAccess: random demand traffic through the hierarchy
// allocates nothing.
func TestAllocsCacheAccess(t *testing.T) {
	checkAllocs(t, "CacheAccess", 10_000, 0, cacheAccessOp(t))
}

// TestAllocsCacheAccessStream: trained prefetch streams (ascending,
// descending and sub-line stride) allocate nothing.
func TestAllocsCacheAccessStream(t *testing.T) {
	checkAllocs(t, "CacheAccessStream", 30_000, 0, cacheAccessStreamOp(t))
}

// TestAllocsMemsysAccess: a memory-system access allocates nothing.
func TestAllocsMemsysAccess(t *testing.T) {
	checkAllocs(t, "MemsysAccess", 10_000, 0, memsysAccessOp(t))
}

// TestAllocsMachineSimulation: a pooled machine's Reset and run allocate
// little beyond the workload generators Reset builds. It measures 102
// allocs/op; the ceiling of 110 leaves ~8% headroom.
func TestAllocsMachineSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 2M instructions per run")
	}
	checkAllocs(t, "MachineSimulation", 3, 110, machineSimulationOp(t))
}

// TestAllocsMachineCopy gates a copy of a warm 16-thread machine into a
// pooled machine, the step every probe of a fit grid takes: the pooled
// machine's memory and cores' timing state are overwritten in place,
// and its threads attach to the warm machine's tracks, so the copy
// allocates nothing.
func TestAllocsMachineCopy(t *testing.T) {
	w, err := workloads.ByName("columnstore")
	if err != nil {
		t.Fatal(err)
	}
	src, err := sim.New(sim.DefaultConfig(), w.Name(), w)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Warm(context.Background(), 1_000_000); err != nil {
		t.Fatal(err)
	}
	var dst sim.Machine
	checkAllocs(t, "MachineCopy", 20, 0, func() {
		if err := dst.CopyFrom(src); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAllocsMachineGrid: a fit grid allocates its sixteen generators,
// and the tracks the warm machine takes and the record slabs its copies
// share when a collection has emptied the pools of released ones; the
// copies reuse their timing state. It measures 492 allocs/op; the
// ceiling of 530 leaves ~7% headroom.
func TestAllocsMachineGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 14M instructions per run")
	}
	checkAllocs(t, "MachineGrid", 3, 530, machineGridOp(t))
}

// TestAllocsModelEvaluate gates one analytic-model solve of the Big
// Data class on the baseline's one-tier topology: it allocates only its
// per-tier slices (visit fractions, queues and the reported points). It
// measures 3 allocs/op; the ceiling is 4.
func TestAllocsModelEvaluate(t *testing.T) {
	top := model.BaselinePlatform(queueing.MM1{Service: 6 * units.Nanosecond, ULimit: 0.95}).Topology()
	p := model.Params{Name: "Big Data", CPICache: 0.91, BF: 0.21, MPKI: 5.5, WBR: 0.92}
	ctx := context.Background()
	checkAllocs(t, "ModelEvaluate", 1000, 4, func() {
		if _, err := model.EvaluateTopology(ctx, p, top); err != nil {
			t.Fatal(err)
		}
	})
}
