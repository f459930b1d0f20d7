package repro_test

import (
	"context"
	"testing"

	"repro/internal/cache"
	"repro/internal/memsys"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workloads"
)

// Allocation gates for the measurement hot path. The ceilings match the
// check_allocs lines of scripts/bench.sh, which apply them to the
// benchmarks of the same names; these tests apply them in tier-1, so an
// accidental allocation on the path fails `go test ./...` too.
// testing.AllocsPerRun measures at GOMAXPROCS 1, without the runtime
// thread allocations a multi-CPU benchmark run adds.

func checkAllocs(t *testing.T, name string, runs int, ceiling float64, f func()) {
	t.Helper()
	got := testing.AllocsPerRun(runs, f)
	if got > ceiling {
		t.Errorf("%s: %.1f allocs/op, ceiling %.0f", name, got, ceiling)
	}
	t.Logf("%s: %.1f allocs/op (ceiling %.0f)", name, got, ceiling)
}

func newHierarchy(t *testing.T) *cache.Hierarchy {
	t.Helper()
	mem, err := memsys.NewSimulator(memsys.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	h, err := cache.New(cache.DefaultConfig(), mem)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestAllocsCacheAccess gates BenchmarkCacheAccess: random demand
// traffic through the hierarchy allocates nothing.
func TestAllocsCacheAccess(t *testing.T) {
	h := newHierarchy(t)
	rng := trace.NewRNG(1)
	i := 0
	checkAllocs(t, "CacheAccess", 10_000, 0, func() {
		h.Access(units.Duration(i), trace.Ref{Addr: rng.Uint64n(1<<24) * 64}, units.GHzOf(2.5))
		i++
	})
}

// TestAllocsCacheAccessStream gates BenchmarkCacheAccessStream: trained
// prefetch streams (ascending, descending and sub-line stride) allocate
// nothing.
func TestAllocsCacheAccessStream(t *testing.T) {
	h := newHierarchy(t)
	const span = 1 << 26
	i := 0
	checkAllocs(t, "CacheAccessStream", 30_000, 0, func() {
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
	})
}

// TestAllocsMemsysAccess gates BenchmarkMemsysAccess.
func TestAllocsMemsysAccess(t *testing.T) {
	mem, err := memsys.NewSimulator(memsys.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := trace.NewRNG(2)
	i := 0
	checkAllocs(t, "MemsysAccess", 10_000, 0, func() {
		mem.Access(units.Duration(i)*3, rng.Uint64n(1<<26)*64, memsys.Read)
		i++
	})
}

// TestAllocsMachineSimulation gates BenchmarkMachineSimulation: a pooled
// machine's Reset and a 2M-instruction run allocate little beyond the
// workload generators Reset builds.
func TestAllocsMachineSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 2M instructions per run")
	}
	w, err := workloads.ByName("columnstore")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.Threads = 8
	m, err := sim.New(cfg, w.Name(), w)
	if err != nil {
		t.Fatal(err)
	}
	checkAllocs(t, "MachineSimulation", 3, 220, func() {
		if err := m.Reset(cfg, w.Name(), w); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(context.Background(), 0, 2_000_000); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAllocsMachineCopy gates a copy of a warm 16-thread machine into a
// pooled machine, the step every probe of a fit grid takes: the pooled
// machine's memory, caches and cores are overwritten in place, so the
// copy allocates only its generator clones — five allocations per
// columnstore thread (the generator, its RNG, two scan cursors and its
// pending buffer), 80 in all.
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
	checkAllocs(t, "MachineCopy", 20, 80, func() {
		if err := dst.CopyFrom(src); err != nil {
			t.Fatal(err)
		}
	})
}
