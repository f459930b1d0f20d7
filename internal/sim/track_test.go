package sim

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/memsys"
	"repro/internal/units"
	"repro/internal/workloads"
)

// TestFunctionalTrackIgnoresTiming is the premise of shared tracks: no
// cache decision reads a clock. For every workload, two copies of one
// warm single-thread machine are retimed to the ends of the §V.A grid,
// 2.1 GHz with DDR3-1067 and 3.1 GHz with DDR3-1867, re-warmed for a
// fit grid's 2 M instructions and measured for the quick scale's 3 M.
// Each copy's source is warmed on its own, so each track is extended
// under one timing only. Both tracks must hold identical records and
// identical functional counters, and the measurements may differ only in
// clocks, PrefLate and DemandMissLatency: with one thread, both measure
// the same blocks.
func TestFunctionalTrackIgnoresTiming(t *testing.T) {
	const warm, rewarm, measure = 2_000_000, 2_000_000, 3_000_000
	ctx := context.Background()
	for _, w := range workloads.All() {
		t.Run(w.Name(), func(t *testing.T) {
			t.Parallel()
			run := func(ghz float64, grade memsys.Grade) (*track, Measurement) {
				cfg := DefaultConfig()
				cfg.Threads = 1
				src, err := New(cfg, w.Name(), w)
				if err != nil {
					t.Fatal(err)
				}
				if err := src.Warm(ctx, warm); err != nil {
					t.Fatal(err)
				}
				var m Machine
				if err := m.CopyFrom(src); err != nil {
					t.Fatal(err)
				}
				if err := m.Retime(units.GHzOf(ghz), grade); err != nil {
					t.Fatal(err)
				}
				meas, err := m.Run(ctx, rewarm, measure)
				if err != nil {
					t.Fatal(err)
				}
				return m.cursors[0].t, meas
			}
			slowT, slow := run(2.1, memsys.DDR3_1067)
			fastT, fast := run(3.1, memsys.DDR3_1867)

			if slow.CPI == fast.CPI {
				t.Fatalf("retiming left CPI at %v: the two timings are not different", slow.CPI)
			}
			if slowT.first != fastT.first || slowT.n != fastT.n || len(slowT.recs) == 0 {
				t.Fatalf("tracks cover blocks [%d, %d) and [%d, %d)", slowT.first, slowT.n, fastT.first, fastT.n)
			}
			for i := range slowT.recs {
				if !reflect.DeepEqual(slowT.recs[i], fastT.recs[i]) {
					t.Fatalf("block %d's record differs between timings:\n2.1 GHz %+v\n3.1 GHz %+v",
						slowT.first+uint64(i), slowT.recs[i], fastT.recs[i])
				}
			}
			if a, b := slowT.h.Counters(), fastT.h.Counters(); !reflect.DeepEqual(a, b) {
				t.Fatalf("functional counters differ between timings:\n2.1 GHz %+v\n3.1 GHz %+v", a, b)
			}
			fastCache := fast.Cache
			fastCache.PrefLate, fastCache.DemandMissLatency = slow.Cache.PrefLate, slow.Cache.DemandMissLatency
			if !reflect.DeepEqual(slow.Cache, fastCache) || slow.Instructions != fast.Instructions || slow.IOPI != fast.IOPI {
				t.Fatalf("measured functional counters differ between timings:\n2.1 GHz %d instr %+v\n3.1 GHz %d instr %+v",
					slow.Instructions, slow.Cache, fast.Instructions, fast.Cache)
			}
		})
	}
}

// TestSharedTrackConcurrentProbes is a fit grid on one shared set of
// tracks: eight copies of one warm machine, retimed to the paper's
// 4 core speeds × 2 memory grades, run concurrently. Whichever copy
// reaches a block first generates it while the others wait or read it,
// and each must measure what the same copy measures when the eight run
// one after another on a second, identically warmed machine. Each block
// is generated once either way, so the copies' functional instructions
// sum to the same total.
func TestSharedTrackConcurrentProbes(t *testing.T) {
	const warm = 400_000
	ctx := context.Background()
	type point struct {
		ghz   float64
		grade memsys.Grade
	}
	var points []point
	for _, g := range []memsys.Grade{memsys.DDR3_1867, memsys.DDR3_1333} {
		for _, f := range []float64{2.1, 2.4, 2.7, 3.1} {
			points = append(points, point{f, g})
		}
	}
	warmed := func() *Machine {
		src, err := New(copyTestConfig(), "mix", mixFactory{})
		if err != nil {
			t.Fatal(err)
		}
		if err := src.Warm(ctx, warm); err != nil {
			t.Fatal(err)
		}
		return src
	}
	probe := func(src *Machine, p point) (Measurement, uint64, error) {
		var m Machine
		if err := m.CopyFrom(src); err != nil {
			return Measurement{}, 0, err
		}
		if err := m.Retime(units.GHzOf(p.ghz), p.grade); err != nil {
			return Measurement{}, 0, err
		}
		meas, err := m.Run(ctx, copyRewarm, copyMeasure)
		return meas, m.Functional(), err
	}

	src := warmed()
	got := make([]Measurement, len(points))
	var gotFunc uint64
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make([]error, len(points))
	for i, p := range points {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var f uint64
			got[i], f, errs[i] = probe(src, p)
			mu.Lock()
			gotFunc += f
			mu.Unlock()
		}()
	}
	wg.Wait()

	seq := warmed()
	var wantFunc uint64
	for i, p := range points {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		want, f, err := probe(seq, p)
		if err != nil {
			t.Fatal(err)
		}
		wantFunc += f
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("probe at %v GHz/%v run concurrently diverged from the same probe run alone:\nconcurrent %+v\nalone      %+v",
				p.ghz, p.grade, got[i], want)
		}
	}
	if gotFunc != wantFunc || wantFunc == 0 {
		t.Errorf("copies simulated %d functional instructions concurrently, %d one after another", gotFunc, wantFunc)
	}
}

// TestRecycledSlabsKeepLiveRecords: a track hands its record slabs back
// for reuse only when its last user lets go, and then each exactly once.
// Two copies of a warm machine share its tracks; one runs ahead, so the
// tracks retain records the other has yet to replay. The warm machine
// and the copy that ran let go, and three more such grids run one after
// another, each drawing released slabs and releasing its own. Both
// copies of each grid must measure what the first grid's first copy
// did, and the copy left behind must still replay exactly that.
func TestRecycledSlabsKeepLiveRecords(t *testing.T) {
	const warm, run = 400_000, 2_000_000
	ctx := context.Background()
	grid := func() (src, ahead, behind *Machine) {
		src, err := New(copyTestConfig(), "mix", mixFactory{})
		if err != nil {
			t.Fatal(err)
		}
		if err := src.Warm(ctx, warm); err != nil {
			t.Fatal(err)
		}
		ahead, behind = new(Machine), new(Machine)
		for _, m := range []*Machine{ahead, behind} {
			if err := m.CopyFrom(src); err != nil {
				t.Fatal(err)
			}
		}
		return src, ahead, behind
	}
	src, ahead, behind := grid()
	want, err := ahead.Run(ctx, 0, run)
	if err != nil {
		t.Fatal(err)
	}
	src.Release()
	ahead.Release()
	for i := 0; i < 3; i++ {
		src, ahead, other := grid()
		for _, m := range []*Machine{ahead, other} {
			got, err := m.Run(ctx, 0, run)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("grid %d on recycled slabs measured CPI %v, the first grid %v", i+2, got.CPI, want.CPI)
			}
		}
		for _, m := range []*Machine{src, ahead, other} {
			m.Release()
		}
	}
	got, err := behind.Run(ctx, 0, run)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("copy left behind replayed CPI %v, the copy ahead measured %v", got.CPI, want.CPI)
	}
}
