package experiments

import (
	"context"
	"crypto/sha256"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/engine"
	"repro/internal/memsys"
	"repro/internal/sim"
	"repro/internal/simcache"
	"repro/internal/units"
	"repro/internal/workloads"
)

// TestFitWorkloadParallelMatchesSequential pins the determinism contract
// of the fan-out: a grid run over eight workers (GOMAXPROCS 8) must be
// byte-identical — every measurement and the fit derived from them — to
// the same grid run one config at a time (GOMAXPROCS 1).
func TestFitWorkloadParallelMatchesSequential(t *testing.T) {
	w, err := workloads.ByName("columnstore")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	configs := PaperScalingConfigs()
	scale := Scale{WarmupInstr: 400_000, MeasureInstr: 800_000}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	fitSeq, runsSeq, err := FitWorkload(ctx, w, configs, scale)
	if err != nil {
		t.Fatal(err)
	}

	runtime.GOMAXPROCS(8)
	fitPar, runsPar, err := FitWorkload(ctx, w, configs, scale)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(runsSeq, runsPar) {
		t.Fatal("parallel grid measurements differ from sequential")
	}
	if !reflect.DeepEqual(fitSeq, fitPar) {
		t.Fatal("parallel fit differs from sequential")
	}
}

// TestSimCacheHitReproducesMeasurement checks the cache replay path
// returns the recorded measurement exactly, not a re-run of it.
func TestSimCacheHitReproducesMeasurement(t *testing.T) {
	w, err := workloads.ByName("columnstore")
	if err != nil {
		t.Fatal(err)
	}
	c, err := simcache.New(16, "")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sc := ScalingConfig{CoreGHz: 2.5, Grade: memsys.DDR3_1867}
	scale := Scale{WarmupInstr: 300_000, MeasureInstr: 600_000, SimCache: c}

	cold, err := RunWorkload(ctx, w, sc, scale, false)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := RunWorkload(ctx, w, sc, scale, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("cache hit drifted from the recorded measurement")
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want exactly one miss then one hit", st)
	}
}

// TestSimCacheDiskReplayMatchesDriftHash regenerates Table 2 in a fresh
// suite served entirely from a warm disk cache and compares the rendered
// artifact's content hash — the same sha256 the results manifest records
// for drift detection — against the cold run.
func TestSimCacheDiskReplayMatchesDriftHash(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	run := func() ([32]byte, simcache.Stats) {
		t.Helper()
		c, err := simcache.New(256, dir)
		if err != nil {
			t.Fatal(err)
		}
		s := NewSuite(Scale{WarmupInstr: 400_000, MeasureInstr: 800_000, SimCache: c})
		art, err := s.Table2(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return sha256.Sum256([]byte(art.Text())), c.Stats()
	}

	coldHash, coldStats := run()
	if coldStats.Misses == 0 {
		t.Fatal("cold run recorded no cache misses")
	}
	warmHash, warmStats := run()
	if warmHash != coldHash {
		t.Fatal("disk-cache replay drifted: artifact content hash changed")
	}
	if warmStats.Misses != 0 {
		t.Fatalf("warm run missed %d times, want full disk replay (stats %+v)", warmStats.Misses, warmStats)
	}
	if warmStats.DiskHits == 0 {
		t.Fatal("warm run recorded no disk hits")
	}
}

// TestGridAllHitsSkipsWarm: a fit grid whose every point is already in
// the measurement cache replays them without warming a machine, so the
// fit resource reports no simulated instructions the second time; the
// first time it reports the warm-up plus each point's re-warm and
// measured phase, of which only the warm-up and about one point's worth
// were simulated functionally (the points share the warm machine's
// tracks).
func TestGridAllHitsSkipsWarm(t *testing.T) {
	c, err := simcache.New(64, "")
	if err != nil {
		t.Fatal(err)
	}
	scale := Scale{WarmupInstr: 400_000, MeasureInstr: 800_000, SimCache: c}
	n := uint64(len(PaperScalingConfigs()))
	minCold := scale.WarmupInstr + n*(rewarmInstr+scale.MeasureInstr)
	for run, want := range []string{"cold", "replayed"} {
		rr, err := engine.Run(context.Background(), NewSuite(scale).Registry(), []string{"table3"}, engine.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		var got *engine.ResourceResult
		for i := range rr.Resources {
			if rr.Resources[i].Name == FitResource("columnstore") {
				got = &rr.Resources[i]
			}
		}
		if got == nil || got.Err != nil {
			t.Fatalf("run %d: fit resource missing or failed: %+v", run, got)
		}
		t.Logf("%s grid: %d instructions simulated, %d functionally, %v", want, got.SimInstr, got.FuncInstr, got.Wall)
		point := rewarmInstr + scale.MeasureInstr
		switch {
		case want == "cold" && got.SimInstr < minCold:
			t.Fatalf("cold grid simulated %d instructions, want at least %d", got.SimInstr, minCold)
		case want == "cold" && (got.FuncInstr < scale.WarmupInstr+point || got.FuncInstr >= scale.WarmupInstr+2*point):
			t.Fatalf("cold grid simulated %d instructions functionally, want the %d-instruction warm-up plus one to two points' %d",
				got.FuncInstr, scale.WarmupInstr, point)
		case want == "replayed" && (got.SimInstr != 0 || got.FuncInstr != 0):
			t.Fatalf("fully cached grid simulated %d instructions (%d functionally), want 0", got.SimInstr, got.FuncInstr)
		}
	}
	// Fig. 2 plots columnstore, so its grid also measures the baseline copy.
	if st := c.Stats(); st.Misses != int64(n+1) || st.Hits != int64(n+1) {
		t.Fatalf("cache stats %+v, want %d misses then %d hits", st, n+1, n+1)
	}
}

// TestFitBaselineMatchesColdRun: the baseline a plotted workload's fit
// grid measures on a copy of its warm machine equals, Series included,
// the cold sampled run at the baseline platform.
func TestFitBaselineMatchesColdRun(t *testing.T) {
	const name = "proximity"
	if !plotted(name) {
		t.Fatalf("%s is not plotted by a time-series figure", name)
	}
	s := testSuite()
	got, err := s.baseline(bg, name)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunWorkload(bg, w, warmScaling, s.Scale, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Series.Samples) < 2 {
		t.Fatalf("cold run recorded %d samples, want a series", len(want.Series.Samples))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("baseline copy differs from the cold run: copy CPI %v over %d samples, cold CPI %v over %d samples",
			got.CPI, len(got.Series.Samples), want.CPI, len(want.Series.Samples))
	}
}

// TestFitBaselineKeepsColdKey: the baseline copy is cached under the cold
// sampled run's key, so that run replays it.
func TestFitBaselineKeepsColdKey(t *testing.T) {
	c, err := simcache.New(64, "")
	if err != nil {
		t.Fatal(err)
	}
	scale := Scale{WarmupInstr: 400_000, MeasureInstr: 800_000, SampleInterval: Quick().SampleInterval, SimCache: c}
	s := NewSuite(scale)
	got, err := s.baseline(bg, "webcache")
	if err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	w, err := workloads.ByName("webcache")
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunWorkload(bg, w, warmScaling, scale, true)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != before.Hits+1 || st.Misses != before.Misses {
		t.Fatalf("cold sampled run after the fit: stats %+v -> %+v, want one hit", before, st)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("replayed cold run differs from the baseline copy")
	}
}

// TestRunWorkloadMatchesColdMachine anchors the copy path to the plain
// machine: RunWorkload, which measures a copy of a warm machine, equals —
// Series included — a machine built with sim.New and measured by one Run,
// sampled or not, at the baseline and at a slower point, whether the run
// is simulated (a cache miss) or replayed (a hit).
func TestRunWorkloadMatchesColdMachine(t *testing.T) {
	w, err := workloads.ByName("webcache")
	if err != nil {
		t.Fatal(err)
	}
	c, err := simcache.New(16, "")
	if err != nil {
		t.Fatal(err)
	}
	scale := Scale{WarmupInstr: 400_000, MeasureInstr: 800_000, SampleInterval: Quick().SampleInterval, SimCache: c}
	for _, sc := range []ScalingConfig{warmScaling, {CoreGHz: 2.1, Grade: memsys.DDR3_1333}} {
		for _, sample := range []bool{false, true} {
			cfg := sim.DefaultConfig()
			cfg.Threads = w.FitThreads()
			cfg.Core.Freq = units.GHzOf(sc.CoreGHz)
			cfg.Mem.Grade = sc.Grade
			if sample {
				cfg.SampleInterval = scale.SampleInterval
			}
			m, err := sim.New(cfg, w.Name(), w)
			if err != nil {
				t.Fatal(err)
			}
			want, err := m.Run(bg, scale.WarmupInstr, scale.MeasureInstr)
			if err != nil {
				t.Fatal(err)
			}
			if sample && len(want.Series.Samples) < 2 {
				t.Fatalf("cold run recorded %d samples, want a series", len(want.Series.Samples))
			}
			for _, lookup := range []string{"miss", "hit"} {
				before := c.Stats()
				got, err := RunWorkload(bg, w, sc, scale, sample)
				if err != nil {
					t.Fatal(err)
				}
				st := c.Stats()
				if hit := st.Hits > before.Hits; hit != (lookup == "hit") {
					t.Fatalf("%v sample=%v: stats %+v -> %+v, want a cache %s", sc, sample, before, st, lookup)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%v sample=%v (%s): RunWorkload CPI %v over %d samples, cold machine CPI %v over %d samples",
						sc, sample, lookup, got.CPI, len(got.Series.Samples), want.CPI, len(want.Series.Samples))
				}
			}
		}
	}
}
