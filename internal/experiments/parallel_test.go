package experiments

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/engine"
	"repro/internal/memsys"
	"repro/internal/sim"
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

// TestGridColdRunCounts: the columnstore fit grid warms one machine and
// measures every point on a copy of it. It reports the warm-up plus each
// point's re-warm and measured phase as simulated, of which only the
// warm-up and about one point's worth were simulated functionally (the
// points share the warm machine's tracks), and one probe per point plus
// the baseline copy Fig. 2 plots.
func TestGridColdRunCounts(t *testing.T) {
	scale := Scale{WarmupInstr: 400_000, MeasureInstr: 800_000}
	n := uint64(len(PaperScalingConfigs()))
	minCold := scale.WarmupInstr + n*(rewarmInstr+scale.MeasureInstr)
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
		t.Fatalf("fit resource missing or failed: %+v", got)
	}
	t.Logf("grid: %d instructions simulated, %d functionally, %d probes, %v", got.SimInstr, got.FuncInstr, got.Probes, got.Wall)
	point := rewarmInstr + scale.MeasureInstr
	if got.SimInstr < minCold {
		t.Fatalf("cold grid simulated %d instructions, want at least %d", got.SimInstr, minCold)
	}
	if got.FuncInstr < scale.WarmupInstr+point || got.FuncInstr >= scale.WarmupInstr+2*point {
		t.Fatalf("cold grid simulated %d instructions functionally, want the %d-instruction warm-up plus one to two points' %d",
			got.FuncInstr, scale.WarmupInstr, point)
	}
	// Fig. 2 plots columnstore, so its grid also measures the baseline copy.
	if got.Probes != n+1 {
		t.Fatalf("grid recorded %d probes, want %d", got.Probes, n+1)
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

// TestRunWorkloadMatchesColdMachine anchors the copy path to the plain
// machine: RunWorkload, which measures a copy of a warm machine, equals —
// Series included — a machine built with sim.New and measured by one Run,
// sampled or not, at the baseline and at a slower point.
func TestRunWorkloadMatchesColdMachine(t *testing.T) {
	w, err := workloads.ByName("webcache")
	if err != nil {
		t.Fatal(err)
	}
	scale := Scale{WarmupInstr: 400_000, MeasureInstr: 800_000, SampleInterval: Quick().SampleInterval}
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
			got, err := RunWorkload(bg, w, sc, scale, sample)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v sample=%v: RunWorkload CPI %v over %d samples, cold machine CPI %v over %d samples",
					sc, sample, got.CPI, len(got.Series.Samples), want.CPI, len(want.Series.Samples))
			}
		}
	}
}
