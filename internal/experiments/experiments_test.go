package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/memsys"
	"repro/internal/model"
	"repro/internal/params"
	"repro/internal/workloads"
)

func evalCPI(c model.Params, pl model.Platform) (float64, error) {
	op, err := model.Evaluate(context.Background(), c, pl)
	if err != nil {
		return 0, err
	}
	return op.CPI, nil
}

func fmtSscanf(s string, v *float64) (int, error) {
	return fmt.Sscanf(s, "%f%%", v)
}

var bg = context.Background()

// sharedSuite caches fits across tests (fits are the expensive part).
var (
	suiteOnce sync.Once
	suite     *Suite
)

func testSuite() *Suite {
	suiteOnce.Do(func() { suite = NewSuite(Quick()) })
	return suite
}

func TestFigure1(t *testing.T) {
	a, err := testSuite().Figure1(bg)
	if err != nil {
		t.Fatal(err)
	}
	if a.ID != "fig1" || len(a.Tables) != 1 || len(a.Charts) != 1 {
		t.Fatalf("artifact shape: %+v", a.ID)
	}
	if a.Tables[0].NumRows() != 8 {
		t.Fatalf("rows = %d", a.Tables[0].NumRows())
	}
	if !strings.Contains(a.Text(), "2012") {
		t.Fatal("missing base year")
	}
}

func TestFigure7CurveShape(t *testing.T) {
	fig7, curve, err := CalibrateQueueCurve(bg, Quick())
	if err != nil {
		t.Fatal(err)
	}
	// The paper's baseline efficiency, from the 100%-read DDR3-1867
	// case: ~70%.
	base := fig7[0]
	if base.Combo != (Fig7Combo{memsys.DDR3_1867, 1}) {
		t.Fatalf("first combo = %+v, want DDR3-1867 100%% read", base.Combo)
	}
	eff := float64(base.MaxBW) / float64(memsysConfigFor(base.Combo.Grade).RawBandwidth())
	if eff < 0.64 || eff > 0.76 {
		t.Fatalf("efficiency = %v, want ≈0.70", eff)
	}
	// Monotone nondecreasing queue delay (Fig. 7's shape).
	prev := -1.0
	for u := 0.1; u <= 0.9; u += 0.1 {
		d := curve.Delay(u).Nanoseconds()
		if d < prev-0.5 {
			t.Fatalf("queue delay not monotone at u=%v: %v after %v", u, d, prev)
		}
		prev = d
	}
	// Low at low utilization, steep near saturation.
	if lo := curve.Delay(0.2).Nanoseconds(); lo > 10 {
		t.Fatalf("delay at 20%% = %v ns, too high", lo)
	}
	hi := curve.Delay(0.93).Nanoseconds()
	if hi < 20 {
		t.Fatalf("delay at 93%% = %v ns, too low", hi)
	}
	if max := curve.MaxStableDelay().Nanoseconds(); max < hi-0.5 {
		t.Fatalf("max stable (%v) below 93%% point (%v)", max, hi)
	}
}

func TestSweepComboSubtractsCompulsory(t *testing.T) {
	c, err := SweepCombo(bg, Fig7Combo{Grade: memsys.DDR3_1867, ReadFraction: 1}, Quick(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Points) == 0 {
		t.Fatal("no points")
	}
	// Queuing delays are compulsory-subtracted: the lightest point is ≈0.
	if got := c.Points[0].Queue.Nanoseconds(); got > 2 {
		t.Fatalf("lightest-point queue = %v, want ≈0", got)
	}
	if c.MaxBW <= 0 {
		t.Fatal("max bandwidth must be measured")
	}
}

func TestFigure8Headlines(t *testing.T) {
	a, err := testSuite().Figure8(bg)
	if err != nil {
		t.Fatal(err)
	}
	text := a.Text()
	if !strings.Contains(text, "baseline") {
		t.Fatal("missing baseline row")
	}
	if len(a.Tables[0].Rows()) != 9 {
		t.Fatalf("rows = %d, want 9 variants", len(a.Tables[0].Rows()))
	}
}

func TestFigure10And11Headlines(t *testing.T) {
	s := testSuite()
	base, err := s.BaselinePlatform(bg)
	if err != nil {
		t.Fatal(err)
	}
	classes, err := s.ClassParams(bg, false)
	if err != nil {
		t.Fatal(err)
	}
	// Reproduce Fig. 11's averages directly from the model over the
	// calibrated (measured) curve.
	byName := map[string]float64{}
	for _, c := range classes {
		b, err := evalCPI(c, base)
		if err != nil {
			t.Fatal(err)
		}
		m, err := evalCPI(c, base.WithCompulsory(base.Compulsory+10))
		if err != nil {
			t.Fatal(err)
		}
		byName[c.Name] = m/b - 1
	}
	if got := byName["Enterprise"]; got < params.EnterprisePctPer10ns-0.010 || got > params.EnterprisePctPer10ns+0.010 {
		t.Fatalf("enterprise per 10ns = %.2f%%, paper ≈%.1f%%", got*100, params.EnterprisePctPer10ns*100)
	}
	if got := byName["Big Data"]; got < params.BigDataPctPer10ns-0.008 || got > params.BigDataPctPer10ns+0.008 {
		t.Fatalf("big data per 10ns = %.2f%%, paper ≈%.1f%%", got*100, params.BigDataPctPer10ns*100)
	}
	if got := byName["HPC"]; got > params.HPCPctPer10ns+0.005 {
		t.Fatalf("HPC per 10ns = %.2f%%, paper ≈%.0f%%", got*100, params.HPCPctPer10ns*100)
	}
}

func TestTable7HPCBenefit(t *testing.T) {
	a, err := testSuite().Table7(bg)
	if err != nil {
		t.Fatal(err)
	}
	rows := a.Tables[0].Rows()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// HPC row: ~24% bandwidth benefit, no latency benefit.
	var hpcRow []string
	for _, r := range rows {
		if r[0] == "HPC" {
			hpcRow = r
		}
	}
	if hpcRow == nil {
		t.Fatal("missing HPC row")
	}
	var benefit float64
	if _, err := fmtSscanf(hpcRow[1], &benefit); err != nil {
		t.Fatalf("parse %q: %v", hpcRow[1], err)
	}
	if benefit < params.HPCBenefitPer1GBs*100-6 || benefit > params.HPCBenefitPer1GBs*100+6 {
		t.Fatalf("HPC BW benefit = %v%%, paper ≈%.0f%%", benefit, params.HPCBenefitPer1GBs*100)
	}
	if hpcRow[4] != "unbounded" {
		t.Fatalf("HPC latency equivalence = %q, want unbounded", hpcRow[4])
	}
}

func TestTieredMemoryArtifact(t *testing.T) {
	a, err := testSuite().TieredMemory(bg)
	if err != nil {
		t.Fatal(err)
	}
	rows := a.Tables[0].Rows()
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	// First row is 100% DRAM: regression vs all-DRAM ≈ 0.
	if !strings.HasPrefix(rows[0][4], "-0%") && !strings.HasPrefix(rows[0][4], "0%") {
		t.Fatalf("100%%-hit row regression = %q, want ≈0%%", rows[0][4])
	}
}

func TestQueueCurveAblation(t *testing.T) {
	a, err := testSuite().QueueCurveAblation(bg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Tables[0].Rows()) != 3 {
		t.Fatal("want 3 class rows")
	}
}

func TestEfficiencyTable(t *testing.T) {
	a, err := testSuite().EfficiencyTable(bg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Tables[0].Rows()) != 4 {
		t.Fatal("want 4 combo rows")
	}
}

// TestColumnstoreFitMatchesPaper is the end-to-end reproduction check for
// the flagship workload: simulate, scale, fit, compare to Table 2.
func TestColumnstoreFitMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("full scaling fit")
	}
	fit, err := testSuite().Fit(bg, "columnstore")
	if err != nil {
		t.Fatal(err)
	}
	target, _ := params.ByWorkload("columnstore")
	p := fit.Params
	if math.Abs(p.CPICache-target.CPICache) > 0.08 {
		t.Fatalf("CPI_cache = %v, paper %v", p.CPICache, target.CPICache)
	}
	if math.Abs(p.BF-target.BF) > 0.05 {
		t.Fatalf("BF = %v, paper %v", p.BF, target.BF)
	}
	if math.Abs(p.MPKI-target.MPKI) > 1.2 {
		t.Fatalf("MPKI = %v, paper %v", p.MPKI, target.MPKI)
	}
	if fit.R2 < 0.98 {
		t.Fatalf("R2 = %v, paper reports 0.95", fit.R2)
	}
	// Table 3: computed-vs-measured error within the paper's ±3%.
	if e := fit.MaxAbsError(); e > 0.03 {
		t.Fatalf("validation error = %.1f%%, paper ≤3%%", e*100)
	}
}

// TestHPCFitIsBandwidthHungryAndLatencyInsensitive checks the class
// signature without pinning exact cells.
func TestHPCFitIsBandwidthHungryAndLatencyInsensitive(t *testing.T) {
	if testing.Short() {
		t.Skip("full scaling fit")
	}
	fit, err := testSuite().Fit(bg, "bwaves")
	if err != nil {
		t.Fatal(err)
	}
	if fit.Params.MPKI < 25 {
		t.Fatalf("bwaves MPKI = %v, want ≥25", fit.Params.MPKI)
	}
	if fit.Params.BF > 0.12 {
		t.Fatalf("bwaves BF = %v, want ≤0.12 (prefetch-covered)", fit.Params.BF)
	}
}

func TestSuiteCachesFits(t *testing.T) {
	if testing.Short() {
		t.Skip("full scaling fit")
	}
	s := testSuite()
	a, err := s.Fit(bg, "columnstore")
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Fit(bg, "columnstore")
	if err != nil {
		t.Fatal(err)
	}
	if a.R2 != b.R2 || a.Params != b.Params {
		t.Fatal("cached fit must be identical")
	}
	runs, err := s.FitRuns(bg, "columnstore")
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != len(PaperScalingConfigs()) {
		t.Fatalf("runs = %d", len(runs))
	}
}

func TestTimeSeriesExperiment(t *testing.T) {
	// One representative time-series artifact (Fig. 4 for one workload
	// at a small scale; the baseline comes from the workload's grid).
	s := NewSuite(Scale{WarmupInstr: 400_000, MeasureInstr: 800_000,
		SampleInterval: Quick().SampleInterval, MLCDuration: Quick().MLCDuration})
	// Only a plotted workload's grid measures a baseline; any other name
	// is an error, raised before anything is simulated.
	if _, err := s.timeSeries(bg, []string{"raytrace"}, "figX", "test"); err == nil {
		t.Fatal("want an error for a workload no time-series figure plots")
	}
	a, err := s.timeSeries(bg, []string{"webcache"}, "figX", "test")
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Charts) != 2 {
		t.Fatal("want CPI + BW charts")
	}
	if a.Tables[0].NumRows() != 1 {
		t.Fatal("want one summary row")
	}
}

func TestRunWorkloadRespectsScalingConfig(t *testing.T) {
	w, err := workloads.ByName("interp")
	if err != nil {
		t.Fatal(err)
	}
	scale := Scale{WarmupInstr: 1_000_000, MeasureInstr: 1_000_000}
	m21, err := RunWorkload(bg, w, ScalingConfig{CoreGHz: 2.1, Grade: memsys.DDR3_1867}, scale, false)
	if err != nil {
		t.Fatal(err)
	}
	if m21.Freq.GHz() != 2.1 || m21.MemGrade != memsys.DDR3_1867 {
		t.Fatalf("config not applied: %v %v", m21.Freq, m21.MemGrade)
	}
}

func TestPaperScalingConfigs(t *testing.T) {
	cfgs := PaperScalingConfigs()
	if len(cfgs) != 8 {
		t.Fatalf("configs = %d, want 8 (4 speeds × 2 grades)", len(cfgs))
	}
	seen := map[float64]bool{}
	for _, c := range cfgs {
		seen[c.CoreGHz] = true
	}
	for _, ghz := range []float64{2.1, 2.4, 2.7, 3.1} {
		if !seen[ghz] {
			t.Fatalf("missing Table 3 core speed %v", ghz)
		}
	}
}
