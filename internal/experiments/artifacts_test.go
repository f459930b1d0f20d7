package experiments

import (
	"context"
	"strconv"
	"strings"
	"testing"
)

// These tests exercise every artifact constructor end to end at Quick
// scale. Fit-heavy ones share the package suite (fits are cached) and
// are skipped under -short.

func TestFigure2BigDataPanels(t *testing.T) {
	if testing.Short() {
		t.Skip("time-series runs")
	}
	a, err := testSuite().Figure2(bg)
	if err != nil {
		t.Fatal(err)
	}
	if a.ID != "fig2" || len(a.Charts) != 2 {
		t.Fatalf("artifact shape: %s/%d charts", a.ID, len(a.Charts))
	}
	rows := a.Tables[0].Rows()
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4 big-data workloads", len(rows))
	}
	// Spark's utilization is visibly below the others (Fig. 2's panel).
	var sparkUtil, proxUtil string
	for _, r := range rows {
		switch r[0] {
		case "spark":
			sparkUtil = r[1]
		case "proximity":
			proxUtil = r[1]
		}
	}
	su, err := strconv.Atoi(strings.TrimSuffix(sparkUtil, "%"))
	if err != nil {
		t.Fatalf("parse %q: %v", sparkUtil, err)
	}
	pu, err := strconv.Atoi(strings.TrimSuffix(proxUtil, "%"))
	if err != nil {
		t.Fatalf("parse %q: %v", proxUtil, err)
	}
	if su < 55 || su > 85 {
		t.Fatalf("spark utilization = %d%%, paper ≈70%%", su)
	}
	if pu < 95 {
		t.Fatalf("proximity utilization = %d%%, paper ≈100%%", pu)
	}
}

func TestFigure4And5Panels(t *testing.T) {
	if testing.Short() {
		t.Skip("time-series runs")
	}
	a4, err := testSuite().Figure4(bg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a4.Tables[0].Rows()) != 4 {
		t.Fatal("fig4 wants 4 enterprise workloads")
	}
	a5, err := testSuite().Figure5(bg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a5.Tables[0].Rows()) != 4 {
		t.Fatal("fig5 wants 4 HPC workloads")
	}
}

func TestFigure3Artifact(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling fits")
	}
	a, err := testSuite().Figure3(bg)
	if err != nil {
		t.Fatal(err)
	}
	rows := a.Tables[0].Rows()
	if len(rows) != 4 {
		t.Fatalf("fit-quality rows = %d", len(rows))
	}
	// The three memory-sensitive big-data fits report near-perfect R².
	for _, r := range rows {
		if r[0] == "proximity" {
			continue
		}
		r2, err := strconv.ParseFloat(r[3], 64)
		if err != nil {
			t.Fatalf("parse R2 %q: %v", r[3], err)
		}
		if r2 < 0.98 {
			t.Fatalf("%s R2 = %v", r[0], r2)
		}
	}
}

func TestTables245Artifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling fits for 12 workloads")
	}
	s := testSuite()
	for _, run := range []func(context.Context) (Artifact, error){s.Table2, s.Table4, s.Table5} {
		a, err := run(bg)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Tables[0].Rows()) != 4 {
			t.Fatalf("%s rows = %d", a.ID, len(a.Tables[0].Rows()))
		}
		for _, r := range a.Tables[0].Rows() {
			// Fitted CPI_cache positive and in a plausible band.
			v, err := strconv.ParseFloat(r[1], 64)
			if err != nil || v < 0.4 || v > 2.5 {
				t.Fatalf("%s: %s CPI_cache = %q", a.ID, r[0], r[1])
			}
		}
	}
}

func TestTable6FittedMeansNearPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling fits for 12 workloads")
	}
	a, err := testSuite().Table6(bg)
	if err != nil {
		t.Fatal(err)
	}
	rows := a.Tables[0].Rows()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		fitted, err1 := strconv.ParseFloat(r[1], 64)
		paper, err2 := strconv.ParseFloat(r[5], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("parse row %v", r)
		}
		if fitted < paper*0.85 || fitted > paper*1.15 {
			t.Fatalf("%s fitted CPI_cache %v vs paper %v (>15%% off)", r[0], fitted, paper)
		}
	}
}

func TestFigure6Artifact(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling fits for all workloads")
	}
	a, err := testSuite().Figure6(bg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Tables) != 2 {
		t.Fatal("want points + means tables")
	}
	if got := len(a.Tables[0].Rows()); got != 14 {
		t.Fatalf("points = %d, want 14", got)
	}
	if got := len(a.Tables[1].Rows()); got != 3 {
		t.Fatalf("means = %d, want 3", got)
	}
	// The purity note must be present and high.
	note := strings.Join(a.Tables[1].Notes, " ")
	if !strings.Contains(note, "purity") {
		t.Fatal("missing purity note")
	}
}

func TestNUMAStudyArtifact(t *testing.T) {
	a, err := testSuite().NUMAStudy(bg)
	if err != nil {
		t.Fatal(err)
	}
	rows := a.Tables[0].Rows()
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	// HPC stays flat across locality; enterprise rises.
	first, last := rows[0], rows[len(rows)-1]
	if first[3] != last[3] {
		t.Fatalf("HPC CPI should not move with locality: %v vs %v", first[3], last[3])
	}
	entFirst, _ := strconv.ParseFloat(first[1], 64)
	entLast, _ := strconv.ParseFloat(last[1], 64)
	if entLast <= entFirst {
		t.Fatalf("enterprise must degrade with remote traffic: %v -> %v", entFirst, entLast)
	}
}

func TestPrefetchDepthSweepArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("five grids, one per prefetch depth")
	}
	a, err := testSuite().PrefetchDepthSweep(bg)
	if err != nil {
		t.Fatal(err)
	}
	rows := a.Tables[0].Rows()
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// §VII: BF at depth 0 (prefetch off) must exceed BF at depth 8.
	bf0, _ := strconv.ParseFloat(rows[0][1], 64)
	bf8, _ := strconv.ParseFloat(rows[3][1], 64)
	if bf0 <= bf8*1.3 {
		t.Fatalf("prefetch must lower BF: off=%v depth8=%v", bf0, bf8)
	}
}

func TestPrefetchAblationArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("three grids and their prefetch-off variants")
	}
	a, err := testSuite().PrefetchAblation(bg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range a.Tables[0].Rows() {
		on, _ := strconv.ParseFloat(r[1], 64)
		off, _ := strconv.ParseFloat(r[3], 64)
		if r[0] == "oltp" {
			continue // prefetch-hostile: BF unchanged
		}
		if off <= on {
			t.Fatalf("%s: BF off (%v) must exceed on (%v)", r[0], off, on)
		}
	}
}

func TestGradeSweepArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("bwaves' grid with its grade probes")
	}
	a, err := testSuite().GradeSweep(bg, "bwaves")
	if err != nil {
		t.Fatal(err)
	}
	rows := a.Tables[0].Rows()
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// CPI falls as the grade rises (more bandwidth, less queuing).
	cpiSlow, _ := strconv.ParseFloat(rows[0][1], 64)
	cpiFast, _ := strconv.ParseFloat(rows[3][1], 64)
	if cpiFast >= cpiSlow {
		t.Fatalf("DDR3-1867 CPI (%v) must beat DDR3-1067 (%v)", cpiFast, cpiSlow)
	}
	if _, err := testSuite().GradeSweep(bg, "nope"); err == nil {
		t.Fatal("want error for unknown workload")
	}
}

func TestFigure9Artifact(t *testing.T) {
	a, err := testSuite().Figure9(bg)
	if err != nil {
		t.Fatal(err)
	}
	rows := a.Tables[0].Rows()
	if len(rows) < 5 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestFigure10Artifact(t *testing.T) {
	a, err := testSuite().Figure10(bg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(a.Tables[0].Rows()); got != 7 {
		t.Fatalf("rows = %d, want 7", got)
	}
}

func TestFigure11Artifact(t *testing.T) {
	a, err := testSuite().Figure11(bg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(a.Tables[0].Rows()); got != 6 {
		t.Fatalf("rows = %d, want 6 steps", got)
	}
	if !strings.Contains(strings.Join(a.Tables[0].Notes, " "), "paper") {
		t.Fatal("missing paper-comparison note")
	}
}

func TestFigure7Artifact(t *testing.T) {
	a, err := testSuite().Figure7(bg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Charts) != 1 || len(a.Tables) != 1 {
		t.Fatal("artifact shape")
	}
	// 4 combos × 12 points.
	if got := a.Tables[0].NumRows(); got != 48 {
		t.Fatalf("rows = %d, want 48", got)
	}
}

func TestArtifactText(t *testing.T) {
	a, err := testSuite().Figure1(bg)
	if err != nil {
		t.Fatal(err)
	}
	text := a.Text()
	if !strings.Contains(text, "Figure 1") {
		t.Fatal("Text() must include table and chart renders")
	}
}

func TestFutureMemoryArtifact(t *testing.T) {
	a, err := testSuite().FutureMemory(bg)
	if err != nil {
		t.Fatal(err)
	}
	rows := a.Tables[0].Rows()
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4 designs", len(rows))
	}
	// Direct-attached emerging memory must be the worst design for every
	// class; the DRAM cache must recover most of the loss.
	parse := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		return v
	}
	for col := 1; col <= 3; col++ {
		base := parse(rows[0][col])
		direct := parse(rows[2][col])
		cached := parse(rows[3][col])
		if direct <= base {
			t.Fatalf("col %d: direct emerging (%v) must exceed baseline (%v)", col, direct, base)
		}
		if cached >= direct {
			t.Fatalf("col %d: DRAM cache (%v) must beat direct (%v)", col, cached, direct)
		}
	}
	// DDR4 bandwidth helps HPC but not the latency-bound classes.
	entDelta := parse(rows[1][1]) - parse(rows[0][1])
	hpcDelta := parse(rows[1][3]) - parse(rows[0][3])
	if hpcDelta >= 0 || entDelta < hpcDelta {
		t.Fatalf("DDR4 upgrade deltas: enterprise %v, HPC %v", entDelta, hpcDelta)
	}
}
