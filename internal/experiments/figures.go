package experiments

import (
	"context"
	"slices"
	"strings"

	"repro/internal/params"
	"repro/internal/report"
	"repro/internal/stats"
)

// Figure1 reproduces the Fig. 1 narrative: the widening gap between CPU
// core-count scaling and DRAM density scaling (the paper's motivation).
func (s *Suite) Figure1(ctx context.Context) (Artifact, error) {
	trend := params.Fig1(8)
	table := report.NewTable("Figure 1: CPU vs DRAM scaling trend (normalized to 2012)",
		"year", "core-count factor", "DRAM density factor", "gap")
	chart := report.NewChart("Figure 1: CPU cores vs DRAM density scaling", "year", "normalized factor")
	var ys1, ys2, xs []float64
	for _, t := range trend {
		table.AddRow(t.Year, t.CoreGrowth, t.DRAMGrowth, t.CoreGrowth/t.DRAMGrowth)
		xs = append(xs, float64(t.Year))
		ys1 = append(ys1, t.CoreGrowth)
		ys2 = append(ys2, t.DRAMGrowth)
	}
	if err := chart.AddSeries("CPU cores (~40%/yr)", xs, ys1); err != nil {
		return Artifact{}, err
	}
	if err := chart.AddSeries("DRAM density (~15%/yr)", xs, ys2); err != nil {
		return Artifact{}, err
	}
	return Artifact{ID: "fig1", Tables: []*report.Table{table}, Charts: []*report.Chart{chart}}, nil
}

// The workloads each time-series figure plots. Their fit grids also
// measure the baseline run the figures render (Suite.Fit).
var (
	fig2Workloads = []string{"columnstore", "nits", "proximity", "spark"}
	fig4Workloads = []string{"oltp", "jvm", "virtualization", "webcache"}
	fig5Workloads = []string{"bwaves", "milc", "soplex", "wrf"}
)

// plotted reports whether a time-series figure plots workload name.
func plotted(name string) bool {
	for _, names := range [][]string{fig2Workloads, fig4Workloads, fig5Workloads} {
		if slices.Contains(names, name) {
			return true
		}
	}
	return false
}

// timeSeries renders each workload's sampled baseline run (Suite.baseline)
// as CPU utilization / CPI / bandwidth time series — the panels of Figs.
// 2/4/5.
func (s *Suite) timeSeries(ctx context.Context, names []string, figID, title string) (Artifact, error) {
	a := Artifact{ID: figID}
	cpiChart := report.NewChart(title+": CPI vs time", "sample", "CPI")
	bwChart := report.NewChart(title+": memory bandwidth vs time", "sample", "GB/s")
	table := report.NewTable(title+" summary", "workload", "util", "CPI mean", "CPI p5", "CPI p95", "BW mean (GB/s)", "IO (GB/s)")

	for _, name := range names {
		m, err := s.baseline(ctx, name)
		if err != nil {
			return Artifact{}, err
		}
		var xs, cpis, bws []float64
		var cpiVals []float64
		for i, sm := range m.Series.Samples {
			xs = append(xs, float64(i))
			cpis = append(cpis, sm.CPI)
			bws = append(bws, sm.Bandwidth.GBps())
			cpiVals = append(cpiVals, sm.CPI)
		}
		if err := cpiChart.AddSeries(name, xs, cpis); err != nil {
			return Artifact{}, err
		}
		if err := bwChart.AddSeries(name, xs, bws); err != nil {
			return Artifact{}, err
		}
		p5, p95 := percentileOr(cpiVals, 5), percentileOr(cpiVals, 95)
		table.AddRow(name, fmtPct(m.Utilization), m.CPI, p5, p95, m.Bandwidth.GBps(), m.IOBandwidth.GBps())
	}
	table.AddNote("sampling interval %v simulated time (the paper samples ~100 ms wall time; see pmu docs)", s.Scale.SampleInterval)
	a.Tables = []*report.Table{table}
	a.Charts = []*report.Chart{cpiChart, bwChart}
	return a, nil
}

func percentileOr(xs []float64, p float64) float64 {
	v, err := stats.Percentile(xs, p)
	if err != nil {
		return 0
	}
	return v
}

// Figure2 reproduces Fig. 2: characterization time series for the four
// big-data workloads.
func (s *Suite) Figure2(ctx context.Context) (Artifact, error) {
	return s.timeSeries(ctx, fig2Workloads, "fig2", "Figure 2 (big data)")
}

// Figure4 reproduces Fig. 4: enterprise workload time series.
func (s *Suite) Figure4(ctx context.Context) (Artifact, error) {
	return s.timeSeries(ctx, fig4Workloads, "fig4", "Figure 4 (enterprise)")
}

// Figure5 reproduces Fig. 5: HPC proxy time series.
func (s *Suite) Figure5(ctx context.Context) (Artifact, error) {
	return s.timeSeries(ctx, fig5Workloads, "fig5", "Figure 5 (HPC)")
}

// Figure3 reproduces Fig. 3: measured CPI_eff vs MPI×MP with linear fits
// for the big-data workloads ((a) memory-sensitive three, (b) proximity).
func (s *Suite) Figure3(ctx context.Context) (Artifact, error) {
	chart := report.NewChart("Figure 3: CPI vs miss-penalty-per-instruction, big data fits",
		"MPI x MP (core cycles per instruction)", "CPI_eff")
	table := report.NewTable("Figure 3 fit quality", "workload", "CPI_cache", "BF", "R2", "points")
	var ses []string
	for _, name := range []string{"columnstore", "nits", "spark", "proximity"} {
		fit, err := s.Fit(ctx, name)
		if err != nil {
			return Artifact{}, err
		}
		var xs, ys []float64
		for _, pt := range fit.Points {
			xs = append(xs, pt.X())
			ys = append(ys, pt.CPI)
		}
		if err := chart.AddSeries(name, xs, ys); err != nil {
			return Artifact{}, err
		}
		// Fitted line endpoints.
		lineXs := []float64{minOf(xs), maxOf(xs)}
		lineYs := []float64{fit.Line.Eval(lineXs[0]), fit.Line.Eval(lineXs[1])}
		if err := chart.AddSeries(name+" fit", lineXs, lineYs); err != nil {
			return Artifact{}, err
		}
		table.AddRow(name, fit.Params.CPICache, fit.Params.BF, fit.R2, fit.Line.N)
		ses = append(ses, name+" "+fmtSE(fit.Line.SEIntercept)+" / "+fmtSE(fit.Line.SESlope))
	}
	table.AddNote("OLS standard errors, CPI_cache / BF: %s", strings.Join(ses, ", "))
	table.AddNote("paper reports R2=0.95 for Structured Data and calls the Proximity R2 'not of concern' (core bound)")
	return Artifact{ID: "fig3", Tables: []*report.Table{table}, Charts: []*report.Chart{chart}}, nil
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
