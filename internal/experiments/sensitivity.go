package experiments

import (
	"context"
	"fmt"
	"math"

	"repro/internal/model"
	"repro/internal/params"
	"repro/internal/report"
)

// Figure8 reproduces the bandwidth-sensitivity study: CPI increase per
// workload class versus the reduction in deliverable memory bandwidth per
// core, across channel-count/speed/efficiency variants of the baseline.
func (s *Suite) Figure8(ctx context.Context) (Artifact, error) {
	base, err := s.BaselinePlatform(ctx)
	if err != nil {
		return Artifact{}, err
	}
	classes, err := s.ClassParams(ctx, false)
	if err != nil {
		return Artifact{}, err
	}
	sweep, err := model.BandwidthSweep(ctx, base, classes, model.PaperBandwidthVariants())
	if err != nil {
		return Artifact{}, err
	}

	table := report.NewTable("Figure 8: CPI increase vs per-core bandwidth reduction",
		"configuration", "ΔBW/core (GB/s)", "Enterprise", "Big Data", "HPC", "HPC bw-bound")
	chart := report.NewChart("Figure 8: CPI increase vs bandwidth reduction per core",
		"bandwidth change per core (GB/s)", "CPI increase")
	series := map[string][]float64{}
	var xs []float64
	for _, pt := range sweep.Points {
		hpcOp := pt.Ops["HPC"]
		table.AddRow(pt.Platform.Name, fmt.Sprintf("%+.2f", pt.DeltaPerCore),
			fmtPct(pt.CPIIncrease["Enterprise"]), fmtPct(pt.CPIIncrease["Big Data"]),
			fmtPct(pt.CPIIncrease["HPC"]), fmt.Sprintf("%v", hpcOp.BandwidthBound))
		xs = append(xs, pt.DeltaPerCore)
		for _, c := range classes {
			series[c.Name] = append(series[c.Name], pt.CPIIncrease[c.Name])
		}
	}
	for _, c := range classes {
		if err := chart.AddSeries(c.Name, xs, series[c.Name]); err != nil {
			return Artifact{}, err
		}
	}
	table.AddNote("paper: HPC most impacted; enterprise least; big data tolerates ~2.5 GB/s/core reduction before significant impact")
	return Artifact{ID: "fig8", Tables: []*report.Table{table}, Charts: []*report.Chart{chart}}, nil
}

// Figure9 reproduces the derivative of Fig. 8: performance impact per
// GB/s/core as a function of the bandwidth available per core — "the
// performance impact of bandwidth reduction is based on the starting
// configuration".
func (s *Suite) Figure9(ctx context.Context) (Artifact, error) {
	base, err := s.BaselinePlatform(ctx)
	if err != nil {
		return Artifact{}, err
	}
	classes, err := s.ClassParams(ctx, false)
	if err != nil {
		return Artifact{}, err
	}
	sweep, err := model.BandwidthSweep(ctx, base, classes, model.PaperBandwidthVariants())
	if err != nil {
		return Artifact{}, err
	}
	derivs := sweep.Derivative(func(pt model.SweepPoint) float64 {
		return pt.Platform.PerCoreBW().GBps()
	})

	table := report.NewTable("Figure 9: CPI impact per GB/s/core vs available bandwidth per core",
		"available BW/core (GB/s)", "Enterprise per GB/s", "Big Data per GB/s", "HPC per GB/s")
	chart := report.NewChart("Figure 9: marginal CPI impact of bandwidth",
		"available bandwidth per core (GB/s)", "ΔCPI per GB/s/core")
	var xs []float64
	series := map[string][]float64{}
	for _, d := range derivs {
		// CPIIncrease is monotone decreasing in bandwidth, so the impact
		// of *losing* a GB/s is −d/dBW.
		table.AddRow(fmt.Sprintf("%.2f", d.At),
			fmtPct(-d.PerUnit["Enterprise"]), fmtPct(-d.PerUnit["Big Data"]), fmtPct(-d.PerUnit["HPC"]))
		xs = append(xs, d.At)
		for _, c := range classes {
			series[c.Name] = append(series[c.Name], -d.PerUnit[c.Name])
		}
	}
	for _, c := range classes {
		if err := chart.AddSeries(c.Name, xs, series[c.Name]); err != nil {
			return Artifact{}, err
		}
	}
	return Artifact{ID: "fig9", Tables: []*report.Table{table}, Charts: []*report.Chart{chart}}, nil
}

// Figure10 reproduces the latency-sensitivity study: CPI versus
// compulsory latency in +10 ns steps from the 75 ns baseline.
func (s *Suite) Figure10(ctx context.Context) (Artifact, error) {
	base, err := s.BaselinePlatform(ctx)
	if err != nil {
		return Artifact{}, err
	}
	classes, err := s.ClassParams(ctx, false)
	if err != nil {
		return Artifact{}, err
	}
	sweep, err := model.LatencySweep(ctx, base, classes, 6, 10)
	if err != nil {
		return Artifact{}, err
	}

	table := report.NewTable("Figure 10: CPI increase vs compulsory latency increase",
		"compulsory latency", "Enterprise", "Big Data", "HPC")
	chart := report.NewChart("Figure 10: CPI increase vs compulsory latency",
		"added compulsory latency (ns)", "CPI increase")
	var xs []float64
	series := map[string][]float64{}
	for _, pt := range sweep.Points {
		table.AddRow(fmt.Sprintf("%.0fns", base.Compulsory.Nanoseconds()+pt.DeltaPerCore),
			fmtPct(pt.CPIIncrease["Enterprise"]), fmtPct(pt.CPIIncrease["Big Data"]), fmtPct(pt.CPIIncrease["HPC"]))
		xs = append(xs, pt.DeltaPerCore)
		for _, c := range classes {
			series[c.Name] = append(series[c.Name], pt.CPIIncrease[c.Name])
		}
	}
	for _, c := range classes {
		if err := chart.AddSeries(c.Name, xs, series[c.Name]); err != nil {
			return Artifact{}, err
		}
	}
	table.AddNote("paper: enterprise most latency sensitive, big data next, HPC flat (bandwidth bound at every point)")
	return Artifact{ID: "fig10", Tables: []*report.Table{table}, Charts: []*report.Chart{chart}}, nil
}

// Figure11 reproduces the per-step derivative of Fig. 10: CPI increase
// per +10 ns (paper: ≈3.5% enterprise, ≈2.5% big data, ≈0% HPC).
func (s *Suite) Figure11(ctx context.Context) (Artifact, error) {
	base, err := s.BaselinePlatform(ctx)
	if err != nil {
		return Artifact{}, err
	}
	classes, err := s.ClassParams(ctx, false)
	if err != nil {
		return Artifact{}, err
	}
	sweep, err := model.LatencySweep(ctx, base, classes, 6, 10)
	if err != nil {
		return Artifact{}, err
	}
	derivs := sweep.Derivative(func(pt model.SweepPoint) float64 {
		return base.Compulsory.Nanoseconds() + pt.DeltaPerCore
	})

	table := report.NewTable("Figure 11: CPI increase per +10ns compulsory latency",
		"at latency (ns)", "Enterprise", "Big Data", "HPC")
	avg := map[string]float64{}
	for _, d := range derivs {
		table.AddRow(fmt.Sprintf("%.0f", d.At),
			fmtPct(d.PerUnit["Enterprise"]*10), fmtPct(d.PerUnit["Big Data"]*10), fmtPct(d.PerUnit["HPC"]*10))
		for _, c := range classes {
			avg[c.Name] += d.PerUnit[c.Name] * 10 / float64(len(derivs))
		}
	}
	table.AddNote("average per +10ns: Enterprise %.1f%%, Big Data %.1f%%, HPC %.1f%% (paper: ~%.1f%%, ~%.1f%%, ~%.0f%%)",
		avg["Enterprise"]*100, avg["Big Data"]*100, avg["HPC"]*100,
		params.EnterprisePctPer10ns*100, params.BigDataPctPer10ns*100, params.HPCPctPer10ns*100)
	return Artifact{ID: "fig11", Tables: []*report.Table{table}}, nil
}

// Table7 reproduces the design-tradeoff summary: the latency/bandwidth
// equivalence per workload class.
func (s *Suite) Table7(ctx context.Context) (Artifact, error) {
	base, err := s.BaselinePlatform(ctx)
	if err != nil {
		return Artifact{}, err
	}
	classes, err := s.ClassParams(ctx, false)
	if err != nil {
		return Artifact{}, err
	}
	eqs, err := model.Equivalences(ctx, base, classes)
	if err != nil {
		return Artifact{}, err
	}

	table := report.NewTable("Table 7: design tradeoffs (1 GB/s/core vs 10 ns)",
		"class", "benefit of +1GB/s/core", "benefit of -10ns",
		"10ns ≈ BW (GB/s)", "1GB/s/core ≈ latency (ns)")
	for _, eq := range eqs {
		bw := "none"
		if eq.LatEquivBW > 0 && !math.IsInf(eq.LatEquivBW, 0) {
			bw = fmt.Sprintf("%.1f", eq.LatEquivBW)
		} else if math.IsInf(eq.LatEquivBW, 1) {
			bw = "unbounded"
		}
		lat := "none"
		if eq.BWEquivLat > 0 && !math.IsInf(eq.BWEquivLat, 0) {
			lat = fmt.Sprintf("%.1f", eq.BWEquivLat)
		} else if math.IsInf(eq.BWEquivLat, 1) {
			lat = "unbounded"
		}
		table.AddRow(eq.Class,
			fmt.Sprintf("%.2f%%", eq.BWBenefit*100),
			fmt.Sprintf("%.2f%%", eq.LatBenefit*100), bw, lat)
	}
	table.AddNote("paper: 10ns ≈ %.1f GB/s (enterprise) / %.1f GB/s (big data); 1 GB/s/core ≈ %.1fns / %.1fns; HPC: ~%.0f%% per GB/s/core, no latency benefit",
		params.Enterprise10nsEquivGBs, params.BigData10nsEquivGBs,
		params.Enterprise1GBsEquivNs, params.BigData1GBsEquivNs, params.HPCBenefitPer1GBs*100)
	return Artifact{ID: "table7", Tables: []*report.Table{table}}, nil
}
