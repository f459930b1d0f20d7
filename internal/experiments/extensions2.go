package experiments

import (
	"context"
	"fmt"

	"repro/internal/memsys"
	"repro/internal/model"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// NUMAStudy exercises the §VIII multi-socket extension: each workload
// class on the dual-socket baseline across NUMA locality mixes, from
// perfect locality to uniform interleave.
func (s *Suite) NUMAStudy(ctx context.Context) (Artifact, error) {
	curve, err := s.Curve(ctx)
	if err != nil {
		return Artifact{}, err
	}
	classes, err := s.ClassParams(ctx, false)
	if err != nil {
		return Artifact{}, err
	}
	np := model.DualSocketBaseline(curve)

	table := report.NewTable("§VIII extension: dual-socket NUMA sensitivity",
		"remote fraction", "Enterprise CPI", "Big Data CPI", "HPC CPI",
		"Enterprise vs local", "Big Data vs local", "HPC vs local", "eff. MP (BD, ns)")
	chart := report.NewChart("NUMA: CPI vs remote-access fraction", "remote fraction", "CPI")

	local := map[string]float64{}
	for _, c := range classes {
		op, err := model.EvaluateTopology(ctx, c, np)
		if err != nil {
			return Artifact{}, err
		}
		local[c.Name] = op.CPI
	}

	var xs []float64
	series := map[string][]float64{}
	for _, rf := range []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5} {
		cpis := map[string]float64{}
		var bdMP float64
		for _, c := range classes {
			op, err := model.EvaluateTopology(ctx, c, np.WithRemoteFraction(rf))
			if err != nil {
				return Artifact{}, err
			}
			cpis[c.Name] = op.CPI
			series[c.Name] = append(series[c.Name], op.CPI)
			if c.Name == "Big Data" {
				bdMP = op.EffectiveMP.Nanoseconds()
			}
		}
		xs = append(xs, rf)
		table.AddRow(fmtPct(rf),
			cpis["Enterprise"], cpis["Big Data"], cpis["HPC"],
			fmtPct(cpis["Enterprise"]/local["Enterprise"]-1),
			fmtPct(cpis["Big Data"]/local["Big Data"]-1),
			fmtPct(cpis["HPC"]/local["HPC"]-1),
			fmt.Sprintf("%.0f", bdMP))
	}
	for _, c := range classes {
		if err := chart.AddSeries(c.Name, xs, series[c.Name]); err != nil {
			return Artifact{}, err
		}
	}
	table.AddNote("remote hop +60ns, 25 GB/s link per socket; 50%% remote = uniform interleave on 2 sockets")
	table.AddNote("the class ordering of Fig. 10 survives: NUMA locality matters most for the latency-sensitive classes")
	return Artifact{ID: "numa", Tables: []*report.Table{table}, Charts: []*report.Chart{chart}}, nil
}

// PrefetchDepthSweep implements the §VII suggestion that the methodology
// "could also be used to estimate the effectiveness of a prefetching
// technique by analyzing the variation in the blocking factor": it
// re-fits a scan-heavy workload at several prefetch depths and reports
// the fitted BF per depth.
func (s *Suite) PrefetchDepthSweep(ctx context.Context) (Artifact, error) {
	const name = "columnstore"
	w, err := workloads.ByName(name)
	if err != nil {
		return Artifact{}, err
	}

	table := report.NewTable("§VII study: prefetch depth vs fitted blocking factor ("+name+")",
		"prefetch depth", "fitted BF", "fitted CPI_cache", "MPKI", "prefetch coverage")
	chart := report.NewChart("Fitted BF vs prefetch depth", "depth (lines)", "blocking factor")
	var xs, ys []float64

	for _, depth := range []int{0, 2, 4, 8, 16} {
		fit, runs, err := fitGrid(ctx, fmt.Sprintf("%s-d%d", name, depth), w, PaperScalingConfigs(), s.Scale, func(cfg *sim.Config) {
			if depth == 0 {
				cfg.Cache.Prefetch.Enabled = false
			} else {
				cfg.Cache.Prefetch.Depth = depth
			}
		})
		if err != nil {
			return Artifact{}, err
		}
		var covSum float64
		var covN int
		for _, meas := range runs {
			if total := meas.Cache.MemDemandReads + meas.Cache.MemPrefReads; total > 0 {
				covSum += float64(meas.Cache.MemPrefReads) / float64(total)
				covN++
			}
		}
		cov := 0.0
		if covN > 0 {
			cov = covSum / float64(covN)
		}
		table.AddRow(depth, fit.Params.BF, fit.Params.CPICache, fit.Params.MPKI, fmtPct(cov))
		xs = append(xs, float64(depth))
		ys = append(ys, fit.Params.BF)
	}
	if err := chart.AddSeries(name, xs, ys); err != nil {
		return Artifact{}, err
	}
	table.AddNote("deeper prefetch ⇒ higher coverage ⇒ lower fitted BF, flattening once streams stay ahead of the core")
	return Artifact{ID: "prefetch-depth", Tables: []*report.Table{table}, Charts: []*report.Chart{chart}}, nil
}

// GradeSweep is a supplementary study: the measured machine (not the
// analytic model) across DDR grades at fixed core speed, showing the
// emergent loaded-latency/bandwidth trade the analytic sweeps predict.
func (s *Suite) GradeSweep(ctx context.Context, workload string) (Artifact, error) {
	w, err := workloads.ByName(workload)
	if err != nil {
		return Artifact{}, err
	}
	table := report.NewTable("Measured machine across DDR grades: "+workload,
		"grade", "CPI", "MP (ns)", "bandwidth", "channel util")
	// One machine warms at warmScaling; each grade is a copy of it
	// retimed to that grade at the same core speed.
	grades := []memsys.Grade{memsys.DDR3_1067, memsys.DDR3_1333, memsys.DDR3_1600, memsys.DDR3_1867}
	configs := make([]ScalingConfig, len(grades))
	for i, g := range grades {
		configs[i] = ScalingConfig{CoreGHz: warmScaling.CoreGHz, Grade: g}
	}
	warm := machineConfig(w, warmScaling)
	runs, err := measure(ctx, w, warm, gridProbes(workload, warm, configs, s.Scale), s.Scale)
	if err != nil {
		return Artifact{}, err
	}
	for i, m := range runs {
		table.AddRow(grades[i].String(), m.CPI, fmtNS(m.MP), m.Bandwidth.String(), fmtPct(m.Utilization1))
	}
	table.AddNote("slower grades raise loaded latency and channel utilization; CPI follows Eq. 1")
	return Artifact{ID: "grades-" + workload, Tables: []*report.Table{table}}, nil
}
