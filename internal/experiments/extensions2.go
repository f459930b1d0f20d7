package experiments

import (
	"context"
	"fmt"

	"repro/internal/memsys"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workloads"
)

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
