package experiments

import (
	"context"
	"fmt"

	"repro/internal/memsys"
	"repro/internal/report"
)

// The prefetch depth study: one workload's grid at each depth.
const depthWorkload = "columnstore"

var prefetchDepths = []int{0, 2, 4, 8, 16}

// PrefetchDepthSweep implements the §VII suggestion that the methodology
// "could also be used to estimate the effectiveness of a prefetching
// technique by analyzing the variation in the blocking factor": it
// reports a scan-heavy workload's fitted BF on its grid at each
// prefetch depth.
func (s *Suite) PrefetchDepthSweep(ctx context.Context) (Artifact, error) {
	table := report.NewTable("§VII study: prefetch depth vs fitted blocking factor ("+depthWorkload+")",
		"prefetch depth", "fitted BF", "fitted CPI_cache", "MPKI", "prefetch coverage")
	chart := report.NewChart("Fitted BF vs prefetch depth", "depth (lines)", "blocking factor")
	var xs, ys []float64

	for _, depth := range prefetchDepths {
		e, err := s.grid(ctx, prefetchGrid(depthWorkload, depth))
		if err != nil {
			return Artifact{}, err
		}
		var covSum float64
		var covN int
		for _, meas := range e.runs {
			if total := meas.Cache.MemDemandReads + meas.Cache.MemPrefReads; total > 0 {
				covSum += float64(meas.Cache.MemPrefReads) / float64(total)
				covN++
			}
		}
		cov := 0.0
		if covN > 0 {
			cov = covSum / float64(covN)
		}
		p := e.fit.Params
		table.AddRow(depth, p.BF, p.CPICache, p.MPKI, fmtPct(cov))
		xs = append(xs, float64(depth))
		ys = append(ys, p.BF)
	}
	if err := chart.AddSeries(depthWorkload, xs, ys); err != nil {
		return Artifact{}, err
	}
	table.AddNote("deeper prefetch ⇒ higher coverage ⇒ lower fitted BF, flattening once streams stay ahead of the core")
	return Artifact{ID: "prefetch-depth", Tables: []*report.Table{table}, Charts: []*report.Chart{chart}}, nil
}

// gradeWorkload is the workload GradeSweep plots. Its fit grid also
// measures the grades, on copies of the same warm machine.
const gradeWorkload = "bwaves"

// sweptGrades are GradeSweep's DDR grades, slowest first.
var sweptGrades = []memsys.Grade{memsys.DDR3_1067, memsys.DDR3_1333, memsys.DDR3_1600, memsys.DDR3_1867}

// gradeConfigs are GradeSweep's points: each grade at warmScaling's
// core speed.
func gradeConfigs() []ScalingConfig {
	configs := make([]ScalingConfig, len(sweptGrades))
	for i, g := range sweptGrades {
		configs[i] = ScalingConfig{CoreGHz: warmScaling.CoreGHz, Grade: g}
	}
	return configs
}

// GradeSweep is a supplementary study: the measured machine (not the
// analytic model) across DDR grades at fixed core speed, showing the
// emergent loaded-latency/bandwidth trade the analytic sweeps predict.
// Each grade is a copy of the workload's fit-grid warm machine retimed
// to that grade, measured with the grid (Suite.Fit); only gradeWorkload
// has them.
func (s *Suite) GradeSweep(ctx context.Context, workload string) (Artifact, error) {
	e, err := s.grid(ctx, workload)
	if err != nil {
		return Artifact{}, err
	}
	if e.grades == nil {
		return Artifact{}, fmt.Errorf("experiments: no grade sweep on %s's grid (only %s)", workload, gradeWorkload)
	}
	table := report.NewTable("Measured machine across DDR grades: "+workload,
		"grade", "CPI", "MP (ns)", "bandwidth", "channel util")
	for i, m := range e.grades {
		table.AddRow(sweptGrades[i].String(), m.CPI, fmtNS(m.MP), m.Bandwidth.String(), fmtPct(m.Utilization1))
	}
	table.AddNote("slower grades raise loaded latency and channel utilization; CPI follows Eq. 1")
	return Artifact{ID: "grades-" + workload, Tables: []*report.Table{table}}, nil
}
