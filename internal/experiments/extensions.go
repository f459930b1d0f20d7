package experiments

import (
	"context"

	"repro/internal/model"
	"repro/internal/queueing"
	"repro/internal/report"
	"repro/internal/units"
)

// ablated are the workloads PrefetchAblation compares with and without
// the prefetcher: scan-heavy, streaming HPC and pointer-heavy.
var ablated = []string{"columnstore", "bwaves", "oltp"}

// PrefetchAblation reproduces the §VII observation that prefetching
// effectiveness shows up as blocking factor: it compares each ablated
// workload's fit with the fit of its grid with the hardware prefetcher
// disabled.
func (s *Suite) PrefetchAblation(ctx context.Context) (Artifact, error) {
	table := report.NewTable("§VII ablation: prefetcher effect on fitted blocking factor",
		"workload", "BF (prefetch on)", "MPKI (on)", "BF (prefetch off)", "MPKI (off)")
	for _, name := range ablated {
		on, err := s.Fit(ctx, name)
		if err != nil {
			return Artifact{}, err
		}
		off, err := s.Fit(ctx, prefetchGrid(name, 0))
		if err != nil {
			return Artifact{}, err
		}
		table.AddRow(name, on.Params.BF, on.Params.MPKI, off.Params.BF, off.Params.MPKI)
	}
	table.AddNote("'an improved prefetching technique will increase memory-level parallelism and will lower the blocking factor' (§VII)")
	return Artifact{ID: "prefetch-ablation", Tables: []*report.Table{table}}, nil
}

// QueueCurveAblation compares the measured composite queuing curve with
// the analytic M/M/1 alternative across the §VI.C studies (DESIGN.md §5).
func (s *Suite) QueueCurveAblation(ctx context.Context) (Artifact, error) {
	classes, err := s.ClassParams(ctx, false)
	if err != nil {
		return Artifact{}, err
	}
	measured, err := s.BaselinePlatform(ctx)
	if err != nil {
		return Artifact{}, err
	}
	mm1 := measured
	mm1.Queue = queueing.MM1{Service: 6 * units.Nanosecond, ULimit: 0.95}
	mm1.Name = "baseline-mm1"
	md1 := measured
	md1.Queue = queueing.MD1{Service: 6 * units.Nanosecond, ULimit: 0.95}
	md1.Name = "baseline-md1"

	table := report.NewTable("Ablation: measured composite vs analytic M/M/1 and M/D/1 curves",
		"class", "CPI (measured)", "CPI (M/M/1)", "CPI (M/D/1)", "M/M/1 diff", "M/D/1 diff")
	grid, err := model.EvaluateAll(ctx, classes, []model.Platform{measured, mm1, md1})
	if err != nil {
		return Artifact{}, err
	}
	for i, c := range classes {
		opM, opMM, opMD := grid[i][0], grid[i][1], grid[i][2]
		table.AddRow(c.Name, opM.CPI, opMM.CPI, opMD.CPI,
			fmtPct(opMM.CPI/opM.CPI-1), fmtPct(opMD.CPI/opM.CPI-1))
	}
	table.AddNote("the analytic forms bracket the measured curve; class CPIs move ≤ a few %% at baseline utilizations")
	return Artifact{ID: "queue-ablation", Tables: []*report.Table{table}}, nil
}
