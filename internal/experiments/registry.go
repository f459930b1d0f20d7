package experiments

import (
	"context"
	"strings"

	"repro/internal/engine"
	"repro/internal/workloads"
)

// Resource naming scheme: one "fit:<grid>" resource per simulated grid
// (Suite.Fit's names), plus the calibrated composite queuing curve.
const CurveResource = "queue-curve"

// FitResource names the engine resource for one grid's scaling fit.
func FitResource(grid string) string { return "fit:" + grid }

// fitDeps lists the fit resources for whole workload classes.
func fitDeps(classes ...workloads.Class) []string {
	var out []string
	for _, c := range classes {
		for _, w := range workloads.ByClass(c) {
			out = append(out, FitResource(w.Name()))
		}
	}
	return out
}

// fits lists the fit resources for named workloads.
func fits(names ...string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = FitResource(n)
	}
	return out
}

// heaviestFirst is the order the fit grids and the queuing curve are
// registered in, and so the order the scheduler starts those a run
// needs: longest first, so the long poles claim the workers at the start
// and only short grids are left to even out the end. The order follows
// the walls in results/manifest.json (resources[].wall_ms, Full scale, 2
// workers on 2 vCPUs): the HPC grids take 0.5–1.2 s (bwaves' also
// measures its grades), the prefetch-off bwaves grid 0.43 s, the curve
// calibration and the columnstore, oltp, nits, spark and virtualization
// grids 0.19–0.29 s, and webcache, proximity and jvm ~0.14 s, interp and
// raytrace under 0.08 s. It names every resource: each workload's grid,
// each of variantGrids and the curve.
var heaviestFirst = []string{
	FitResource("bwaves"), FitResource("milc"), FitResource("soplex"), FitResource("wrf"),
	FitResource("bwaves-nopf"), CurveResource,
	FitResource("columnstore"), FitResource("columnstore-nopf"), FitResource("columnstore-d2"),
	FitResource("columnstore-d4"), FitResource("columnstore-d16"),
	FitResource("oltp"), FitResource("oltp-nopf"),
	FitResource("nits"), FitResource("spark"), FitResource("virtualization"), FitResource("webcache"),
	FitResource("proximity"), FitResource("jvm"), FitResource("interp"), FitResource("raytrace"),
}

// ablationDeps are PrefetchAblation's grids: each ablated workload's own
// and its prefetch-off variant.
func ablationDeps() []string {
	var out []string
	for _, name := range ablated {
		out = append(out, FitResource(name), FitResource(prefetchGrid(name, 0)))
	}
	return out
}

// depthDeps are PrefetchDepthSweep's grids, one per depth.
func depthDeps() []string {
	out := make([]string, len(prefetchDepths))
	for i, d := range prefetchDepths {
		out[i] = FitResource(prefetchGrid(depthWorkload, d))
	}
	return out
}

// Registry returns the engine registry for this suite: every table and
// figure of DESIGN.md §4 with its paper reference and declared
// dependencies. Every simulated grid — each workload's fit and the
// prefetch studies' variants — and the calibrated queuing curve are
// registered as shared resources, heaviest first. None depends on
// another, so the scheduler starts them all at once and computes each
// exactly once, in parallel, before the experiments that need them.
func (s *Suite) Registry() *engine.Registry {
	r := engine.NewRegistry()

	for _, name := range heaviestFirst {
		prepare := func(ctx context.Context) error {
			_, err := s.Curve(ctx)
			return err
		}
		if grid, ok := strings.CutPrefix(name, FitResource("")); ok {
			prepare = func(ctx context.Context) error {
				_, err := s.Fit(ctx, grid)
				return err
			}
		}
		r.MustRegisterResource(engine.Resource{Name: name, Prepare: prepare})
	}

	add := func(id, title, section string, deps []string, run func(context.Context) (Artifact, error)) {
		r.MustRegister(engine.Experiment{ID: id, Title: title, Section: section, Deps: deps, Run: run})
	}

	bigData := fitDeps(workloads.BigData)
	curve := []string{CurveResource}

	add("fig1", "Figure 1: CPU vs DRAM scaling trend", "§I / Fig. 1", nil, s.Figure1)
	add("fig2", "Figure 2: big-data time series", "§V.B / Fig. 2", fits(fig2Workloads...), s.Figure2)
	add("fig3", "Figure 3: CPI vs MPI×MP fits (big data)", "§V.A–B / Fig. 3", bigData, s.Figure3)
	add("table2", "Table 2: workload parameters for big data", "§V.B / Tab. 2", bigData, s.Table2)
	add("table3", "Table 3: computed vs measured CPI (Structured Data)", "§V.A / Tab. 3", fits("columnstore"), s.Table3)
	add("fig4", "Figure 4: enterprise time series", "§V.C / Fig. 4", fits(fig4Workloads...), s.Figure4)
	add("fig5", "Figure 5: HPC time series", "§V.D / Fig. 5", fits(fig5Workloads...), s.Figure5)
	add("table4", "Table 4: workload parameters for enterprise", "§V.C / Tab. 4", fitDeps(workloads.Enterprise), s.Table4)
	add("table5", "Table 5: workload parameters for HPC", "§V.D / Tab. 5", fitDeps(workloads.HPC), s.Table5)
	add("table6", "Table 6: workload class parameters", "§VI.B / Tab. 6", fitDeps(workloads.Enterprise, workloads.BigData, workloads.HPC), s.Table6)
	add("fig6", "Figure 6: bandwidth demand vs latency sensitivity", "§VI.A / Fig. 6", fitDeps(workloads.BigData, workloads.Enterprise, workloads.HPC, workloads.Micro), s.Figure6)
	add("fig7", "Figure 7: queuing delay vs bandwidth utilization", "§VI.C.1 / Fig. 7", curve, s.Figure7)
	add("efficiency", "Measured channel efficiency (MLC saturation)", "§VI.C.1", nil, s.EfficiencyTable)
	add("fig8", "Figure 8: CPI increase vs per-core bandwidth reduction", "§VI.C.3 / Fig. 8", curve, s.Figure8)
	add("fig9", "Figure 9: marginal CPI impact of bandwidth", "§VI.C.3 / Fig. 9", curve, s.Figure9)
	add("fig10", "Figure 10: CPI increase vs compulsory latency", "§VI.C.2 / Fig. 10", curve, s.Figure10)
	add("fig11", "Figure 11: CPI increase per +10 ns latency", "§VI.C.2 / Fig. 11", curve, s.Figure11)
	add("table7", "Table 7: design tradeoffs (1 GB/s/core vs 10 ns)", "§VI.D / Tab. 7", curve, s.Table7)
	add("tiered", "Two-tier memory: DRAM cache + emerging memory (Eq. 5)", "§VII / Eq. 5", curve, s.TieredMemory)
	add("die-stacked", "Die-stacked DRAM tier: 4x bandwidth at DRAM latency", "§VII extension", curve, s.DieStacked)
	add("cxl-far-memory", "CXL far memory: interleave-ratio sweep at 3x latency", "§VII extension", curve, s.CXLFarMemory)
	add("sustained-bw", "Sustained vs peak bandwidth: efficiency derating sweep", "§VI.C.1 extension", curve, s.SustainedBandwidth)
	add("future-memory", "Future memory technologies per workload class", "§VII", curve, s.FutureMemory)
	add("numa", "Dual-socket NUMA sensitivity", "§VIII", curve, s.NUMAStudy)
	add("prefetch-ablation", "Prefetcher effect on fitted blocking factor", "§VII", ablationDeps(), s.PrefetchAblation)
	add("prefetch-depth", "Prefetch depth vs fitted blocking factor", "§VII", depthDeps(), s.PrefetchDepthSweep)
	add("queue-ablation", "Measured composite vs analytic queuing curves", "DESIGN.md §5", curve, s.QueueCurveAblation)
	add("grades-hpc", "Measured machine across DDR grades (bwaves)", "supplementary", fits(gradeWorkload),
		func(ctx context.Context) (Artifact, error) { return s.GradeSweep(ctx, gradeWorkload) })
	add("cluster-routing", "Fleet routing policies on a mixed DRAM/HBM/CXL fleet", "fleet extension", nil, s.ClusterRouting)
	add("cluster-admission", "Fleet token-bucket admission under load", "fleet extension", nil, s.ClusterAdmission)
	add("loadgen-calibration", "Load-generation calibration: observed vs predicted KPIs", "calibration extension", nil, s.LoadgenCalibration)

	return r
}
