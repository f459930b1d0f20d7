package experiments

import (
	"context"
	"fmt"

	"repro/internal/model"
	"repro/internal/report"
	"repro/internal/units"
)

// studySpec describes one what-if study in the shape of the paper's
// §VI.C–§VII analyses: the Table 6 class models evaluated on a reference
// memory design and on an ordered family of alternatives, with each
// class's CPI and its change against the reference.
type studySpec struct {
	id, title string
	// lead heads the designs' leading cells; vs heads each class's
	// change column ("<class> <vs>").
	lead []string
	vs   string
	// chart, when non-nil, receives one CPI-vs-x series per class.
	chart *report.Chart
	notes []string
	// cell, when non-nil, fills one study-specific trailing column headed
	// extra from a design's points in class order.
	extra string
	cell  func(pts []model.TopologyPoint) string
}

// design is one row of a class study: its leading cells, its chart x and
// the topology the classes are evaluated on.
type design struct {
	cells []interface{}
	x     float64
	top   model.Topology
}

// classStudy evaluates the Table 6 classes on [ref, designs...] in one
// model.EvaluateTopologyAll batch — the reference is always its own
// column — and renders st's table, plus its chart when it has one.
func (s *Suite) classStudy(ctx context.Context, st studySpec, ref model.Topology, designs []design) (Artifact, error) {
	classes, err := s.ClassParams(ctx, false)
	if err != nil {
		return Artifact{}, err
	}
	tops := []model.Topology{ref}
	for _, d := range designs {
		tops = append(tops, d.top)
	}
	grid, err := model.EvaluateTopologyAll(ctx, classes, tops)
	if err != nil {
		return Artifact{}, err
	}
	headers := append([]string{}, st.lead...)
	for _, suffix := range []string{"CPI", st.vs} {
		for _, c := range classes {
			headers = append(headers, c.Name+" "+suffix)
		}
	}
	if st.cell != nil {
		headers = append(headers, st.extra)
	}
	table := report.NewTable(st.title, headers...)
	xs := make([]float64, len(designs))
	ys := make([][]float64, len(classes))
	for j, d := range designs {
		xs[j] = d.x
		pts := make([]model.TopologyPoint, len(classes))
		row := append([]interface{}{}, d.cells...)
		for i := range classes {
			pts[i] = grid[i][j+1]
			ys[i] = append(ys[i], pts[i].CPI)
			row = append(row, pts[i].CPI)
		}
		for i := range classes {
			row = append(row, fmtPct(pts[i].CPI/grid[i][0].CPI-1))
		}
		if st.cell != nil {
			row = append(row, st.cell(pts))
		}
		table.AddRow(row...)
	}
	table.Notes = append(table.Notes, st.notes...)
	art := Artifact{ID: st.id, Tables: []*report.Table{table}}
	if st.chart != nil {
		for i, c := range classes {
			if err := st.chart.AddSeries(c.Name, xs, ys[i]); err != nil {
				return Artifact{}, err
			}
		}
		art.Charts = []*report.Chart{st.chart}
	}
	return art, nil
}

// splitTopology is base's topology renamed, its misses split over two tiers.
func splitTopology(base model.Platform, name string, policy model.SplitPolicy, near, far model.MemTier) model.Topology {
	top := base.Topology()
	top.Name = name
	top.Policy = policy
	top.Tiers = []model.MemTier{near, far}
	return top
}

// TieredMemory demonstrates the §VII extension (Eq. 5): a two-tier memory
// system with a fast DRAM cache in front of a larger, slower
// emerging-memory pool, evaluated across DRAM-tier hit fractions for each
// workload class.
func (s *Suite) TieredMemory(ctx context.Context) (Artifact, error) {
	base, err := s.BaselinePlatform(ctx)
	if err != nil {
		return Artifact{}, err
	}
	// Far tier: 3× the latency, 40% of the bandwidth — typical published
	// characteristics of persistent-memory-class technologies (§VII:
	// "higher latencies and lower bandwidth").
	farCompulsory := base.Compulsory * 3
	farBW := base.PeakBW * units.BytesPerSecond(0.4)
	var designs []design
	for _, hit := range []float64{1.0, 0.95, 0.9, 0.8, 0.6, 0.4, 0.2, 0.0} {
		top := splitTopology(base, fmt.Sprintf("tiered-%.0f%%", hit*100), model.SplitFractions,
			model.MemTier{Name: "DRAM", Share: hit, Compulsory: base.Compulsory, PeakBW: base.PeakBW, Queue: base.Queue},
			model.MemTier{Name: "PMEM", Share: 1 - hit, Compulsory: farCompulsory, PeakBW: farBW, Queue: base.Queue})
		designs = append(designs, design{cells: []interface{}{fmtPct(hit)}, x: hit, top: top})
	}
	return s.classStudy(ctx, studySpec{
		id:    "tiered",
		title: "§VII / Eq. 5: two-tier memory (DRAM cache + emerging memory)",
		lead:  []string{"DRAM-tier hit fraction"},
		vs:    "vs all-DRAM",
		chart: report.NewChart("Eq. 5: CPI vs DRAM-tier hit fraction", "near-tier hit fraction", "CPI"),
		notes: []string{
			"far tier: 3x latency, 0.4x bandwidth vs DRAM; Eq. 5 with per-tier loaded latencies",
			"bandwidth-bound classes (HPC) can IMPROVE at moderate far-tier fractions: the second tier adds aggregate bandwidth, relieving the DRAM channels",
		},
	}, base.Topology(), designs)
}

// DieStacked studies an HBM-like die-stacked tier in front of commodity
// DRAM: DRAM-class latency but ~4× the bandwidth (Lowe-Power et al.,
// arxiv 1608.07485 — stacking buys bandwidth, not latency). The sweep
// asks when serving a growing share of misses from the stacked tier pays
// off for each workload class.
func (s *Suite) DieStacked(ctx context.Context) (Artifact, error) {
	base, err := s.BaselinePlatform(ctx)
	if err != nil {
		return Artifact{}, err
	}
	stackedBW := base.PeakBW * units.BytesPerSecond(4)
	var designs []design
	for _, share := range []float64{0.0, 0.25, 0.5, 0.75, 0.9, 1.0} {
		top := splitTopology(base, fmt.Sprintf("die-stacked-%.0f%%", share*100), model.SplitFractions,
			model.MemTier{Name: "HBM", Share: share, Compulsory: base.Compulsory, PeakBW: stackedBW, Queue: base.Queue},
			model.MemTier{Name: "DRAM", Share: 1 - share, Compulsory: base.Compulsory, PeakBW: base.PeakBW, Queue: base.Queue})
		designs = append(designs, design{cells: []interface{}{fmtPct(share)}, x: share, top: top})
	}
	return s.classStudy(ctx, studySpec{
		id:    "die-stacked",
		title: "Die-stacked DRAM tier (HBM-class: 4x bandwidth, DRAM latency)",
		lead:  []string{"stacked-tier share"},
		vs:    "vs DRAM",
		chart: report.NewChart("CPI vs die-stacked tier share", "stacked-tier miss share", "CPI"),
		notes: []string{
			"stacked tier: 4x bandwidth at DRAM-class latency; §VI.A predicts bandwidth-bound classes (HPC) capture the benefit while latency-bound classes see little",
			"both tiers stay active at partial shares, so aggregate bandwidth exceeds either tier alone",
		},
	}, base.Topology(), designs)
}

// CXLFarMemory studies CXL-attached far memory: DRAM-class bandwidth
// behind ~3× the load-to-use latency (Mahar et al., arxiv 2303.08396).
// Pages are interleaved between local DRAM and the far pool at a fixed
// ratio — the SplitInterleave policy — and the sweep walks the far-memory
// ratio from 0 to 50% of traffic.
func (s *Suite) CXLFarMemory(ctx context.Context) (Artifact, error) {
	base, err := s.BaselinePlatform(ctx)
	if err != nil {
		return Artifact{}, err
	}
	farCompulsory := base.Compulsory * 3
	var designs []design
	for _, ratio := range []float64{0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5} {
		top := splitTopology(base, fmt.Sprintf("cxl-%.0f%%", ratio*100), model.SplitInterleave,
			model.MemTier{Name: "DRAM", Share: 1 - ratio, Compulsory: base.Compulsory, PeakBW: base.PeakBW, Queue: base.Queue},
			model.MemTier{Name: "CXL", Share: ratio, Compulsory: farCompulsory, PeakBW: base.PeakBW, Queue: base.Queue})
		designs = append(designs, design{cells: []interface{}{fmtPct(ratio)}, x: ratio, top: top})
	}
	return s.classStudy(ctx, studySpec{
		id:    "cxl-far-memory",
		title: "CXL far memory: DRAM bandwidth at 3x latency, interleave-ratio sweep",
		lead:  []string{"far-memory ratio"},
		vs:    "vs local",
		chart: report.NewChart("CPI vs far-memory interleave ratio", "fraction of traffic to far memory", "CPI"),
		notes: []string{
			"far pool matches DRAM bandwidth, so the CPI cost is pure latency exposure: cost scales with the class's MPI x BF latency sensitivity (§VI.A)",
			"interleaving also splits demand across two channels, which cushions bandwidth-bound classes against the added latency",
		},
	}, designs[0].top, designs)
}

// SustainedBandwidth quantifies the gap between modeling against peak
// bandwidth and against what channels actually sustain: real DDR channels
// deliver ~70–90% of theoretical peak under realistic access streams
// (§VI.C.1 measures this directly). The sweep derates the baseline
// channel from 100% down to 60% efficiency and reports each class's CPI.
func (s *Suite) SustainedBandwidth(ctx context.Context) (Artifact, error) {
	base, err := s.BaselinePlatform(ctx)
	if err != nil {
		return Artifact{}, err
	}
	var designs []design
	for _, eff := range []float64{1.0, 0.95, 0.9, 0.85, 0.8, 0.7, 0.6} {
		top := base.Topology().WithTierEfficiency(eff)
		sustained := fmt.Sprintf("%.1f", float64(top.Tiers[0].SustainedBW())/1e9)
		designs = append(designs, design{cells: []interface{}{fmtPct(eff), sustained}, x: eff, top: top})
	}
	return s.classStudy(ctx, studySpec{
		id:    "sustained-bw",
		title: "Sustained vs peak bandwidth: channel efficiency derating",
		lead:  []string{"efficiency", "sustained GB/s"},
		vs:    "vs peak",
		chart: report.NewChart("CPI vs channel efficiency", "sustained/peak bandwidth fraction", "CPI"),
		notes: []string{
			"efficiency rescales the queuing curve's utilization axis and the saturation ceiling; latency-bound classes barely move while bandwidth-bound classes degrade sharply below the ~80% typical of real channels",
		},
	}, designs[0].top, designs)
}

// FutureMemory quantifies the §VII scenario directly: "emerging memory
// technologies have different characteristics compared to DRAM: typically
// they have larger capacities ... but also higher latencies and lower
// bandwidth." Each workload class is evaluated on four memory designs:
//
//  1. the DDR3-1867 baseline;
//  2. a DDR4-class upgrade (more bandwidth, same latency);
//  3. emerging memory attached directly (3× latency, 0.4× bandwidth);
//  4. the §VII mitigation: the same emerging memory behind a DRAM cache
//     with a 90% hit rate (Eq. 5).
func (s *Suite) FutureMemory(ctx context.Context) (Artifact, error) {
	base, err := s.BaselinePlatform(ctx)
	if err != nil {
		return Artifact{}, err
	}
	ddr4 := base.WithPeakBW(base.PeakBW * units.BytesPerSecond(2400.0/1867.0))
	ddr4.Name = "4ch DDR4-2400"
	emergingLat := base.Compulsory * 3
	emergingBW := base.PeakBW * units.BytesPerSecond(0.4)
	direct := base.WithPeakBW(emergingBW).WithCompulsory(emergingLat)
	direct.Name = "emerging direct"
	cached := splitTopology(base, "emerging + DRAM cache (90% hit)", model.SplitFractions,
		model.MemTier{Name: "DRAM", Share: 0.9, Compulsory: base.Compulsory, PeakBW: base.PeakBW, Queue: base.Queue},
		model.MemTier{Name: "EM", Share: 0.1, Compulsory: emergingLat, PeakBW: emergingBW, Queue: base.Queue})
	var designs []design
	for _, top := range []model.Topology{base.Topology(), ddr4.Topology(), direct.Topology(), cached} {
		designs = append(designs, design{cells: []interface{}{top.Name}, top: top})
	}
	return s.classStudy(ctx, studySpec{
		id:    "future-memory",
		title: "§VII: future memory technologies per workload class",
		lead:  []string{"design"},
		vs:    "vs base",
		notes: []string{
			"emerging memory: 3x latency, 0.4x bandwidth (§VII characteristics); DRAM cache recovers most of the loss",
			"a DDR4-class bandwidth upgrade helps only the bandwidth-bound HPC class — Table 7's verdict restated",
		},
	}, designs[0].top, designs)
}

// NUMAStudy exercises the §VIII multi-socket extension: each workload
// class on the dual-socket baseline across NUMA locality mixes, from
// perfect locality to uniform interleave.
func (s *Suite) NUMAStudy(ctx context.Context) (Artifact, error) {
	curve, err := s.Curve(ctx)
	if err != nil {
		return Artifact{}, err
	}
	np := model.DualSocketBaseline(curve)
	var designs []design
	for _, rf := range []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5} {
		designs = append(designs, design{cells: []interface{}{fmtPct(rf)}, x: rf, top: np.WithRemoteFraction(rf)})
	}
	return s.classStudy(ctx, studySpec{
		id:    "numa",
		title: "§VIII extension: dual-socket NUMA sensitivity",
		lead:  []string{"remote fraction"},
		vs:    "vs local",
		chart: report.NewChart("NUMA: CPI vs remote-access fraction", "remote fraction", "CPI"),
		notes: []string{
			"remote hop +60ns, 25 GB/s link per socket; 50% remote = uniform interleave on 2 sockets",
			"the class ordering of Fig. 10 survives: NUMA locality matters most for the latency-sensitive classes",
		},
		extra: "eff. MP (BD, ns)",
		// Table 6's class order is Enterprise, Big Data, HPC.
		cell: func(pts []model.TopologyPoint) string {
			return fmt.Sprintf("%.0f", pts[1].EffectiveMP.Nanoseconds())
		},
	}, np, designs)
}
