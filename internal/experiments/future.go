package experiments

import (
	"context"

	"repro/internal/model"
	"repro/internal/report"
	"repro/internal/units"
)

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
	classes, err := s.ClassParams(ctx, false)
	if err != nil {
		return Artifact{}, err
	}

	ddr4 := base.WithPeakBW(base.PeakBW * units.BytesPerSecond(2400.0/1867.0))
	ddr4.Name = "4ch DDR4-2400"
	emergingLat := base.Compulsory * 3
	emergingBW := base.PeakBW * units.BytesPerSecond(0.4)
	direct := base.WithPeakBW(emergingBW).WithCompulsory(emergingLat)
	direct.Name = "emerging direct"

	table := report.NewTable("§VII: future memory technologies per workload class",
		"design", "Enterprise CPI", "Big Data CPI", "HPC CPI",
		"Enterprise vs base", "Big Data vs base", "HPC vs base")

	baseCPI := map[string]float64{}
	addRow := func(name string, eval func(model.Params) (float64, error)) error {
		cpis := map[string]float64{}
		for _, c := range classes {
			cpi, err := eval(c)
			if err != nil {
				return err
			}
			cpis[c.Name] = cpi
			if name == base.Name {
				baseCPI[c.Name] = cpi
			}
		}
		table.AddRow(name,
			cpis["Enterprise"], cpis["Big Data"], cpis["HPC"],
			fmtPct(cpis["Enterprise"]/baseCPI["Enterprise"]-1),
			fmtPct(cpis["Big Data"]/baseCPI["Big Data"]-1),
			fmtPct(cpis["HPC"]/baseCPI["HPC"]-1))
		return nil
	}

	evalFlat := func(pl model.Platform) func(model.Params) (float64, error) {
		return func(p model.Params) (float64, error) {
			op, err := model.Evaluate(ctx, p, pl)
			if err != nil {
				return 0, err
			}
			return op.CPI, nil
		}
	}
	if err := addRow(base.Name, evalFlat(base)); err != nil {
		return Artifact{}, err
	}
	if err := addRow(ddr4.Name, evalFlat(ddr4)); err != nil {
		return Artifact{}, err
	}
	if err := addRow(direct.Name, evalFlat(direct)); err != nil {
		return Artifact{}, err
	}

	tiered := base.Topology()
	tiered.Name = "emerging + DRAM cache (90% hit)"
	tiered.Tiers = []model.MemTier{
		{Name: "DRAM", Share: 0.9, Compulsory: base.Compulsory, PeakBW: base.PeakBW, Queue: base.Queue},
		{Name: "EM", Share: 0.1, Compulsory: emergingLat, PeakBW: emergingBW, Queue: base.Queue},
	}
	if err := addRow(tiered.Name, func(p model.Params) (float64, error) {
		op, err := model.EvaluateTopology(ctx, p, tiered)
		if err != nil {
			return 0, err
		}
		return op.CPI, nil
	}); err != nil {
		return Artifact{}, err
	}

	table.AddNote("emerging memory: 3x latency, 0.4x bandwidth (§VII characteristics); DRAM cache recovers most of the loss")
	table.AddNote("a DDR4-class bandwidth upgrade helps only the bandwidth-bound HPC class — Table 7's verdict restated")
	return Artifact{ID: "future-memory", Tables: []*report.Table{table}}, nil
}
