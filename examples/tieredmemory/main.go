// Tiered memory: the §VII extension (Eq. 5) applied to an
// emerging-memory adoption question.
//
// A large in-memory dataset can move from all-DRAM to a two-tier design —
// a DRAM cache in front of a cheaper, slower persistent-memory pool. How
// high must the DRAM tier's hit rate be to keep each workload class
// within 10% of its all-DRAM performance? The example sweeps hit rates
// and reports the break-even point per class.
//
//	go run ./examples/tieredmemory
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/params"
	"repro/internal/queueing"
	"repro/internal/report"
	"repro/internal/units"
)

func main() {
	ctx := context.Background()
	curve := queueing.MM1{Service: 6 * units.Nanosecond, ULimit: 0.95}
	base := model.BaselinePlatform(curve)

	// Persistent-memory tier: 3x latency, 40% of DRAM bandwidth.
	pmemLatency := base.Compulsory * 3
	pmemBW := base.PeakBW * units.BytesPerSecond(0.4)

	const budget = 0.10 // acceptable CPI regression vs all-DRAM

	table := report.NewTable("DRAM-tier hit rate needed to stay within budget (Eq. 5)",
		"class", "all-DRAM CPI", "hit rate for <=10% regression", "CPI at 50% hit rate")
	for _, t := range params.Table6 {
		p := model.Params{Name: t.Workload, CPICache: t.CPICache, BF: t.BF, MPKI: t.MPKI, WBR: t.WBR}
		baseOp, err := model.Evaluate(ctx, p, base)
		if err != nil {
			log.Fatal(err)
		}

		tieredCPI := func(hit float64) float64 {
			tp := base.Topology()
			tp.Name = "tiered"
			tp.Tiers = []model.MemTier{
				{Name: "DRAM", Share: hit, Compulsory: base.Compulsory, PeakBW: base.PeakBW, Queue: curve},
				{Name: "PMEM", Share: 1 - hit, Compulsory: pmemLatency, PeakBW: pmemBW, Queue: curve},
			}
			op, err := model.EvaluateTopology(ctx, p, tp)
			if err != nil {
				log.Fatal(err)
			}
			return op.CPI
		}

		// Search the design space for the lowest hit rate within budget
		// (CPI is monotone in hit rate). This is a parameter search over
		// finished model evaluations — the model's own fixed points all
		// solve inside model.EvaluateTopology.
		breakEven := "never within budget"
		if tieredCPI(0)/baseOp.CPI-1 <= budget {
			breakEven = "any (even 0%)"
		} else {
			lo, hi := 0.0, 1.0
			for i := 0; i < 40; i++ {
				mid := (lo + hi) / 2
				if tieredCPI(mid)/baseOp.CPI-1 <= budget {
					hi = mid
				} else {
					lo = mid
				}
			}
			breakEven = fmt.Sprintf("%.0f%%", hi*100)
		}
		table.AddRow(t.Workload, fmt.Sprintf("%.3f", baseOp.CPI), breakEven,
			fmt.Sprintf("%.3f", tieredCPI(0.5)))
	}
	table.AddNote("Latency-sensitive classes (Enterprise) need high DRAM hit rates; the")
	table.AddNote("bandwidth-bound HPC class can even *gain* from the extra tier's channels.")

	art := engine.Artifact{ID: "tiered-memory", Tables: []*report.Table{table}}
	sink := &engine.StreamSink{W: os.Stdout, Verbose: true}
	if err := engine.WriteArtifact(sink, "Tiered-memory break-even (§VII / Eq. 5)", art); err != nil {
		log.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		log.Fatal(err)
	}
}
