// Quickstart: evaluate the paper's analytic model in a dozen lines.
//
// Builds the big-data workload class from the published Table 6
// parameters, places it on the paper's baseline platform (8 cores,
// 4×DDR3-1867, 75 ns), and asks the model two questions a system
// architect would: what does 10 ns more latency cost, and what does one
// fewer memory channel cost?
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/model"
	"repro/internal/queueing"
	"repro/internal/units"
)

func main() {
	// The big-data workload class (Table 6): CPI with an infinite cache,
	// blocking factor, misses per kilo-instruction, writeback rate.
	bigData := model.Params{
		Name:     "Big Data",
		CPICache: 0.91,
		BF:       0.21,
		MPKI:     5.5,
		WBR:      0.92,
	}

	// The paper's baseline platform over an analytic queuing curve.
	// (cmd/repro calibrates a measured curve instead — Fig. 7.)
	platform := model.BaselinePlatform(queueing.MM1{Service: 6 * units.Nanosecond, ULimit: 0.95})

	// All three questions solve as one batch over the model's grid
	// worker pool (model.EvaluateTopologyAll).
	grid, err := model.EvaluateAll(context.Background(), []model.Params{bigData}, []model.Platform{
		platform,
		platform.WithCompulsory(platform.Compulsory + 10*units.Nanosecond), // +10 ns latency
		platform.WithPeakBW(platform.PeakBW * 3 / 4),                       // 4 -> 3 channels
	})
	if err != nil {
		log.Fatal(err)
	}
	base, slower, narrower := grid[0][0], grid[0][1], grid[0][2]

	fmt.Printf("baseline: CPI=%.3f, loaded latency=%.0fns, demand=%v (util %.0f%%)\n",
		base.CPI, base.MissPenalty.Nanoseconds(), base.Demand, base.Utilization*100)
	fmt.Printf("+10ns latency:   CPI=%.3f (%+.1f%%)\n", slower.CPI, (slower.CPI/base.CPI-1)*100)
	fmt.Printf("3 channels:      CPI=%.3f (%+.1f%%)\n", narrower.CPI, (narrower.CPI/base.CPI-1)*100)
}
