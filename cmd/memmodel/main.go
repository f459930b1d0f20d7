// Command memmodel queries the analytic performance model directly: given
// workload-class parameters and a platform, it reports the stable
// operating point (CPI, loaded latency, bandwidth, utilization) and
// what-if deltas for latency and bandwidth changes — the §VI.C analysis
// as a calculator.
//
// Usage:
//
//	memmodel [-class bigdata|enterprise|hpc] [-cpicache v -bf v -mpki v -wbr v]
//	         [-cores 8] [-threads 0] [-ghz 2.5] [-channels 4] [-grade 1867]
//	         [-efficiency 0.70] [-compulsory 75]
//	         [-dlat 10] [-dbw 1]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/params"
	"repro/internal/queueing"
	"repro/internal/report"
	"repro/internal/units"
)

func main() {
	var (
		class      = flag.String("class", "bigdata", "workload class: bigdata, enterprise, hpc (or 'custom')")
		cpiCache   = flag.Float64("cpicache", 0, "custom CPI_cache")
		bf         = flag.Float64("bf", 0, "custom blocking factor")
		mpki       = flag.Float64("mpki", 0, "custom MPKI")
		wbr        = flag.Float64("wbr", 0, "custom writeback rate (fraction of MPI)")
		cores      = flag.Int("cores", 8, "physical cores")
		threads    = flag.Int("threads", 0, "hardware threads (default 2x cores)")
		ghz        = flag.Float64("ghz", 2.5, "core speed (GHz)")
		channels   = flag.Int("channels", 4, "DDR channels")
		grade      = flag.Int("grade", 1867, "DDR grade (MT/s)")
		efficiency = flag.Float64("efficiency", 0.70, "channel efficiency")
		compulsory = flag.Float64("compulsory", 75, "compulsory latency (ns)")
		dlat       = flag.Float64("dlat", 10, "what-if latency delta (ns)")
		dbw        = flag.Float64("dbw", 1, "what-if bandwidth delta (GB/s per core)")
	)
	flag.Parse()

	p, err := classParams(*class, *cpiCache, *bf, *mpki, *wbr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "memmodel: %v\n", err)
		os.Exit(1)
	}
	if *threads == 0 {
		*threads = 2 * *cores
	}
	peak := units.BytesPerSecond(float64(*channels) * float64(*grade) * 1e6 * 8 * *efficiency)
	pl := model.Platform{
		Name:       "cli",
		Threads:    *threads,
		Cores:      *cores,
		CoreSpeed:  units.GHzOf(*ghz),
		LineSize:   64,
		Compulsory: units.Duration(*compulsory),
		PeakBW:     peak,
		// The CLI uses the analytic M/M/1 curve; cmd/repro calibrates a
		// measured composite from the simulator (Fig. 7).
		Queue: queueing.MM1{Service: 6 * units.Nanosecond, ULimit: 0.95},
	}

	fmt.Printf("class %-12s CPI_cache=%.2f BF=%.2f MPKI=%.1f WBR=%.0f%%\n",
		p.Name, p.CPICache, p.BF, p.MPKI, p.WBR*100)
	fmt.Printf("platform: %dC/%dT @ %.1fGHz, %dch DDR-%d, peak %v, compulsory %v\n",
		*cores, *threads, *ghz, *channels, *grade, peak, pl.Compulsory)

	// All three scenarios go through the model's solver as one batch; the
	// Metrics context collects its telemetry for the footer line.
	ctx, metrics := engine.WithMetrics(context.Background())
	grid, err := model.EvaluateAll(ctx, []model.Params{p}, []model.Platform{
		pl,
		pl.WithCompulsory(pl.Compulsory + units.Duration(*dlat)),
		pl.WithPeakBW(pl.PeakBW - units.GBpsOf(*dbw*float64(*cores))),
	})
	check(err)
	op, opLat, opBW := grid[0][0], grid[0][1], grid[0][2]

	// The operating point and its what-ifs go out as an artifact table
	// through the engine's stream sink — the same rendering cmd/repro's
	// sensitivity experiments use.
	table := report.NewTable("Operating point and what-ifs",
		"scenario", "CPI", "ΔCPI", "MP (ns)", "queue (ns)", "demand", "util", "bound", "Ginstr/s")
	addOp(table, "baseline", op, op, pl)
	addOp(table, fmt.Sprintf("+%gns latency", *dlat), op, opLat, pl)
	addOp(table, fmt.Sprintf("-%gGB/s/core bandwidth", *dbw), op, opBW, pl)

	art := engine.Artifact{ID: "memmodel", Tables: []*report.Table{table}}
	sink := &engine.StreamSink{W: os.Stdout, Verbose: true}
	check(engine.WriteArtifact(sink, "Analytic model query", art))
	check(sink.Close())

	st := metrics.Stats()
	fmt.Printf("solver: %d fixed points, %d iterations, %d bandwidth-limited, worst residual %.2g\n",
		st.Solves, st.Iterations, st.BandwidthLimited, st.MaxResidual)
}

// addOp appends one evaluated scenario to the what-if table.
func addOp(table *report.Table, label string, base, v model.OperatingPoint, pl model.Platform) {
	bound := "latency-limited"
	if v.BandwidthBound {
		bound = "BANDWIDTH-BOUND"
	}
	table.AddRow(label, fmt.Sprintf("%.3f", v.CPI), fmt.Sprintf("%+.2f%%", (v.CPI/base.CPI-1)*100),
		fmt.Sprintf("%.0f", v.MissPenalty.Nanoseconds()),
		fmt.Sprintf("%.1f", v.QueueDelay.Nanoseconds()), v.Demand.String(),
		fmt.Sprintf("%.0f%%", v.Utilization*100), bound,
		fmt.Sprintf("%.2f", v.Throughput(pl)/1e9))
}

func classParams(name string, cpiCache, bf, mpki, wbr float64) (model.Params, error) {
	switch strings.ToLower(name) {
	case "enterprise":
		return fromTarget(params.Table6[0]), nil
	case "bigdata", "big data":
		return fromTarget(params.Table6[1]), nil
	case "hpc":
		return fromTarget(params.Table6[2]), nil
	case "custom":
		p := model.Params{Name: "custom", CPICache: cpiCache, BF: bf, MPKI: mpki, WBR: wbr}
		return p, p.Validate()
	default:
		return model.Params{}, fmt.Errorf("unknown class %q (want bigdata, enterprise, hpc, custom)", name)
	}
}

func fromTarget(t params.Target) model.Params {
	return model.Params{Name: t.Workload, CPICache: t.CPICache, BF: t.BF, MPKI: t.MPKI, WBR: t.WBR}
}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "memmodel: %v\n", err)
		os.Exit(1)
	}
}
