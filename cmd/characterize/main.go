// Command characterize runs one workload (or all) on the simulated
// machine, reports the measured counters the way perf tooling would, and
// optionally runs the full §V.A scaling fit.
//
// Output goes through the engine's artifact pipeline: by default a
// StreamSink prints the characterization table to stdout; with -out the
// same artifact is written to a directory (txt + csv + manifest.json),
// so tooling can diff characterization runs the same way it diffs
// cmd/repro results.
//
// Usage:
//
//	characterize [-workload name] [-fit] [-ghz 2.5] [-grade 1867]
//	             [-instr N] [-out dir]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/memsys"
	"repro/internal/params"
	"repro/internal/pmu"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func main() {
	var (
		name     = flag.String("workload", "", "workload name (default: all)")
		fit      = flag.Bool("fit", false, "run the full scaling grid and fit CPI_cache/BF")
		ghz      = flag.Float64("ghz", 2.5, "core speed in GHz")
		grade    = flag.Int("grade", 1867, "DDR speed grade in MT/s")
		instr    = flag.Uint64("instr", experiments.Full().MeasureInstr, "measured instructions")
		verbose  = flag.Bool("v", false, "print per-run measurements during fits")
		counters = flag.Bool("counters", false, "dump the full counter set per run")
		outDir   = flag.String("out", "", "also write the artifact (txt/csv + manifest.json) to this directory")
	)
	flag.Parse()

	scale := experiments.Full()
	scale.MeasureInstr = *instr

	var list []workloads.Workload
	if *name != "" {
		w, err := workloads.ByName(*name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "characterize: %v\navailable: %v\n", err, workloads.Names())
			os.Exit(1)
		}
		list = []workloads.Workload{w}
	} else {
		list = workloads.All()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	art, err := characterize(ctx, list, scale, *fit, *ghz, *grade, *verbose, *counters)
	if err != nil {
		fmt.Fprintf(os.Stderr, "characterize: %v\n", err)
		os.Exit(1)
	}

	sinks := []engine.Sink{&engine.StreamSink{W: os.Stdout, Verbose: true}}
	if *outDir != "" {
		ds, err := engine.NewDirSink(*outDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "characterize: %v\n", err)
			os.Exit(1)
		}
		sinks = append(sinks, ds)
	}
	for _, s := range sinks {
		if err := engine.WriteArtifact(s, "Workload characterization", art); err != nil {
			fmt.Fprintf(os.Stderr, "characterize: %v\n", err)
			os.Exit(1)
		}
		if err := s.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "characterize: %v\n", err)
			os.Exit(1)
		}
	}
}

// characterize builds one artifact covering every requested workload:
// either the measured counter table at a single operating point, or the
// fitted Eq. 1 constants from the full scaling grid.
func characterize(ctx context.Context, list []workloads.Workload, scale experiments.Scale, fit bool, ghz float64, grade int, verbose, counters bool) (experiments.Artifact, error) {
	art := experiments.Artifact{ID: "characterize"}
	if fit {
		table := report.NewTable("Fitted scaling model (Eq. 1 constants)",
			"workload", "class", "CPI_cache", "BF", "MPKI", "WBR", "R2", "max err", "paper CPI_cache/BF/MPKI/WBR")
		for _, w := range list {
			if err := runFit(ctx, table, w, scale, verbose); err != nil {
				return experiments.Artifact{}, err
			}
		}
		art.Tables = append(art.Tables, table)
		return art, nil
	}

	table := report.NewTable(fmt.Sprintf("Measured counters at %.1f GHz / DDR3-%d", ghz, grade),
		"workload", "class", "thr", "CPI", "util", "MPKI", "MP (cy)", "MP (ns)", "WBR", "BW (GB/s)", "chan util", "IO (GB/s)", "pref hit/issued/late")
	for _, w := range list {
		sc := experiments.ScalingConfig{CoreGHz: ghz, Grade: memsys.Grade(grade)}
		m, err := experiments.RunWorkload(ctx, w, sc, scale, false)
		if err != nil {
			return experiments.Artifact{}, err
		}
		table.AddRow(w.Name(), fmt.Sprint(w.Class()), fmt.Sprint(m.Threads),
			fmt.Sprintf("%.3f", m.CPI), fmt.Sprintf("%.0f%%", m.Utilization*100),
			fmt.Sprintf("%.2f", m.MPKI), fmt.Sprintf("%.0f", float64(m.MPCycles)),
			fmt.Sprintf("%.0f", m.MP.Nanoseconds()), fmt.Sprintf("%.0f%%", m.WBR*100),
			fmt.Sprintf("%.1f", m.Bandwidth.GBps()), fmt.Sprintf("%.0f%%", m.Utilization1*100),
			fmt.Sprintf("%.2f", m.IOBandwidth.GBps()),
			fmt.Sprintf("%d/%d/%d", m.Cache.PrefHits, m.Cache.PrefIssued, m.Cache.PrefLate))
		if counters {
			fmt.Print(counterDump(m).Format())
		}
	}
	art.Tables = append(art.Tables, table)
	return art, nil
}

// counterDump flattens a measurement into the PMU-style named counter
// set the paper's tooling would report.
func counterDump(m sim.Measurement) pmu.CounterSet {
	cs := pmu.CounterSet{}
	cs.Add("inst_retired", float64(m.Instructions))
	cs.Add("cpi_eff", m.CPI)
	cs.Add("cpu_utilization", m.Utilization)
	cs.Add("llc.mpki", m.MPKI)
	cs.Add("llc.demand_mpi", m.DemandMPI)
	cs.Add("llc.miss_penalty_ns", m.MP.Nanoseconds())
	cs.Add("llc.miss_penalty_cycles", float64(m.MPCycles))
	cs.Add("mem.wbr", m.WBR)
	cs.Add("mem.bandwidth_gbps", m.Bandwidth.GBps())
	cs.Add("mem.chan_utilization", m.Utilization1)
	cs.Add("mem.reads", float64(m.Mem.Reads))
	cs.Add("mem.writes", float64(m.Mem.Writes))
	cs.Add("mem.turnarounds", float64(m.Mem.Turnarounds))
	cs.Add("mem.bank_conflicts", float64(m.Mem.BankConflicts))
	cs.Add("pf.issued", float64(m.Cache.PrefIssued))
	cs.Add("pf.hits", float64(m.Cache.PrefHits))
	cs.Add("pf.late", float64(m.Cache.PrefLate))
	cs.Add("io.events_per_instr", m.IOPI)
	cs.Add("io.bandwidth_gbps", m.IOBandwidth.GBps())
	for i, lvl := range m.Cache.Levels {
		prefix := fmt.Sprintf("cache.l%d.", i+1)
		cs.Add(prefix+"accesses", float64(lvl.Accesses))
		cs.Add(prefix+"hits", float64(lvl.Hits))
		cs.Add(prefix+"demand_misses", float64(lvl.DemandMisses))
		cs.Add(prefix+"writebacks", float64(lvl.Writebacks))
	}
	return cs
}

func runFit(ctx context.Context, table *report.Table, w workloads.Workload, scale experiments.Scale, verbose bool) error {
	fit, runs, err := experiments.FitWorkload(ctx, w, experiments.PaperScalingConfigs(), scale)
	if err != nil {
		return err
	}
	if verbose {
		for _, m := range runs {
			fmt.Printf("  run %-28s CPI=%.3f MPKI=%.2f MP=%.0fcy x=%.3f\n",
				m.Freq.String()+"/"+m.MemGrade.String(), m.CPI, m.MPKI, float64(m.MPCycles), m.MPIxMP())
		}
	}
	p := fit.Params
	paper := "-"
	if t, ok := params.ByWorkload(w.Name()); ok {
		paper = fmt.Sprintf("%.2f/%.2f/%.1f/%.0f%%", t.CPICache, t.BF, t.MPKI, t.WBR*100)
	}
	table.AddRow(w.Name(), fmt.Sprint(w.Class()), fmt.Sprintf("%.3f", p.CPICache),
		fmt.Sprintf("%.3f", p.BF), fmt.Sprintf("%.2f", p.MPKI), fmt.Sprintf("%.0f%%", p.WBR*100),
		fmt.Sprintf("%.3f", fit.R2), fmt.Sprintf("%.1f%%", fit.MaxAbsError()*100), paper)
	return nil
}
