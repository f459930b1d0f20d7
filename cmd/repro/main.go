// Command repro regenerates every table and figure of the paper's
// evaluation (the per-experiment index is DESIGN.md §4) and writes the
// rendered artifacts — plus a manifest.json with per-experiment timings
// and content hashes — to a results directory.
//
// The run list comes from the experiment registry (internal/engine):
// each experiment declares its dependencies (workload fits, the
// calibrated queuing curve), and the engine schedules the resulting
// two-level graph — resources first, then the experiments that render
// them — over a bounded worker pool, so independent experiments run in
// parallel on top of the fit-level parallelism.
//
// Usage:
//
//	repro [-out results] [-quick] [-only fig7,table2,...]
//	      [-workers N] [-sim-cache off|mem (no effect)]
//	      [-timeout 30m] [-cpuprofile cpu.prof] [-memprofile mem.prof] [-v]
//	repro -list [-json]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"repro/internal/engine"
	"repro/internal/experiments"
)

// main delegates to run so the deferred profile writers flush on every
// exit path (os.Exit skips defers).
func main() { os.Exit(run()) }

func run() int {
	var (
		out        = flag.String("out", "results", "output directory")
		quick      = flag.Bool("quick", false, "use the fast (test-scale) configuration")
		only       = flag.String("only", "", "comma-separated experiment ids to run (default: all; see -list)")
		list       = flag.Bool("list", false, "print the experiment registry and exit")
		asJSON     = flag.Bool("json", false, "with -list, print the registry as JSON")
		workers    = flag.Int("workers", runtime.NumCPU(), "max experiments/fits in flight")
		simCache   = flag.String("sim-cache", "mem", "off or mem; does nothing (nothing is cached), kept for perfbench's command line")
		timeout    = flag.Duration("timeout", 0, "overall run deadline (0 = none)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write an allocation profile to this file at exit")
		verbose    = flag.Bool("v", false, "echo each artifact's text to stdout")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "repro: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "repro: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "repro: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile reflects live data
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "repro: %v\n", err)
			}
		}()
	}

	scale := experiments.Full()
	if *quick {
		scale = experiments.Quick()
	}
	if *simCache != "off" && *simCache != "mem" {
		fmt.Fprintf(os.Stderr, "repro: -sim-cache must be off or mem (got %q)\n", *simCache)
		return 2
	}
	suite := experiments.NewSuite(scale)
	reg := suite.Registry()

	if *list {
		printList(reg, *asJSON)
		return 0
	}

	var ids []string
	if *only != "" {
		ids = strings.Split(*only, ",")
	}
	// Validate the selection up front so a typo fails fast, before any
	// simulation work starts.
	if _, err := reg.Resolve(ids); err != nil {
		fmt.Fprintf(os.Stderr, "repro: %v\n", err)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	sink, err := engine.NewDirSink(*out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "repro: %v\n", err)
		return 1
	}

	failures := 0
	rr, err := engine.Run(ctx, reg, ids, engine.Options{
		Workers: *workers,
		OnResource: func(res engine.ResourceResult) {
			if res.Err != nil {
				fmt.Fprintf(os.Stderr, "repro: %s: %v\n", res.Name, res.Err)
				return
			}
			fmt.Printf("dep  %-20s ok  (%.1fs)\n", res.Name, res.Wall.Seconds())
		},
		OnResult: func(res engine.ExperimentResult) {
			if res.Err != nil {
				fmt.Fprintf(os.Stderr, "repro: %s: %v\n", res.ID, res.Err)
				failures++
			} else {
				fmt.Printf("%-18s ok  (%.1fs, %d solves / %d iters)\n",
					res.ID, res.Wall.Seconds(), res.Solves, res.SolveIterations)
				if *verbose {
					fmt.Print(res.Artifact.Text())
				}
			}
			// Failed results go to the sink too: the manifest records the
			// error so a drifted or broken run is visible in results/.
			if err := sink.Write(res); err != nil {
				fmt.Fprintf(os.Stderr, "repro: %v\n", err)
				failures++
			}
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "repro: %v\n", err)
		return 1
	}
	sink.RecordRun(rr, *workers)
	if err := sink.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "repro: %v\n", err)
		return 1
	}
	fmt.Printf("%d experiments in %.1fs (%d workers, peak parallelism %d) -> %s/manifest.json\n",
		len(rr.Experiments), rr.Wall.Seconds(), *workers, rr.MaxParallel, *out)
	var simInstr, funcInstr, probes uint64
	for _, res := range rr.Experiments {
		simInstr += res.SimInstr
		funcInstr += res.FuncInstr
		probes += res.Probes
	}
	for _, res := range rr.Resources {
		simInstr += res.SimInstr
		funcInstr += res.FuncInstr
		probes += res.Probes
	}
	fmt.Printf("simulated instructions: %d\n", simInstr)
	fmt.Printf("functional instructions: %d\n", funcInstr)
	fmt.Println(probeSummary(probes))
	if failures > 0 || rr.Failed() > 0 {
		return 1
	}
	return 0
}

// probeSummary is the run's closing line: the measurements it took. The
// parenthesized form is the one perfbench/repro.go's simCacheLine regexp
// reads; nothing is cached, so it counts 0 hits and every probe a miss.
func probeSummary(probes uint64) string {
	return fmt.Sprintf("probes: %d (sim cache: 0 hits / 0 disk hits / %d misses)", probes, probes)
}

// printList renders the registry: the ids accepted by -only, with paper
// references and declared dependencies.
func printList(reg *engine.Registry, asJSON bool) {
	exps := reg.Experiments()
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(exps); err != nil {
			fmt.Fprintf(os.Stderr, "repro: %v\n", err)
			os.Exit(1)
		}
		return
	}
	for _, e := range exps {
		deps := "-"
		if len(e.Deps) > 0 {
			deps = summarizeDeps(e.Deps)
		}
		fmt.Printf("%-18s %-18s %-28s %s\n", e.ID, e.Section, deps, e.Title)
	}
	fmt.Printf("\n%d experiments; run a subset with -only id1,id2,...\n", len(exps))
}

// summarizeDeps compresses long fit lists ("fit:a fit:b ... (12 fits)").
func summarizeDeps(deps []string) string {
	var fitNames []string
	var other []string
	for _, d := range deps {
		if name, ok := strings.CutPrefix(d, "fit:"); ok {
			fitNames = append(fitNames, name)
		} else {
			other = append(other, d)
		}
	}
	var parts []string
	switch {
	case len(fitNames) > 4:
		parts = append(parts, fmt.Sprintf("fits(%d grids)", len(fitNames)))
	case len(fitNames) > 0:
		parts = append(parts, "fit:"+strings.Join(fitNames, ","))
	}
	parts = append(parts, other...)
	return strings.Join(parts, " ")
}
