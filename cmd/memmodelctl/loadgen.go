package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"

	"repro/api"
	"repro/internal/workgen"
)

// readSpec loads a workload spec: defaults when path is empty, the JSON
// file otherwise, with the command-line overrides applied on top. The
// shared -seed fills in a spec without a seed, and replaces a spec
// file's own seed only when it was given.
func (sh *shared) readSpec(path string, rps, duration, warmup float64) (api.WorkloadSpec, error) {
	var ws api.WorkloadSpec
	if path != "" {
		b, err := os.ReadFile(path)
		if err != nil {
			return ws, fmt.Errorf("read spec: %w", err)
		}
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&ws); err != nil {
			return ws, fmt.Errorf("parse spec %s: %w", path, err)
		}
	}
	if rps > 0 {
		ws.TotalRPS = rps
	}
	if duration > 0 {
		ws.DurationS = duration
	}
	if warmup > 0 {
		ws.WarmupS = warmup
	}
	if sh.seedSet || ws.Seed == 0 {
		ws.Seed = uint64(sh.seed)
	}
	return ws, nil
}

// loadgenCmd is the live calibration run: compile a seeded workload and
// hand it to workgen.Calibrate, which replays the deterministic arrival
// trace open-loop against the daemon, calibrates service times on one
// half of the run, predicts the same KPIs from the analytic model and
// scores them on the other half; print the scored report.
func loadgenCmd(fs *flag.FlagSet) func(context.Context, *shared) error {
	specPath := fs.String("spec", "", "workload spec JSON file (empty = reference three-client mix)")
	rps := fs.Float64("rps", 0, "override total offered rate (0 = spec default)")
	duration := fs.Float64("duration", 0, "override arrival horizon in seconds (0 = spec default)")
	warmup := fs.Float64("warmup", 0, "override warmup discard in seconds (0 = spec default)")
	inflight := fs.Int("inflight", 0, "max concurrent requests (0 = 256)")
	slots := fs.Int("slots", runtime.GOMAXPROCS(0), "assumed daemon service slots for the prediction")
	maxMAPE := fs.Float64("max-mape", 0, "fail (exit 1) if throughput or mean-latency MAPE exceeds this percent (0 = report only)")
	return func(ctx context.Context, sh *shared) error {
		ws, err := sh.readSpec(*specPath, *rps, *duration, *warmup)
		if err != nil {
			return err
		}
		spec, err := workgen.Compile(ws)
		if err != nil {
			return fmt.Errorf("loadgen: %w", err)
		}

		c := sh.client()
		fmt.Fprintf(os.Stderr, "loadgen: replaying %.0fs trace at %.0f rps (seed %d)\n",
			spec.Duration, spec.TotalRPS, spec.Seed)
		rep, res, err := workgen.Calibrate(ctx, spec, c.Evaluate, *slots, workgen.RunOptions{MaxInflight: *inflight})
		if err != nil {
			return fmt.Errorf("loadgen: %w", err)
		}

		st := c.Stats()
		fmt.Fprintf(os.Stderr,
			"loadgen: %d arrivals in %v (%d attempts, %d retries); MAPE thpt %.1f%% mean %.1f%% overall %.1f%%, pearson %.3f\n",
			rep.Arrivals, res.Wall.Round(1e6), st.Attempts, st.Retries,
			rep.ThroughputMAPE, rep.MeanLatencyMAPE, rep.OverallMAPE, rep.PearsonR)
		if err := emit(sh, rep); err != nil {
			return err
		}
		if *maxMAPE > 0 {
			if math.IsNaN(rep.ThroughputMAPE) || rep.ThroughputMAPE > *maxMAPE ||
				math.IsNaN(rep.MeanLatencyMAPE) || rep.MeanLatencyMAPE > *maxMAPE {
				return fmt.Errorf("loadgen: calibration gate failed: throughput MAPE %.1f%%, mean-latency MAPE %.1f%% (max %.1f%%)",
					rep.ThroughputMAPE, rep.MeanLatencyMAPE, *maxMAPE)
			}
		}
		return nil
	}
}

// validateCmd dry-runs a workload spec server-side: the daemon compiles
// it, reports the deterministic trace identity, and predicts the KPIs —
// no traffic is generated.
func validateCmd(fs *flag.FlagSet) func(context.Context, *shared) error {
	specPath := fs.String("spec", "", "workload spec JSON file (empty = reference three-client mix)")
	rps := fs.Float64("rps", 0, "override total offered rate (0 = spec default)")
	duration := fs.Float64("duration", 0, "override arrival horizon in seconds (0 = spec default)")
	serviceUS := fs.Float64("service-us", 0, "assumed unloaded service time in microseconds (0 = daemon default)")
	slots := fs.Int("slots", 0, "assumed service slots (0 = daemon's admission limit)")
	return func(ctx context.Context, sh *shared) error {
		ws, err := sh.readSpec(*specPath, *rps, *duration, 0)
		if err != nil {
			return err
		}
		resp, err := sh.client().WorkloadValidate(ctx, api.WorkloadValidateRequest{
			Spec:      ws,
			ServiceUS: *serviceUS,
			Slots:     *slots,
		})
		if err != nil {
			return fmt.Errorf("validate: %w", err)
		}
		return emit(sh, resp)
	}
}
