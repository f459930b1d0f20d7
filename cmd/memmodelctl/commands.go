package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/api"
)

// emit prints v as JSON on the command's output: indented for humans,
// compact single-line under -json.
func emit(sh *shared, v any) error {
	enc := json.NewEncoder(sh.out)
	if !sh.jsonOut {
		enc.SetIndent("", "  ")
	}
	return enc.Encode(v)
}

// healthCmd waits for the daemon to answer /healthz — the SDK retries
// 503s (a booting or draining daemon) within the budget, so this
// doubles as a readiness gate for scripts.
func healthCmd(fs *flag.FlagSet) func(context.Context, *shared) error {
	return func(ctx context.Context, sh *shared) error {
		if err := sh.client().Healthz(ctx); err != nil {
			return fmt.Errorf("health: %w", err)
		}
		if sh.jsonOut {
			return emit(sh, map[string]string{"status": "healthy"})
		}
		fmt.Fprintln(sh.out, "healthy")
		return nil
	}
}

func evalCmd(fs *flag.FlagSet) func(context.Context, *shared) error {
	class := fs.String("class", "bigdata", "workload class (bigdata, enterprise, hpc)")
	compulsory := fs.Float64("compulsory-ns", 0, "compulsory latency override (0 = paper baseline)")
	peak := fs.Float64("peak-gbps", 0, "peak bandwidth override (0 = paper baseline)")
	return func(ctx context.Context, sh *shared) error {
		resp, err := sh.client().Evaluate(ctx, api.EvaluateRequest{
			Params:   api.ParamsSpec{Class: *class},
			Platform: api.PlatformSpec{CompulsoryNS: *compulsory, PeakGBps: *peak},
		})
		if err != nil {
			return fmt.Errorf("eval: %w", err)
		}
		return emit(sh, resp)
	}
}

// clusterCmd races routing policies on the daemon's fleet simulator
// and prints the per-policy SLO report.
func clusterCmd(fs *flag.FlagSet) func(context.Context, *shared) error {
	policies := fs.String("policies", "", "comma-separated routing policies (empty = all three)")
	duration := fs.Float64("duration", 4, "simulated arrival horizon in seconds")
	simSeed := fs.Uint64("sim-seed", 42, "arrival-stream seed (same seed, same fleet, same metrics)")
	scale := fs.Float64("rate-scale", 1, "multiplier on every tenant's offered rate")
	return func(ctx context.Context, sh *shared) error {
		req := api.ClusterRequest{
			DurationS: *duration,
			Seed:      *simSeed,
			RateScale: *scale,
		}
		if *policies != "" {
			req.Policies = strings.Split(*policies, ",")
		}
		resp, err := sh.client().ClusterSimulate(ctx, req)
		if err != nil {
			return fmt.Errorf("cluster: %w", err)
		}
		return emit(sh, resp)
	}
}

// soakCmd is the chaos acceptance run: n requests spread over the
// three workload classes and a small platform grid, every one of which
// must eventually succeed within its budget.
func soakCmd(fs *flag.FlagSet) func(context.Context, *shared) error {
	n := fs.Int("n", 200, "number of evaluate requests")
	workers := fs.Int("workers", 4, "bounded parallelism")
	spread := fs.Int("spread", 8, "distinct compulsory-latency variants (cache-miss spread)")
	return func(ctx context.Context, sh *shared) error {
		classes := []string{"bigdata", "enterprise", "hpc"}
		reqs := make([]api.EvaluateRequest, *n)
		for i := range reqs {
			reqs[i] = api.EvaluateRequest{
				Params:   api.ParamsSpec{Class: classes[i%len(classes)]},
				Platform: api.PlatformSpec{CompulsoryNS: float64(75 + i%*spread)},
			}
		}

		c := sh.client()
		c.ResetStats() // scope the reported counters to this soak
		start := time.Now()
		results := c.EvaluateBatch(ctx, reqs, *workers)
		elapsed := time.Since(start)

		failed := 0
		for i, res := range results {
			if res.Err != nil {
				failed++
				fmt.Fprintf(os.Stderr, "soak: request %d: %v\n", i, res.Err)
			}
		}
		st := c.Stats()
		fmt.Fprintf(os.Stderr,
			"soak: %d/%d ok in %v (%d attempts, %d retries, %d retry-after honored, backoff %v)\n",
			*n-failed, *n, elapsed.Round(time.Millisecond),
			st.Attempts, st.Retries, st.RetryAfterHonored, st.BackoffTotal.Round(time.Millisecond))
		c.WriteMetrics(sh.out)
		if failed > 0 {
			return fmt.Errorf("soak: %d/%d requests exhausted their budget", failed, *n)
		}
		return nil
	}
}
