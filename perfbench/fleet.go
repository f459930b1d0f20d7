package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/api"
	"repro/internal/cluster"
	"repro/internal/stats"
	"repro/internal/units"
)

const (
	// fleetPerSecond sizes the closed-loop batch: simulations per second
	// of the run budget.
	fleetPerSecond = 100
	// fleetWarmup is the warm-up pass of each set-up, in simulations.
	fleetWarmup = 4
	// fleetChecks is how many replies are replayed in process.
	fleetChecks = 8
	// fleetParts splits the batch; wall and CPU are fleetParts × the
	// median part's, so a slow spell of the shared host moves one part.
	fleetParts = 5
)

// fleetSeed is the simulation seed of request i; never 0, which the
// daemon would remap.
func fleetSeed(seed uint64, i int) uint64 {
	return newRNG(seed, streamFleet, uint64(i)).next() | 1
}

// fleetRequests are requests start..start+n-1: the default fleet and
// tenants with a distinct seed each, so every request misses the cache.
func fleetRequests(seed uint64, start, n int) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = request{path: pathCluster, body: mustJSON(api.ClusterRequest{Seed: fleetSeed(seed, start+i)})}
	}
	return out
}

// fleetSpec is the cluster.Spec memmodeld builds for a default request
// with this seed: 4 simulated seconds, 0.5 s warm-up.
func fleetSpec(seed uint64, p cluster.Policy) cluster.Spec {
	return cluster.Spec{
		Hosts:    cluster.DefaultFleet(),
		Tenants:  cluster.DefaultTenants(),
		Policy:   p,
		Duration: 4 * units.Second,
		Warmup:   units.Second / 2,
		Seed:     seed,
	}
}

// checkFleetReply replays every policy of a request in process and
// compares event counts and hashes.
func checkFleetReply(ctx context.Context, seed uint64, resp api.ClusterResponse) error {
	pols := cluster.Policies()
	if len(resp.Policies) != len(pols) {
		return fmt.Errorf("%d policies in reply, want %d", len(resp.Policies), len(pols))
	}
	for i, p := range pols {
		res, err := cluster.Simulate(ctx, fleetSpec(seed, p))
		if err != nil {
			return err
		}
		got := resp.Policies[i]
		if want := fmt.Sprintf("%016x", res.EventHash); got.EventHash != want || got.Events != res.Events || got.Policy != p.String() {
			return fmt.Errorf("seed %d policy %s: reply %s/%d events %s, in process %s/%d events %s",
				seed, p, got.Policy, got.Events, got.EventHash, p, res.Events, want)
		}
	}
	return nil
}

func runFleet(ctx context.Context, e *env) (*report, error) {
	rep := newReport()
	warm := fleetRequests(e.seed, 0, fleetWarmup)
	d, lc, setup, err := setupDaemon(ctx, e, warm, func(int) bool { return false }, func(_ []request, outs []outcome) {
		rep.count(int64(len(outs)), failures(outs))
	})
	if err != nil {
		return nil, err
	}
	defer func() {
		lc.close()
		d.stop()
	}()
	n := int(fleetPerSecond*e.seconds) / fleetParts * fleetParts
	b, err := fleetBatch(ctx, e, rep, d, lc, fleetWarmup, n)
	if err != nil {
		return nil, err
	}
	rss, err := procPeakRSSMB(d.pid())
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = setup
	rep.e2e["wall_s"] = b.wall.Seconds()
	rep.e2e["cpu_s"] = b.cpu.Seconds()
	rep.e2e["cpu_us_per_op"] = b.cpuPerOp
	rep.layers["proc.max_rss_mb"] = rss
	rep.e2e["p50_ms"] = b.p50
	rep.layers["latency.p90_ms"] = b.p90
	rep.e2e["max_rps"] = b.rate
	fmt.Fprintf(os.Stderr, "perfbench: fleet: %d simulations in %.2fs, p50 %.2fms p90 %.2fms, %.0f events each\n",
		n, b.wall.Seconds(), b.p50, b.p90, b.events/float64(n))
	if !e.trace {
		return rep, nil
	}
	before, err := scrapeMetrics(ctx, d.base)
	if err != nil {
		return nil, err
	}
	tb, err := fleetBatch(ctx, e, rep, d, lc, fleetWarmup+n, n)
	if err != nil {
		return nil, err
	}
	after, err := scrapeMetrics(ctx, d.base)
	if err != nil {
		return nil, err
	}
	delta := after.sub(before)
	L := rep.layers
	L["tracing.overhead_pct"] = 100 * (tb.wall.Seconds() - b.wall.Seconds()) / b.wall.Seconds()
	L["serve.server_p50_ms"] = 1e3 * delta.quantile([]string{"cluster"}, 0.5)
	L["serve.server_p99_ms"] = 1e3 * delta.quantile([]string{"cluster"}, 0.99)
	L["http.overhead_p50_ms"] = tb.p50 - L["serve.server_p50_ms"]
	L["serve.server_mean_ms"] = 1e3 * delta.mean([]string{"cluster"})
	L["http.overhead_mean_ms"] = tb.mean - L["serve.server_mean_ms"]
	hits := delta["memmodeld_cache_hits_total"] + delta["memmodeld_cache_singleflight_shared_total"]
	if total := hits + delta["memmodeld_cache_misses_total"]; total > 0 {
		L["serve.cache_hit_ratio"] = hits / total
	}
	L["serve.cache_evictions"] = delta["memmodeld_cache_evictions_total"]
	L["serve.shed"] = delta["memmodeld_admission_shed_total"]
	L["solve.solves"] = delta["memmodeld_solver_solves_total"]
	L["solve.iterations"] = delta["memmodeld_solver_iterations_total"]
	// The serving rungs on the reference mix's bodies, so the request
	// path's layers are timed on a bounded workload too.
	rungs, err := serveLadder(ctx, hotRequests(e.seed, 0, ladderBodies), true)
	if err != nil {
		return nil, fmt.Errorf("serving ladder: %w", err)
	}
	for k, v := range rungs {
		L[k] = v
	}
	L["cluster.simulate_ms"] = b.simulateMS
	L["cluster.events_per_sim"] = b.events / float64(n)
	L["cluster.events_per_s"] = b.events / float64(n) * b.rate
	return rep, nil
}

// fleetResult is one closed-loop batch of simulations, sent in
// fleetParts equal parts timed on their own.
type fleetResult struct {
	wall, cpu  time.Duration // fleetParts × the median part's
	cpuPerOp   float64       // median part daemon CPU µs per simulation
	rate       float64       // median part simulations per second
	p50, p90   float64       // ms per simulation request, pooled
	mean       float64       // ms
	events     float64       // simulated events over all policies and requests
	simulateMS float64       // median in-process replay of one request
}

// fleetBatch sends requests start..start+n-1 closed-loop, then replays a
// seeded sample in process.
func fleetBatch(ctx context.Context, e *env, rep *report, d *daemon, lc *loadClient, start, n int) (fleetResult, error) {
	reqs := fleetRequests(e.seed, start, n)
	part := n / fleetParts
	outs := make([]outcome, 0, n)
	var walls, cpus, rates []float64
	for p := 0; p < fleetParts; p++ {
		cpu0, err := procCPU(d.pid())
		if err != nil {
			return fleetResult{}, err
		}
		po, wall := closedLoop(ctx, lc, reqs[p*part:(p+1)*part], func(int) bool { return true })
		cpu1, err := procCPU(d.pid())
		if err != nil {
			return fleetResult{}, err
		}
		outs = append(outs, po...)
		walls = append(walls, wall.Seconds())
		cpus = append(cpus, (cpu1 - cpu0).Seconds())
		rates = append(rates, float64(part)/wall.Seconds())
	}
	res := fleetResult{
		wall:     time.Duration(fleetParts * median(walls) * float64(time.Second)),
		cpu:      time.Duration(fleetParts * median(cpus) * float64(time.Second)),
		cpuPerOp: 1e6 * median(cpus) / float64(part),
		rate:     median(rates),
	}
	lat := latenciesMS(outs)
	res.p50, res.p90, res.mean = median(lat), pct(lat, 90), stats.Mean(lat)
	failed := failures(outs)
	var replay []float64
	r := newRNG(e.seed, streamFleet, uint64(start), uint64(n))
	picks := map[int]bool{}
	for len(picks) < min(fleetChecks, len(outs)) {
		picks[r.intn(len(outs))] = true
	}
	for i := range outs {
		if !outs[i].ok() {
			continue
		}
		var cr api.ClusterResponse
		if err := json.Unmarshal(outs[i].resp, &cr); err != nil {
			failed++
			continue
		}
		for _, p := range cr.Policies {
			res.events += float64(p.Events)
		}
		if !picks[i] {
			continue
		}
		t0 := time.Now()
		if err := checkFleetReply(ctx, fleetSeed(e.seed, start+i), cr); err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: fleet: wrong reply: %v\n", err)
		}
		replay = append(replay, ms(time.Since(t0)))
	}
	res.simulateMS = median(replay)
	rep.count(int64(len(outs)), failed)
	return res, ctx.Err()
}
