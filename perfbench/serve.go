package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/stats"
)

// mix describes one serving workload.
type mix struct {
	name string
	// requests returns requests start..start+n-1 of the seed's stream.
	requests func(seed uint64, start, n int) []request
	// warmup is the untimed-for-latency pass each set-up ends with.
	warmup int
	// fixedRate is the open-loop rate of the latency windows, well below
	// saturation on a 2-core host.
	fixedRate float64
	// batchPerSecond sizes the closed-loop batch behind wall_s.
	batchPerSecond float64
}

var (
	// hotMix: after the warm-up every request hits the scenario cache.
	hotMix = mix{
		name:           "serve-hot",
		requests:       hotRequests,
		warmup:         600,
		fixedRate:      2000,
		batchPerSecond: 2000,
	}
	// coldMix: the warm-up fills the 4096-entry cache, so every timed
	// request solves, inserts and evicts.
	coldMix = mix{
		name:           "serve-cold",
		requests:       coldRequests,
		warmup:         4200,
		fixedRate:      1000,
		batchPerSecond: 1500,
	}
)

const (
	// rounds interleave the latency windows and the batch parts over the
	// run, so that a slow spell of the shared host moves a few rounds,
	// and the reported figures are medians over rounds.
	rounds = 8
	// latencyShare and searchShare split the run budget; the batch takes
	// what its fixed size needs.
	latencyShare = 0.5
	searchShare  = 0.3
	// sampleEvery picks the replies checked against the in-process model.
	sampleEvery = 16
	// lagLimit is the generator lateness (p99) beyond which a window is
	// invalid rather than reported.
	lagLimit = 10 * time.Millisecond
	// latencyLimit is the p90 latency from the scheduled send that a
	// max_rps step must meet.
	latencyLimit = 10 * time.Millisecond
	// searchSteps is the number of bisection steps behind max_rps.
	searchSteps = 6
)

// serveRun carries one serving run's state between phases.
type serveRun struct {
	e      *env
	m      mix
	d      *daemon
	lc     *loadClient
	rep    *report
	cursor int // next unused index of the request stream
	phase  uint64
}

// take returns the next n requests of the workload's stream.
func (s *serveRun) take(n int) []request {
	r := s.m.requests(s.e.seed, s.cursor, n)
	s.cursor += n
	return r
}

// schedule is the next phase's seeded Poisson schedule.
func (s *serveRun) schedule(rate float64, d time.Duration) []time.Duration {
	s.phase++
	return poissonSchedule(newRNG(s.e.seed, streamSchedule, s.phase), rate, d)
}

// checkSample compares the sampled replies with in-process evaluations
// and counts every request of the phase.
func (s *serveRun) checkSample(ctx context.Context, reqs []request, outs []outcome) {
	var failed int64
	for i := range outs {
		o := &outs[i]
		if !o.ok() {
			failed++
			continue
		}
		if o.resp == nil {
			continue
		}
		if err := checkReply(ctx, reqs[i], o.resp); err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s: wrong reply: %v\n", s.m.name, err)
		}
	}
	s.rep.count(int64(len(outs)), failed)
}

// window is one open-loop latency window at the fixed rate.
type window struct {
	outs     []outcome
	p50, p90 float64 // ms from the due time
	lag      float64 // generator lateness p99, ms
	cpu      time.Duration
}

func (s *serveRun) latencyWindow(ctx context.Context, d time.Duration, traced bool) (window, error) {
	sched := s.schedule(s.m.fixedRate, d)
	reqs := s.take(len(sched))
	cpu0, err := procCPU(s.d.pid())
	if err != nil {
		return window{}, err
	}
	outs := openLoop(ctx, s.lc, time.Now(), reqs, sched, everyNth(sampleEvery), traced)
	cpu1, err := procCPU(s.d.pid())
	if err != nil {
		return window{}, err
	}
	s.checkSample(ctx, reqs, outs)
	lat := latenciesMS(outs)
	return window{outs: outs, p50: median(lat), p90: pct(lat, 90), lag: lagP99(outs), cpu: cpu1 - cpu0}, ctx.Err()
}

func lagP99(outs []outcome) float64 {
	lags := make([]float64, len(outs))
	for i := range outs {
		lags[i] = ms(outs[i].lag)
	}
	return pct(lags, 99)
}

// part is one closed-loop part of the fixed batch.
type part struct {
	wall, cpu time.Duration
	n         int
}

func (s *serveRun) batchPart(ctx context.Context, n int) (part, error) {
	reqs := s.take(n)
	cpu0, err := procCPU(s.d.pid())
	if err != nil {
		return part{}, err
	}
	outs, wall := closedLoop(ctx, s.lc, reqs, everyNth(sampleEvery))
	cpu1, err := procCPU(s.d.pid())
	if err != nil {
		return part{}, err
	}
	s.checkSample(ctx, reqs, outs)
	return part{wall: wall, cpu: cpu1 - cpu0, n: n}, ctx.Err()
}

// measured is what the rounds add up to.
type measured struct {
	p50, p90, lag float64 // window medians, ms
	latencyCPU    float64 // daemon CPU s over the latency windows: rounds × median window
	wall          float64 // batch wall s: rounds × median part
	cpuPerOp      float64 // median part daemon CPU µs per request
	rate          float64 // median part throughput, req/s
	outs          []outcome
}

// measure runs the rounds: each a latency window at the fixed rate then
// one part of the closed-loop batch. A window in which the generator fell
// behind its schedule says nothing about the daemon and is dropped; the
// run is invalid when more than half are.
func (s *serveRun) measure(ctx context.Context, traced, batch bool) (measured, error) {
	d := time.Duration(latencyShare * s.e.seconds / rounds * float64(time.Second))
	n := int(s.m.batchPerSecond * s.e.seconds / rounds)
	var p50s, p90s, lags, cpus, walls, perOp, rates []float64
	var m measured
	for r := 0; r < rounds; r++ {
		w, err := s.latencyWindow(ctx, d, traced)
		if err != nil {
			return m, err
		}
		lags = append(lags, w.lag)
		if w.lag <= ms(lagLimit) {
			p50s, p90s = append(p50s, w.p50), append(p90s, w.p90)
			cpus = append(cpus, w.cpu.Seconds())
			m.outs = append(m.outs, w.outs...)
		}
		if !batch {
			continue
		}
		p, err := s.batchPart(ctx, n)
		if err != nil {
			return m, err
		}
		walls = append(walls, p.wall.Seconds())
		perOp = append(perOp, us(p.cpu)/float64(p.n))
		rates = append(rates, float64(p.n)/p.wall.Seconds())
	}
	if 2*len(p50s) < rounds {
		return m, fmt.Errorf("generator fell behind in %d of %d windows (lateness p99 over %v)", rounds-len(p50s), rounds, lagLimit)
	}
	m.p50, m.p90, m.lag = median(p50s), median(p90s), median(lags)
	m.latencyCPU = rounds * median(cpus)
	if batch {
		m.wall, m.cpuPerOp, m.rate = rounds*median(walls), median(perOp), median(rates)
	}
	return m, nil
}

// stepResult is one open-loop step of the max_rps search.
type stepResult struct {
	rate               float64
	p90, lag           float64 // ms
	offered, completed int     // in the step's last window
	failed             int64
	meets              bool
}

// tryRate runs one open-loop step at rate and judges it: no failures,
// generator on schedule, p90 from the due time within the limit, and no
// growing backlog (completions in the second half of the step keep up
// with arrivals due in it).
func (s *serveRun) tryRate(ctx context.Context, rate float64, d time.Duration) stepResult {
	sched := s.schedule(rate, d)
	reqs := s.take(len(sched))
	outs := openLoop(ctx, s.lc, time.Now(), reqs, sched, everyNth(sampleEvery), false)
	s.checkSample(ctx, reqs, outs)
	st := stepResult{rate: rate, p90: pct(latenciesMS(outs), 90), lag: lagP99(outs), failed: failures(outs)}
	st.offered, st.completed = lastWindow(outs, d/2, d)
	st.meets = st.failed == 0 && st.lag <= ms(lagLimit) && st.p90 <= ms(latencyLimit) && !backlogGrows(st.offered, st.completed)
	return st
}

// lastWindow counts the requests due in [from,to) and the requests
// completed in it.
func lastWindow(outs []outcome, from, to time.Duration) (offered, completed int) {
	for i := range outs {
		if outs[i].due >= from && outs[i].due < to {
			offered++
		}
		if outs[i].ok() && outs[i].end >= from && outs[i].end < to {
			completed++
		}
	}
	return offered, completed
}

// backlogGrows reports whether completions fell behind arrivals by more
// than noise over a window.
func backlogGrows(offered, completed int) bool {
	return float64(offered-completed) > math.Max(5, 0.05*float64(offered))
}

// searchMaxRPS bisects, in log space, for the highest open-loop rate
// that meets the limit, between lo (assumed to meet it) and hi, and
// returns the middle of the final bracket. A step that misses is run once
// more before the rate counts as missed, so one stall of the shared host
// does not end the search low.
func (s *serveRun) searchMaxRPS(ctx context.Context, lo, hi float64) (float64, []stepResult) {
	d := time.Duration(searchShare * s.e.seconds / (1.5 * searchSteps) * float64(time.Second))
	var steps []stepResult
	for k := 0; k < searchSteps && ctx.Err() == nil; k++ {
		rate := math.Sqrt(lo * hi)
		st := s.tryRate(ctx, rate, d)
		steps = append(steps, st)
		if !st.meets {
			st = s.tryRate(ctx, rate, d)
			steps = append(steps, st)
		}
		if st.meets {
			lo = rate
		} else {
			hi = rate
		}
	}
	return math.Sqrt(lo * hi), steps
}

func runServe(ctx context.Context, e *env, m mix) (*report, error) {
	s := &serveRun{e: e, m: m, rep: newReport(), cursor: m.warmup}
	warm := m.requests(e.seed, 0, m.warmup)
	d, lc, setup, err := setupDaemon(ctx, e, warm, everyNth(sampleEvery), func(reqs []request, outs []outcome) {
		s.checkSample(ctx, reqs, outs)
	})
	if err != nil {
		return nil, err
	}
	s.d, s.lc = d, lc
	defer func() {
		lc.close()
		d.stop()
	}()
	s.rep.e2e["setup_s"] = setup
	res, err := s.measure(ctx, false, true)
	if err != nil {
		return nil, err
	}
	// The open-loop limit lies below the closed-loop throughput of the
	// same connections; bracket it around that.
	maxRPS, steps := s.searchMaxRPS(ctx, 0.5*res.rate, 1.25*res.rate)
	for _, st := range steps {
		fmt.Fprintf(os.Stderr, "perfbench: %s: step %.0f req/s: p90 %.2fms lag p99 %.2fms, last half %d due / %d done, %d failed -> meets=%v\n",
			m.name, st.rate, st.p90, st.lag, st.offered, st.completed, st.failed, st.meets)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rss, err := procPeakRSSMB(s.d.pid())
	if err != nil {
		return nil, err
	}
	s.rep.e2e["wall_s"] = res.wall
	s.rep.e2e["cpu_s"] = res.latencyCPU
	s.rep.e2e["cpu_us_per_op"] = res.cpuPerOp
	s.rep.layers["proc.max_rss_mb"] = rss
	s.rep.e2e["p50_ms"] = res.p50
	s.rep.layers["latency.p90_ms"] = res.p90
	s.rep.e2e["max_rps"] = maxRPS
	fmt.Fprintf(os.Stderr, "perfbench: %s: %.0f req/s open loop: p50 %.3fms p90 %.3fms lag p99 %.3fms; batch %.2fs (%.0f req/s closed loop); max_rps %.0f\n",
		m.name, m.fixedRate, res.p50, res.p90, res.lag, res.wall, res.rate, maxRPS)
	if e.trace {
		if err := s.traced(ctx, res); err != nil {
			return nil, err
		}
	}
	return s.rep, nil
}

// traced reruns the latency windows with client spans and /metrics
// scrapes around them, then times the serving layers by direct calls on
// the workload's own bodies.
func (s *serveRun) traced(ctx context.Context, untraced measured) error {
	before, err := scrapeMetrics(ctx, s.d.base)
	if err != nil {
		return err
	}
	res, err := s.measure(ctx, true, false)
	if err != nil {
		return err
	}
	after, err := scrapeMetrics(ctx, s.d.base)
	if err != nil {
		return err
	}
	delta := after.sub(before)
	L := s.rep.layers
	L["tracing.overhead_pct"] = 100 * (res.p50 - untraced.p50) / untraced.p50
	L["loadgen.lag_p99_ms"] = res.lag
	endpoints := []string{"evaluate", "topology"}
	L["serve.server_p50_ms"] = 1e3 * delta.quantile(endpoints, 0.5)
	L["serve.server_p99_ms"] = 1e3 * delta.quantile(endpoints, 0.99)
	L["serve.server_mean_ms"] = 1e3 * delta.mean(endpoints)
	var sent []float64
	for i := range res.outs {
		if o := &res.outs[i]; o.ok() {
			sent = append(sent, ms(o.end-o.start))
		}
	}
	L["http.overhead_p50_ms"] = median(sent) - L["serve.server_p50_ms"]
	L["http.overhead_mean_ms"] = stats.Mean(sent) - L["serve.server_mean_ms"]
	hits := delta["memmodeld_cache_hits_total"] + delta["memmodeld_cache_singleflight_shared_total"]
	if total := hits + delta["memmodeld_cache_misses_total"]; total > 0 {
		L["serve.cache_hit_ratio"] = hits / total
	}
	L["serve.cache_evictions"] = delta["memmodeld_cache_evictions_total"]
	L["serve.shed"] = delta["memmodeld_admission_shed_total"]
	L["solve.solves"] = delta["memmodeld_solver_solves_total"]
	L["solve.iterations"] = delta["memmodeld_solver_iterations_total"]
	if err := writeSpans(s.e, res.outs); err != nil {
		return err
	}
	reqs := s.take(ladderBodies)
	rungs, err := serveLadder(ctx, reqs, s.m.name == hotMix.name)
	if err != nil {
		return fmt.Errorf("serving ladder: %w", err)
	}
	for k, v := range rungs {
		L[k] = v
	}
	return nil
}
