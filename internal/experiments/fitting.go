package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/engine"
	"repro/internal/memsys"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/workloads"
)

// ScalingConfig is one core-speed/memory-speed point of the §V.A
// methodology ("varying the core speed and memory speed of the system
// under test").
type ScalingConfig struct {
	CoreGHz float64
	Grade   memsys.Grade
}

// PaperScalingConfigs returns the paper's grid: core speeds 2.1, 2.4,
// 2.7, 3.1 GHz (Table 3) at the baseline and reduced memory speeds.
func PaperScalingConfigs() []ScalingConfig {
	var out []ScalingConfig
	for _, g := range []memsys.Grade{memsys.DDR3_1867, memsys.DDR3_1333} {
		for _, f := range []float64{2.1, 2.4, 2.7, 3.1} {
			out = append(out, ScalingConfig{CoreGHz: f, Grade: g})
		}
	}
	return out
}

// machineConfig builds the measurement platform for one workload at one
// scaling point. Thread count follows the workload (HPC fits use 6
// threads, §V.N); prefetching and cache geometry are fixed.
func machineConfig(w workloads.Workload, sc ScalingConfig) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Threads = w.FitThreads()
	cfg.Core.Freq = units.GHzOf(sc.CoreGHz)
	cfg.Mem.Grade = sc.Grade
	return cfg
}

// variant is a fit grid beyond each workload's own: the workload's warm
// machine with its prefetcher set to another depth, 0 turning it off.
type variant struct {
	workload string
	depth    int
}

// variantGrids are the prefetch studies' grids (PrefetchAblation,
// PrefetchDepthSweep). At the default depth a workload's own grid
// serves, so none is listed.
var variantGrids = []variant{
	{"columnstore", 0}, {"bwaves", 0}, {"oltp", 0},
	{"columnstore", 2}, {"columnstore", 4}, {"columnstore", 16},
}

// prefetchGrid names the grid of workload's warm machine at a prefetch
// depth: the workload's own at the default depth, "<workload>-nopf" with
// the prefetcher off (depth 0), and "<workload>-d<depth>" otherwise.
func prefetchGrid(workload string, depth int) string {
	switch depth {
	case sim.DefaultConfig().Cache.Prefetch.Depth:
		return workload
	case 0:
		return workload + "-nopf"
	}
	return fmt.Sprintf("%s-d%d", workload, depth)
}

// gridMachine resolves a grid name (Suite.Fit) to its workload and the
// config its machine warms at.
func gridMachine(name string) (workloads.Workload, sim.Config, error) {
	workload, depth := name, -1
	for _, v := range variantGrids {
		if prefetchGrid(v.workload, v.depth) == name {
			workload, depth = v.workload, v.depth
		}
	}
	w, err := workloads.ByName(workload)
	if err != nil {
		return workloads.Workload{}, sim.Config{}, err
	}
	warm := machineConfig(w, warmScaling)
	switch {
	case depth == 0:
		warm.Cache.Prefetch.Enabled = false
	case depth > 0:
		warm.Cache.Prefetch.Depth = depth
	}
	return w, warm, nil
}

// machinePool recycles simulated machines across measurement runs: a
// Machine.Reset reuses the memory simulator, per-thread timing state,
// pooled tracks and PMU sampler, so a pooled machine costs generator
// state instead of full construction — the dominant allocation source of
// the fit grids. Reset restores construction state bit-exactly (asserted
// in sim/reset_test.go), even after a cancelled run, and CopyFrom
// overwrites all timing state and re-attaches every track
// (sim/copy_test.go), so pooled machines are interchangeable with fresh
// ones.
var machinePool sync.Pool

// acquireMachine Resets a pooled machine for cfg, or builds a fresh one.
// A config Reset rejects is handed to sim.New so the error surfaces from
// the same construction path.
func acquireMachine(cfg sim.Config, name string, factory sim.GeneratorFactory) (*sim.Machine, error) {
	if m, _ := machinePool.Get().(*sim.Machine); m != nil {
		if err := m.Reset(cfg, name, factory); err == nil {
			return m, nil
		}
	}
	return sim.New(cfg, name, factory)
}

// release returns m to the pool without its tracks.
func release(m *sim.Machine) {
	m.Release()
	machinePool.Put(m)
}

// runGrid evaluates n independent measurement runs concurrently, at most
// GOMAXPROCS at a time, and returns the results in index order — exactly
// the sequence a sequential loop would have produced, since every run is
// an independent, deterministically seeded machine. The first real error
// cancels the remaining work and is returned; pure cancellation errors
// only surface when nothing more specific failed.
func runGrid(ctx context.Context, n int, run func(ctx context.Context, i int) (sim.Measurement, error)) ([]sim.Measurement, error) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	gctx, cancel := context.WithCancel(ctx)
	defer cancel()
	out := make([]sim.Measurement, n)
	errs := make([]error, n)
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if err := gctx.Err(); err != nil {
				errs[i] = err
				return
			}
			out[i], errs[i] = run(gctx, i)
			if errs[i] != nil {
				cancel() // stop starting (and promptly abort) sibling runs
			}
		}(i)
	}
	wg.Wait()
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !isCtxErr(err) {
			return nil, err
		}
		if first == nil {
			first = err
		}
	}
	if first != nil {
		return nil, first
	}
	return out, nil
}

// rewarmInstr is the aggregate instructions a grid probe re-warms after
// its copy of the warm machine is retimed, before it measures: long
// enough for the caches, streams and channel queues to settle at the new
// core speed and memory grade. It was picked from a measured sweep of
// 0–4M (CHANGES.md).
const rewarmInstr = 2_000_000

// warmScaling is where every fit grid warms its machine: the paper's
// baseline platform, 2.5 GHz with DDR3-1867.
var warmScaling = ScalingConfig{CoreGHz: 2.5, Grade: memsys.DDR3_1867}

// probe is one measurement on a copy of a warm machine (measure): the
// copy is retimed to cfg's core speed and memory grade, samples at cfg's
// interval, re-warms rewarm aggregate instructions and then measures
// Scale.MeasureInstr.
type probe struct {
	cfg    sim.Config
	rewarm uint64
}

// gridProbes are the points of a scaling grid: the warm machine retimed
// to each of configs and re-warmed for rewarmInstr.
func gridProbes(warm sim.Config, configs []ScalingConfig) []probe {
	probes := make([]probe, len(configs))
	for i, sc := range configs {
		cfg := warm
		cfg.Core.Freq = units.GHzOf(sc.CoreGHz)
		cfg.Mem.Grade = sc.Grade
		probes[i] = probe{cfg: cfg, rewarm: rewarmInstr}
	}
	return probes
}

// asIsProbe is the warm machine measured as it stands, sampled at
// interval (0 samples nothing). Warm-ups never sample and CopyFrom is
// exact, so it equals the cold run of a machine built with that interval
// — warmed and measured in one Run.
func asIsProbe(warm sim.Config, interval units.Duration) probe {
	cfg := warm
	cfg.SampleInterval = interval
	return probe{cfg: cfg}
}

// measure takes probes of workload w on copies of one machine warmed for
// Scale.WarmupInstr at warm — the paper's §V.A method of turning the
// knobs of one running server. Every probe measures from the same warm
// state, so workload phase effects are common to all of them and cancel
// in a fit. A lone probe runs on the warm machine itself (CopyFrom is
// exact, so a copy would measure the same); several fan out over
// runGrid, each on a pooled copy that shares the warm machine's tracks,
// so the grid steps each block through the caches once and every probe
// replays its own timing. Results come back in probe order.
func measure(ctx context.Context, w workloads.Workload, warm sim.Config, probes []probe, scale Scale) ([]sim.Measurement, error) {
	src, err := acquireMachine(warm, w.Name(), w)
	if err != nil {
		return nil, err
	}
	// The warm machine goes back to the pool only after every copy of it
	// is done (runGrid waits for all of its workers). Machines let go of
	// their tracks first, so a grid's shared records die with the grid.
	defer release(src)
	err = src.Warm(ctx, scale.WarmupInstr)
	engine.RecordSimInstr(ctx, src.Retired())
	engine.RecordFuncInstr(ctx, src.Functional())
	if err != nil {
		return nil, fmt.Errorf("experiments: warm %s: %w", w.Name(), err)
	}
	if len(probes) == 1 {
		m, err := probes[0].run(ctx, w, src, scale)
		if err != nil {
			return nil, err
		}
		return []sim.Measurement{m}, nil
	}
	return runGrid(ctx, len(probes), func(ctx context.Context, i int) (sim.Measurement, error) {
		m, _ := machinePool.Get().(*sim.Machine)
		if m == nil {
			m = new(sim.Machine)
		}
		defer release(m)
		if err := m.CopyFrom(src); err != nil {
			return sim.Measurement{}, err
		}
		return probes[i].run(ctx, w, m, scale)
	})
}

// run takes probe p on m, a warm machine or a copy of one: it retimes m
// to p's core speed and memory grade, sets p's sampling interval,
// re-warms and measures, and records the probe and the instructions it
// simulated.
func (p probe) run(ctx context.Context, w workloads.Workload, m *sim.Machine, scale Scale) (sim.Measurement, error) {
	if err := m.Retime(p.cfg.Core.Freq, p.cfg.Mem.Grade); err != nil {
		return sim.Measurement{}, err
	}
	m.SetSampleInterval(p.cfg.SampleInterval)
	before, funcBefore := m.Retired(), m.Functional()
	meas, err := m.Run(ctx, p.rewarm, scale.MeasureInstr)
	engine.RecordProbe(ctx)
	engine.RecordSimInstr(ctx, m.Retired()-before)
	engine.RecordFuncInstr(ctx, m.Functional()-funcBefore)
	if err != nil {
		return sim.Measurement{}, fmt.Errorf("experiments: measure %s at %v/%v: %w", w.Name(), p.cfg.Core.Freq, p.cfg.Mem.Grade, err)
	}
	return meas, nil
}

// RunWorkload performs a single measured run of a workload at one scaling
// point — the unit of data collection behind Figs. 2–5: a machine warmed
// at sc and measured as it stands, sampled when sample is set.
func RunWorkload(ctx context.Context, w workloads.Workload, sc ScalingConfig, scale Scale, sample bool) (sim.Measurement, error) {
	var interval units.Duration
	if sample {
		interval = scale.SampleInterval
	}
	warm := machineConfig(w, sc)
	runs, err := measure(ctx, w, warm, []probe{asIsProbe(warm, interval)}, scale)
	if err != nil {
		return sim.Measurement{}, err
	}
	return runs[0], nil
}

// fitRuns fits Eq. 1's constants under fitName to a grid's measurements.
func fitRuns(fitName string, runs []sim.Measurement) (model.Fit, error) {
	points := make([]model.FitPoint, len(runs))
	for i, m := range runs {
		points[i] = fitPoint(m)
	}
	return model.FitScaling(fitName, points)
}

// FitWorkload runs the full scaling grid for one workload and fits
// Eq. 1's constants (Fig. 3 / Tables 2, 4, 5). The grid's points run
// concurrently (bounded by GOMAXPROCS) with the measurements
// reassembled in grid order, so the fit is byte-identical to a
// sequential run.
func FitWorkload(ctx context.Context, w workloads.Workload, configs []ScalingConfig, scale Scale) (model.Fit, []sim.Measurement, error) {
	warm := machineConfig(w, warmScaling)
	runs, err := measure(ctx, w, warm, gridProbes(warm, configs), scale)
	if err != nil {
		return model.Fit{}, nil, err
	}
	fit, err := fitRuns(w.Name(), runs)
	if err != nil {
		return model.Fit{}, nil, err
	}
	return fit, runs, nil
}
