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
	"repro/internal/simcache"
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

// machinePool recycles simulated machines across measurement runs: a
// Machine.Reset reuses the memory simulator, per-thread cache arrays,
// block buffers and PMU sampler, so a pooled machine costs generator
// state instead of full construction — the dominant allocation source of
// the fit grids. Reset restores construction state bit-exactly (asserted
// in sim/reset_test.go), even after a cancelled run, and CopyFrom
// overwrites every piece of simulated state (sim/copy_test.go), so pooled
// machines are interchangeable with fresh ones and cache keys (computed
// from configs alone) are unaffected.
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

// measureOne runs one simulated machine — or replays it from the
// content-addressed measurement cache when the scale carries one. Every
// measurement path in the package funnels through here, so cache keying,
// hit/miss telemetry, and machine pooling live in one place.
func measureOne(ctx context.Context, cfg sim.Config, name string, factory sim.GeneratorFactory, scale Scale) (sim.Measurement, error) {
	c := scale.SimCache
	var key string
	if c != nil {
		key = simcache.Key(cfg, name, scale.WarmupInstr, scale.MeasureInstr)
		if m, ok := c.Get(key); ok {
			engine.RecordSimCacheHit(ctx)
			return m, nil
		}
		engine.RecordSimCacheMiss(ctx)
	}
	m, err := acquireMachine(cfg, name, factory)
	if err != nil {
		return sim.Measurement{}, err
	}
	meas, err := m.Run(ctx, scale.WarmupInstr, scale.MeasureInstr)
	engine.RecordSimInstr(ctx, m.Retired())
	// Measurements never alias machine internals (Series and counters are
	// copied out), so the machine can be recycled immediately — including
	// after a cancelled run, which the next Reset wipes.
	machinePool.Put(m)
	if err != nil {
		return sim.Measurement{}, err
	}
	if c != nil {
		// The measurement stands regardless; a failed disk write only
		// loses future reuse.
		_ = c.Put(key, meas)
	}
	return meas, nil
}

// fitPointPool recycles the per-grid FitPoint staging slices;
// model.FitScaling copies the points it retains, so the staging buffer
// is a true temporary.
var fitPointPool = sync.Pool{New: func() any { return new([]model.FitPoint) }}

func borrowFitPoints(n int) *[]model.FitPoint {
	p := fitPointPool.Get().(*[]model.FitPoint)
	if cap(*p) < n {
		*p = make([]model.FitPoint, n)
	}
	*p = (*p)[:n]
	return p
}

// runGrid evaluates n independent measurement runs concurrently over a
// bounded worker pool (Scale.SimWorkers; <= 0 means GOMAXPROCS) and
// returns the results in index order — exactly the sequence a
// sequential loop would have produced, since every run is an
// independent, deterministically seeded machine. The first real error
// cancels the remaining work and is returned; pure cancellation errors
// only surface when nothing more specific failed.
func runGrid(ctx context.Context, scale Scale, n int, run func(ctx context.Context, i int) (sim.Measurement, error)) ([]sim.Measurement, error) {
	workers := scale.SimWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
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

// RunWorkload performs a single measured run of a workload at one scaling
// point — the unit of data collection behind Figs. 2–5.
func RunWorkload(ctx context.Context, w workloads.Workload, sc ScalingConfig, scale Scale, sample bool) (sim.Measurement, error) {
	cfg := machineConfig(w, sc)
	if sample {
		cfg.SampleInterval = scale.SampleInterval
	}
	return measureOne(ctx, cfg, w.Name(), w, scale)
}

// rewarmInstr is the aggregate instructions a grid point re-warms after
// its copy of the warm baseline machine is retimed, before it measures:
// long enough for the caches, streams and channel queues to settle at
// the new core speed and memory grade. It was picked from a measured
// sweep of 0–4M (CHANGES.md).
const rewarmInstr = 2_000_000

// warmScaling is where every fit grid warms its machine: the paper's
// baseline platform, 2.5 GHz with DDR3-1867.
var warmScaling = ScalingConfig{CoreGHz: 2.5, Grade: memsys.DDR3_1867}

// measureGrid measures workload w at every scaling point of configs,
// with tweak (when non-nil) applied to each point's machine config. Like
// the paper's §V.A method of turning the knobs of one running server, it
// warms one machine once at warmScaling; each point then measures a copy
// of that warm machine, retimed to its core speed and memory grade and
// re-warmed for rewarmInstr. Every point measures the same instruction
// window from the same warm state, so workload phase effects are common
// to all points and cancel in the fit. The points fan out over runGrid
// and read the warm machine concurrently; a grid whose points all hit
// the measurement cache does not warm at all.
//
// With baseline set, one more copy of the warm machine is measured as it
// stands — sampled, not retimed, not re-warmed — and returned as base:
// the §V.B characterization run of Figs. 2/4/5 on the same server.
// Warm-ups never sample and CopyFrom is exact, so base equals a cold
// sampled run at warmScaling (RunWorkload with sample) and is cached
// under that run's key.
func measureGrid(ctx context.Context, w workloads.Workload, configs []ScalingConfig, scale Scale, tweak func(*sim.Config), baseline bool) (runs []sim.Measurement, base sim.Measurement, err error) {
	cfgAt := func(sc ScalingConfig) sim.Config {
		cfg := machineConfig(w, sc)
		if tweak != nil {
			tweak(&cfg)
		}
		return cfg
	}
	warmCfg := cfgAt(warmScaling)
	// Slot i < len(configs) is grid point i; the slot after them, when
	// baseline is set, is the baseline copy.
	n := len(configs)
	if baseline {
		n++
	}
	out := make([]sim.Measurement, n)
	keys := make([]string, n)
	var todo []int
	c := scale.SimCache
	for i := range out {
		if c != nil {
			if i < len(configs) {
				keys[i] = simcache.CopyKey(cfgAt(configs[i]), warmCfg, w.Name(), scale.WarmupInstr, rewarmInstr, scale.MeasureInstr)
			} else {
				sampled := warmCfg
				sampled.SampleInterval = scale.SampleInterval
				keys[i] = simcache.Key(sampled, w.Name(), scale.WarmupInstr, scale.MeasureInstr)
			}
			if m, ok := c.Get(keys[i]); ok {
				engine.RecordSimCacheHit(ctx)
				out[i] = m
				continue
			}
			engine.RecordSimCacheMiss(ctx)
		}
		todo = append(todo, i)
	}
	if len(todo) > 0 {
		if err := measureCopies(ctx, w, warmCfg, configs, scale, todo, out); err != nil {
			return nil, sim.Measurement{}, err
		}
		for _, i := range todo {
			if c != nil {
				_ = c.Put(keys[i], out[i]) // a failed disk write only loses reuse
			}
		}
	}
	if baseline {
		base = out[len(configs)]
	}
	return out[:len(configs)], base, nil
}

// measureCopies warms one machine at warmCfg and fills out's slots todo
// from copies of it (measureCopy): slot i < len(configs) at grid point
// configs[i], the slot after them as the baseline copy.
func measureCopies(ctx context.Context, w workloads.Workload, warmCfg sim.Config, configs []ScalingConfig, scale Scale, todo []int, out []sim.Measurement) error {
	warm, err := acquireMachine(warmCfg, w.Name(), w)
	if err != nil {
		return err
	}
	// The warm machine goes back to the pool only after every copy of it
	// is done (runGrid waits for all of its workers).
	defer machinePool.Put(warm)
	err = warm.Warm(ctx, scale.WarmupInstr)
	engine.RecordSimInstr(ctx, warm.Retired())
	if err != nil {
		return fmt.Errorf("experiments: warm %s: %w", w.Name(), err)
	}
	runs, err := runGrid(ctx, scale, len(todo), func(ctx context.Context, j int) (sim.Measurement, error) {
		if i := todo[j]; i < len(configs) {
			sc := configs[i]
			meas, err := measureCopy(ctx, warm, &sc, scale)
			if err != nil {
				return sim.Measurement{}, fmt.Errorf("experiments: fit %s at %.1fGHz/%v: %w", w.Name(), sc.CoreGHz, sc.Grade, err)
			}
			return meas, nil
		}
		meas, err := measureCopy(ctx, warm, nil, scale)
		if err != nil {
			return sim.Measurement{}, fmt.Errorf("experiments: baseline %s: %w", w.Name(), err)
		}
		return meas, nil
	})
	if err != nil {
		return err
	}
	for j, i := range todo {
		out[i] = runs[j]
	}
	return nil
}

// measureCopy copies the warm machine into a pooled one and measures
// MeasureInstr on it. A grid point (sc non-nil) is first retimed to *sc
// and re-warmed for rewarmInstr; the baseline copy (sc nil) samples at
// Scale.SampleInterval and measures at once.
func measureCopy(ctx context.Context, warm *sim.Machine, sc *ScalingConfig, scale Scale) (sim.Measurement, error) {
	m, _ := machinePool.Get().(*sim.Machine)
	if m == nil {
		m = new(sim.Machine)
	}
	defer machinePool.Put(m)
	if err := m.CopyFrom(warm); err != nil {
		return sim.Measurement{}, err
	}
	var rewarm uint64
	if sc == nil {
		m.SetSampleInterval(scale.SampleInterval)
	} else {
		if err := m.Retime(units.GHzOf(sc.CoreGHz), sc.Grade); err != nil {
			return sim.Measurement{}, err
		}
		rewarm = rewarmInstr
	}
	meas, err := m.Run(ctx, rewarm, scale.MeasureInstr)
	engine.RecordSimInstr(ctx, m.Retired())
	return meas, err
}

// fitRuns fits Eq. 1's constants under fitName to a grid's measurements.
func fitRuns(fitName string, runs []sim.Measurement) (model.Fit, error) {
	points := borrowFitPoints(len(runs))
	defer fitPointPool.Put(points)
	for i, m := range runs {
		(*points)[i] = fitPoint(m)
	}
	return model.FitScaling(fitName, *points)
}

// fitGrid measures workload w over configs (measureGrid, with tweak) and
// fits Eq. 1's constants under fitName.
func fitGrid(ctx context.Context, fitName string, w workloads.Workload, configs []ScalingConfig, scale Scale, tweak func(*sim.Config)) (model.Fit, []sim.Measurement, error) {
	runs, _, err := measureGrid(ctx, w, configs, scale, tweak, false)
	if err != nil {
		return model.Fit{}, nil, err
	}
	fit, err := fitRuns(fitName, runs)
	if err != nil {
		return model.Fit{}, nil, err
	}
	return fit, runs, nil
}

// FitWorkload runs the full scaling grid for one workload and fits
// Eq. 1's constants (Fig. 3 / Tables 2, 4, 5). The grid's points run
// concurrently (bounded by Scale.SimWorkers) with the measurements
// reassembled in grid order, so the fit is byte-identical to a
// sequential run.
func FitWorkload(ctx context.Context, w workloads.Workload, configs []ScalingConfig, scale Scale) (model.Fit, []sim.Measurement, error) {
	return fitGrid(ctx, w.Name(), w, configs, scale, nil)
}

// fitWithoutPrefetch reruns a workload's scaling grid with the hardware
// prefetcher disabled — the §VII ablation.
func fitWithoutPrefetch(ctx context.Context, name string, scale Scale) (model.Fit, error) {
	w, err := workloads.ByName(name)
	if err != nil {
		return model.Fit{}, err
	}
	fit, _, err := fitGrid(ctx, name+"-nopf", w, PaperScalingConfigs(), scale, func(cfg *sim.Config) {
		cfg.Cache.Prefetch.Enabled = false
	})
	return fit, err
}
