package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/engine"
	"repro/internal/memsys"
	"repro/internal/model"
	"repro/internal/params"
	"repro/internal/queueing"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/workloads"
)

// Artifact is a rendered experiment: the tables and charts that
// correspond to one table or figure of the paper. It is the engine's
// artifact type — every constructor here feeds the engine's registry,
// scheduler, and sinks directly.
type Artifact = engine.Artifact

// Suite runs the paper's experiments with shared, cached intermediate
// results: workload fits are reused across Fig. 3, Tables 2/4/5 and
// Fig. 6, and the queuing-curve calibration is reused across Figs. 7–11
// and Table 7. Fits for different workloads may be computed concurrently
// (the engine's fit resources); each workload's grid runs
// exactly once per suite. All heavy methods take a context and return
// early when it is cancelled; a cancelled computation is evicted from
// the cache so a later call can retry.
type Suite struct {
	Scale Scale

	mu      sync.Mutex
	entries map[string]*fitEntry
	curve   *curveEntry
}

// fitEntry computes one grid's scaling fit exactly once, even under
// concurrent callers.
type fitEntry struct {
	once sync.Once
	fit  model.Fit
	runs []sim.Measurement
	// baseline is the sampled run at warmScaling that a time-series
	// figure renders, measured on a copy of the grid's warm machine; zero
	// for a workload no such figure plots.
	baseline sim.Measurement
	// grades are the runs GradeSweep renders, one per sweptGrades grade,
	// on copies of the grid's warm machine; nil for a workload it does
	// not plot.
	grades []sim.Measurement
	err    error
}

// curveEntry computes the queuing-curve calibration exactly once, even
// under concurrent callers — the same once-cell shape as fitEntry, so
// Curve no longer holds the suite mutex across the whole calibration.
type curveEntry struct {
	once  sync.Once
	fig7  []Fig7Curve // the four measured combos Figure 7 plots
	curve queueing.Curve
	err   error
}

// NewSuite creates a Suite at the given scale.
func NewSuite(scale Scale) *Suite {
	return &Suite{
		Scale:   scale,
		entries: map[string]*fitEntry{},
	}
}

func (s *Suite) entry(name string) *fitEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[name]
	if !ok {
		e = &fitEntry{}
		s.entries[name] = e
	}
	return e
}

func (s *Suite) curveCell() *curveEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.curve == nil {
		s.curve = &curveEntry{}
	}
	return s.curve
}

// isCtxErr reports whether err stems from context cancellation; such
// results must not poison the suite caches.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Fit returns the cached scaling fit of a grid, running it on first
// use: a workload's own grid by the workload's name, or one of the
// prefetch studies' variants by its name (variantGrids). Safe for
// concurrent use; each grid runs once per suite. The grid of a workload
// a time-series figure plots also measures that figure's baseline run
// (its warm machine as it stands, sampled), and the grid of the workload
// GradeSweep plots also measures its grades, so each distinct warm
// machine warms once.
func (s *Suite) Fit(ctx context.Context, name string) (model.Fit, error) {
	e, err := s.grid(ctx, name)
	if err != nil {
		return model.Fit{}, err
	}
	return e.fit, nil
}

// grid returns name's once-cell, run.
func (s *Suite) grid(ctx context.Context, name string) (*fitEntry, error) {
	e := s.entry(name)
	e.once.Do(func() {
		w, warm, err := gridMachine(name)
		if err != nil {
			e.err = err
			return
		}
		configs := PaperScalingConfigs()
		probes := gridProbes(w.Name(), warm, configs, s.Scale)
		if plotted(name) {
			probes = append(probes, asIsProbe(w.Name(), warm, s.Scale.SampleInterval, s.Scale))
		}
		if name == gradeWorkload {
			probes = append(probes, gridProbes(w.Name(), warm, gradeConfigs(), s.Scale)...)
		}
		runs, err := measure(ctx, w, warm, probes, s.Scale)
		if err != nil {
			e.err = err
			return
		}
		// The grid is clipped so that appending to FitRuns' slice cannot
		// overwrite the runs behind it.
		n := len(configs)
		e.runs, runs = runs[:n:n], runs[n:]
		if plotted(name) {
			e.baseline, runs = runs[0], runs[1:]
		}
		if name == gradeWorkload {
			e.grades = runs
		}
		e.fit, e.err = fitRuns(name, e.runs)
	})
	if isCtxErr(e.err) {
		s.mu.Lock()
		if s.entries[name] == e {
			delete(s.entries, name)
		}
		s.mu.Unlock()
	}
	if e.err != nil {
		return nil, e.err
	}
	return e, nil
}

// FitRuns returns the per-configuration measurements behind a fit.
func (s *Suite) FitRuns(ctx context.Context, name string) ([]sim.Measurement, error) {
	e, err := s.grid(ctx, name)
	if err != nil {
		return nil, err
	}
	return e.runs, nil
}

// baseline returns the sampled run at warmScaling of a workload a
// time-series figure plots, which its fit grid measures (Suite.Fit).
func (s *Suite) baseline(ctx context.Context, name string) (sim.Measurement, error) {
	if !plotted(name) {
		return sim.Measurement{}, fmt.Errorf("experiments: no time-series figure plots %q", name)
	}
	e, err := s.grid(ctx, name)
	if err != nil {
		return sim.Measurement{}, err
	}
	return e.baseline, nil
}

// ClassFits returns the fits for every workload of a class.
func (s *Suite) ClassFits(ctx context.Context, c workloads.Class) ([]model.Fit, error) {
	var fits []model.Fit
	for _, w := range workloads.ByClass(c) {
		f, err := s.Fit(ctx, w.Name())
		if err != nil {
			return nil, err
		}
		fits = append(fits, f)
	}
	return fits, nil
}

// Curve returns the composite queuing curve calibrated from the Fig. 7
// MLC sweep, cached after the first call.
func (s *Suite) Curve(ctx context.Context) (queueing.Curve, error) {
	c, err := s.calibration(ctx)
	if err != nil {
		return nil, err
	}
	return c.curve, nil
}

// calibration runs the Fig. 7 MLC sweep once per suite. Concurrent
// callers share one calibration without blocking the suite's fit entries.
func (s *Suite) calibration(ctx context.Context) (*curveEntry, error) {
	c := s.curveCell()
	c.once.Do(func() {
		c.fig7, c.curve, c.err = CalibrateQueueCurve(ctx, s.Scale)
	})
	if isCtxErr(c.err) {
		s.mu.Lock()
		if s.curve == c {
			s.curve = nil
		}
		s.mu.Unlock()
	}
	return c, c.err
}

// BaselinePlatform returns the paper's §VI.C.2 baseline over the
// calibrated curve.
func (s *Suite) BaselinePlatform(ctx context.Context) (model.Platform, error) {
	curve, err := s.Curve(ctx)
	if err != nil {
		return model.Platform{}, err
	}
	return model.BaselinePlatform(curve), nil
}

// ClassParams returns the Table 6 class models used by the §VI.C
// sensitivity studies. By default they are the paper's published class
// means; with fitted=true they are recomputed from this suite's own fits
// (Proximity excluded from the big-data mean, as §VI.B does).
func (s *Suite) ClassParams(ctx context.Context, fitted bool) ([]model.Params, error) {
	if !fitted {
		var out []model.Params
		for _, t := range params.Table6 {
			out = append(out, model.Params{
				Name:     t.Workload,
				CPICache: t.CPICache,
				BF:       t.BF,
				MPKI:     t.MPKI,
				WBR:      t.WBR,
			})
		}
		return out, nil
	}
	classes := []struct {
		name    string
		class   workloads.Class
		exclude string
	}{
		{"Enterprise", workloads.Enterprise, ""},
		{"Big Data", workloads.BigData, "proximity"},
		{"HPC", workloads.HPC, ""},
	}
	var out []model.Params
	for _, c := range classes {
		fits, err := s.ClassFits(ctx, c.class)
		if err != nil {
			return nil, err
		}
		var members []model.Params
		for _, f := range fits {
			if f.Params.Name == c.exclude {
				continue
			}
			members = append(members, f.Params)
		}
		mean, err := model.ClassMean(c.name, members)
		if err != nil {
			return nil, err
		}
		out = append(out, mean)
	}
	return out, nil
}

// memsysConfigFor returns the baseline memory system at a given grade.
func memsysConfigFor(grade memsys.Grade) memsys.Config {
	cfg := memsys.DefaultConfig()
	cfg.Grade = grade
	return cfg
}

// fmtPct renders a fraction as a percentage string.
func fmtPct(f float64) string { return fmt.Sprintf("%.0f%%", f*100) }

// fmtSE renders a standard error to four decimals: a default float cell
// would round a BF error of 0.0021 to 0.002.
func fmtSE(se float64) string { return fmt.Sprintf("%.4f", se) }

// fmtNS renders a duration in ns.
func fmtNS(d units.Duration) string { return fmt.Sprintf("%.1f", d.Nanoseconds()) }
