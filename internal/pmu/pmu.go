// Package pmu plays the role the hardware performance-monitoring unit
// plays in the paper: it turns raw event counts from the simulated machine
// into the interval-sampled characterization data of Figs. 2, 4 and 5
// (CPU utilization, CPI, and memory bandwidth versus time) and into the
// per-run aggregates the model is fitted from.
//
// The paper samples real counters every ~100 ms (Fig. 2) or ~1 s (Fig. 5).
// Simulated time is much more expensive than wall time, so experiments
// sample at a configurable simulated interval and present samples by index
// — the periodic steady-state structure, which is what §IV.D relies on,
// is preserved.
package pmu

import (
	"fmt"
	"sort"

	"repro/internal/units"
)

// Snapshot is a monotonically increasing view of the machine's aggregate
// counters at an instant of simulated time.
type Snapshot struct {
	Instructions uint64
	Cycles       float64 // unhalted core cycles, all threads
	BusyNS       float64 // sum of per-thread unhalted time
	WallNS       float64 // elapsed simulated time × thread count
	MemBytes     float64 // DRAM traffic, reads+writes
	IOBytes      float64
}

// Sample is one interval of the characterization time series.
type Sample struct {
	Time        units.Duration // end of the interval
	CPI         float64        // cycles/instruction within the interval
	Utilization float64        // unhalted fraction within the interval
	Bandwidth   units.BytesPerSecond
	IOBandwidth units.BytesPerSecond
}

// Series is an interval-sampled characterization trace.
type Series struct {
	Interval units.Duration
	Samples  []Sample
}

// Sampler converts snapshots taken at interval boundaries into Samples.
type Sampler struct {
	interval units.Duration
	last     Snapshot
	lastTime units.Duration
	started  bool
	series   Series
}

// NewSampler creates a sampler with the given simulated interval.
// A zero or negative interval yields a disabled sampler.
func NewSampler(interval units.Duration) *Sampler {
	return &Sampler{interval: interval, series: Series{Interval: interval}}
}

// Reset returns the sampler to its just-built state with a new interval,
// retaining the sample storage so a reused sampler appends into already-
// grown capacity instead of re-paying the per-sample slice growth every
// run (the batched-sampling half of the zero-alloc measurement path;
// Series() copies samples out, so retained storage never aliases a
// returned Measurement).
func (s *Sampler) Reset(interval units.Duration) {
	s.interval = interval
	s.last = Snapshot{}
	s.lastTime = 0
	s.started = false
	s.series = Series{Interval: interval, Samples: s.series.Samples[:0]}
}

// Enabled reports whether the sampler records anything.
func (s *Sampler) Enabled() bool { return s != nil && s.interval > 0 }

// Record ingests a snapshot taken at time now. The first call sets the
// baseline; subsequent calls append one sample covering [lastTime, now].
func (s *Sampler) Record(now units.Duration, snap Snapshot) {
	if !s.Enabled() {
		return
	}
	if !s.started {
		s.started = true
		s.last, s.lastTime = snap, now
		return
	}
	dt := (now - s.lastTime).Seconds()
	if dt <= 0 {
		return
	}
	dInstr := float64(snap.Instructions - s.last.Instructions)
	dCycles := snap.Cycles - s.last.Cycles
	sample := Sample{Time: now}
	if dInstr > 0 {
		sample.CPI = dCycles / dInstr
	}
	if dWall := snap.WallNS - s.last.WallNS; dWall > 0 {
		sample.Utilization = (snap.BusyNS - s.last.BusyNS) / dWall
	}
	sample.Bandwidth = units.BytesPerSecond((snap.MemBytes - s.last.MemBytes) / dt)
	sample.IOBandwidth = units.BytesPerSecond((snap.IOBytes - s.last.IOBytes) / dt)
	s.series.Samples = append(s.series.Samples, sample)
	s.last, s.lastTime = snap, now
}

// Series returns the recorded time series.
func (s *Sampler) Series() Series {
	out := s.series
	out.Samples = append([]Sample(nil), s.series.Samples...)
	return out
}

// CounterSet is a named snapshot of every machine counter, for reporting
// (cmd/characterize dumps one, the way perf-counter tooling dumps events).
type CounterSet map[string]float64

// Add stores value under name.
func (c CounterSet) Add(name string, value float64) { c[name] = value }

// Names returns the counter names in sorted order.
func (c CounterSet) Names() []string {
	names := make([]string, 0, len(c))
	for n := range c {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Format renders "name = value" lines in sorted order.
func (c CounterSet) Format() string {
	out := ""
	for _, n := range c.Names() {
		out += fmt.Sprintf("%-28s %.6g\n", n, c[n])
	}
	return out
}
