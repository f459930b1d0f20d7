// Package experiments reproduces every table and figure of the paper's
// evaluation. Each experiment is a pure function from a Scale (run
// length) to a result struct that cmd/repro renders (and, with
// -only <id> -cpuprofile, profiles); the per-experiment index lives in
// DESIGN.md §4.
package experiments

import (
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/simcache"
	"repro/internal/units"
)

// Scale controls how much simulated work each experiment does. Paper
// fidelity does not need long runs — steady-state statistics converge
// quickly — but tests want shorter ones still.
//
// Scale also carries the measurement cache (SimCache). Like the grid's
// worker count (GOMAXPROCS), it changes how fast a grid runs, never what
// it measures: each sim.Machine is independent and seeded
// deterministically, results are reassembled in grid order, and the
// cache key is content only — so fits are bit-identical across any
// worker count and cache state.
type Scale struct {
	// WarmupInstr and MeasureInstr are aggregate instruction counts per
	// machine run.
	WarmupInstr  uint64
	MeasureInstr uint64
	// SampleInterval for time-series figures (0 disables sampling).
	SampleInterval units.Duration
	// MLCDuration is the simulated injection time per MLC point.
	MLCDuration units.Duration

	// SimCache, when non-nil, replays measurement runs addressed by
	// content (machine config, workload, run length) instead of
	// re-simulating them.
	SimCache *simcache.Cache
}

// Full is the scale used by cmd/repro. MeasureInstr is the smallest
// window w (of 12, 8, 6 and 4 M) that passes, with every larger window,
// this rule over 8 workload seeds of all 14 workloads: each workload's
// mean BF at w is within max(0.001, 2·√((SD_w² + SD_12M²)/8)) of its mean
// at 12 M, and its seed SD of BF at w is at most 0.0033, a third of the
// 0.01 BF accuracy pin. At 6 M the largest seed SD is 0.0023 (oltp) and
// the largest in-fit OLS standard error is 0.0029 (oltp's mean); 4 M
// fails on oltp's mean shift (0.0028 > 0.0026). EXPERIMENTS.md has the
// table. The 30 M warm-up is load-bearing: at 15 M the class means leave
// their pins.
func Full() Scale {
	return Scale{
		WarmupInstr:    30_000_000,
		MeasureInstr:   6_000_000,
		SampleInterval: 40 * units.Microsecond,
		MLCDuration:    150 * units.Microsecond,
	}
}

// Quick is the scale used by unit tests: shorter measurement, but warm-up
// still long enough to fill the LLC slices and reach writeback steady
// state (the expensive part; see DESIGN.md on the 1:10 scale model).
func Quick() Scale {
	return Scale{
		WarmupInstr:    30_000_000,
		MeasureInstr:   3_000_000,
		SampleInterval: 20 * units.Microsecond,
		MLCDuration:    60 * units.Microsecond,
	}
}

// fitPoint converts a simulator measurement into the model's fitting
// input — the paper's step of reading CPI_eff, MPI and MP off the PMU.
func fitPoint(m sim.Measurement) model.FitPoint {
	iosz := 0.0
	if m.IOPI > 0 && m.Instructions > 0 {
		// Average bytes per I/O event observed in the run.
		iosz = float64(m.IOBandwidth) * m.WallTime.Seconds() / (m.IOPI * float64(m.Instructions))
	}
	return model.FitPoint{
		Label: m.Workload + "@" + m.Freq.String() + "/" + m.MemGrade.String(),
		CPI:   m.CPI,
		MPI:   m.MPI,
		MP:    m.MPCycles,
		WBR:   m.WBR,
		IOPI:  m.IOPI,
		IOSZ:  iosz,
	}
}
