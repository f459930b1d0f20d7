// Package model implements the paper's analytic performance model — the
// primary contribution of Clapp et al., IISWC 2015.
//
// The model predicts the effective CPI of a workload from four fitted
// components (Eq. 1):
//
//	CPI_eff = CPI_cache + MPI × MP × BF
//
// and its memory bandwidth demand from the same components (Eq. 4):
//
//	BW = (MPI × (1+WBR) × LS + IOPI × IOSZ) × CPS / CPI_eff
//
// closing the loop through a queuing-delay-versus-utilization curve: the
// demand implies a utilization, the utilization implies a queuing delay,
// the queuing delay adds to the compulsory latency to give the miss
// penalty MP, and MP feeds back into Eq. 1. Evaluate finds the fixed
// point; when demand saturates the channel, the model switches to the
// bandwidth-limited CPI (Eq. 4 solved for CPI_eff at BW = available).
//
// The blocking factor BF relates to Chou's MLP model (Eq. 2/3):
//
//	CPI_eff = CPI_cache × (1 − Overlap_CM) + MPI × MP / MLP
//	BF      = 1/MLP − CPI_cache × Overlap_CM / (MPI × MP)
//
// BlockingFactorFromMLP implements Eq. 3 for the ablation study.
package model

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/units"
)

// Params are the fitted model components for one workload or workload
// class — the columns of the paper's Tables 2, 4, 5 and 6 plus the I/O
// terms of Eq. 4.
type Params struct {
	Name     string
	CPICache float64 // CPI with an infinite (last-level) cache
	BF       float64 // blocking factor: exposed fraction of the miss penalty
	MPKI     float64 // LLC misses (demand + prefetch) per 1000 instructions
	WBR      float64 // memory writes as a fraction of MPI reads
	IOPI     float64 // I/O events per instruction
	IOSZ     float64 // bytes of memory traffic per I/O event
}

// Validate reports nonsensical parameters, including NaN or infinite
// components. Failures wrap ErrInvalidParams for errors.Is
// classification.
func (p Params) Validate() error {
	switch {
	case !finite(p.CPICache, p.BF, p.MPKI, p.WBR, p.IOPI, p.IOSZ):
		return fmt.Errorf("%w: %s: components must be finite", ErrInvalidParams, p.Name)
	case p.CPICache <= 0:
		return fmt.Errorf("%w: %s: CPICache must be positive", ErrInvalidParams, p.Name)
	case p.BF < 0 || p.BF > 1:
		return fmt.Errorf("%w: %s: BF must be in [0,1]", ErrInvalidParams, p.Name)
	case p.MPKI < 0:
		return fmt.Errorf("%w: %s: MPKI must be non-negative", ErrInvalidParams, p.Name)
	case p.WBR < 0:
		return fmt.Errorf("%w: %s: WBR must be non-negative", ErrInvalidParams, p.Name)
	case p.IOPI < 0 || p.IOSZ < 0:
		return fmt.Errorf("%w: %s: I/O terms must be non-negative", ErrInvalidParams, p.Name)
	}
	return nil
}

// finite reports whether every value is neither NaN nor ±Inf.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// MPI returns misses per instruction.
func (p Params) MPI() float64 { return p.MPKI / 1000 }

// CPIEff implements Eq. 1 for a miss penalty in core cycles.
func (p Params) CPIEff(mp units.Cycles) float64 {
	return p.CPICache + p.MPI()*float64(mp)*p.BF
}

// CPIEffAt implements Eq. 1 for a miss penalty in time at core speed cps.
func (p Params) CPIEffAt(mp units.Duration, cps units.Hertz) float64 {
	return p.CPIEff(mp.Cycles(cps))
}

// BytesPerInstruction returns the memory traffic of one instruction:
// MPI×(1+WBR)×LS + IOPI×IOSZ — the numerator of Eq. 4 before the rate
// conversion.
func (p Params) BytesPerInstruction(lineSize units.Bytes) float64 {
	return p.MPI()*(1+p.WBR)*float64(lineSize) + p.IOPI*p.IOSZ
}

// Demand implements Eq. 4: the bandwidth demanded by one hardware thread
// executing at cpi on a core at speed cps.
func (p Params) Demand(cpi float64, cps units.Hertz, lineSize units.Bytes) units.BytesPerSecond {
	if cpi <= 0 {
		return 0
	}
	return units.BytesPerSecond(p.BytesPerInstruction(lineSize) * float64(cps) / cpi)
}

// ReferencesPerCycle returns the y axis of Fig. 6: memory reads and
// writebacks per core cycle with CPI_eff = CPI_cache — the workload's
// intrinsic bandwidth demand, independent of core speed and line size.
func (p Params) ReferencesPerCycle() float64 {
	if p.CPICache <= 0 {
		return 0
	}
	return p.MPI() * (1 + p.WBR) / p.CPICache
}

// CPIEffChou implements Eq. 2 (Chou's MLP model): overlap is Overlap_CM,
// mlp is the memory-level parallelism.
func CPIEffChou(cpiCache float64, overlap float64, mpi float64, mp units.Cycles, mlp float64) (float64, error) {
	if mlp <= 0 {
		return 0, errors.New("model: MLP must be positive")
	}
	return cpiCache*(1-overlap) + mpi*float64(mp)/mlp, nil
}

// BlockingFactorFromMLP implements Eq. 3: the BF that makes Eq. 1 agree
// with Eq. 2 at a given operating point. As the paper observes, the
// second term vanishes as the miss penalty grows, which justifies the
// constant-BF assumption.
func BlockingFactorFromMLP(cpiCache, overlap, mpi float64, mp units.Cycles, mlp float64) (float64, error) {
	if mlp <= 0 {
		return 0, errors.New("model: MLP must be positive")
	}
	if mpi <= 0 || mp <= 0 {
		return 0, errors.New("model: MPI and MP must be positive")
	}
	return 1/mlp - cpiCache*overlap/(mpi*float64(mp)), nil
}
