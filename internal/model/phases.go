package model

import "repro/internal/units"

// §IV.A of the paper: converting CPI into workload performance through
// the pathlength.

// Pathlength is the number of instructions per unit of work ("the
// required number of instructions to complete a unit of work", §IV.A).
// With pathlength fixed — the paper's validated assumption for its
// well-tuned workloads — CPI converts directly to throughput.
type Pathlength float64

// Throughput returns units of work per second for one hardware thread
// executing at cpi on a core at speed cps:
//
//	throughput = CPS / (PL × CPI)
func (pl Pathlength) Throughput(cpi float64, cps units.Hertz) float64 {
	if pl <= 0 || cpi <= 0 {
		return 0
	}
	return float64(cps) / (float64(pl) * cpi)
}

// RunTime returns the time to complete n units of work on one thread.
func (pl Pathlength) RunTime(n float64, cpi float64, cps units.Hertz) units.Duration {
	t := pl.Throughput(cpi, cps)
	if t == 0 {
		return 0
	}
	return units.Duration(n / t * 1e9)
}
