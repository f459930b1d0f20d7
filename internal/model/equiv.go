package model

import (
	"context"
	"fmt"
	"math"

	"repro/internal/units"
)

// Equivalence is one row of the paper's Table 7: the design-tradeoff
// summary comparing a bandwidth improvement of 1 GB/s/core
// (8 GB/s/socket) against a latency improvement of 10 ns for one
// workload class.
type Equivalence struct {
	Class string

	// BWBenefit is the performance benefit (fractional) of the last
	// 1 GB/s/core of bandwidth: CPI(base − 1 GB/s/core)/CPI(base) − 1.
	BWBenefit float64
	// LatBenefit is the performance benefit of 10 ns lower latency:
	// CPI(base + 10 ns)/CPI(base) − 1.
	LatBenefit float64

	// LatEquivBW is the bandwidth improvement (GB/s, socket-wide) with
	// the same benefit as a 10 ns latency reduction; +Inf when no
	// bandwidth improvement can match it (and NaN when latency does not
	// matter at all, the HPC row's "no improvement").
	LatEquivBW float64
	// BWEquivLat is the latency reduction (ns) with the same benefit as
	// +1 GB/s/core; +Inf when no latency reduction can match (the HPC
	// row), 0 when bandwidth does not matter.
	BWEquivLat float64
}

// EquivDeltaBW is the paper's bandwidth step: 1 GB/s per core.
const EquivDeltaBWPerCore = 1.0 // GB/s

// EquivDeltaLat is the paper's latency step: 10 ns.
const EquivDeltaLatNS = 10.0

// Equivalences computes Table 7 for the given classes around a baseline.
// The three platform variants × all classes run as one batch grid, so
// the aggregates WithSolverStats plants in ctx record the full grid's
// telemetry.
//
// The paper's published equivalences are linearized ratios of the two
// finite-difference sensitivities (e.g. enterprise: 3.5%/10 ns ÷
// ~0.7%/8 GB/s ⇒ 10 ns ≈ 39.7 GB/s); this reproduces that construction.
func Equivalences(ctx context.Context, baseline Platform, classes []Params) ([]Equivalence, error) {
	var out []Equivalence
	perCore := units.BytesPerSecond(EquivDeltaBWPerCore * 1e9)
	socketDelta := perCore * units.BytesPerSecond(baseline.Cores)

	grid, err := EvaluateAll(ctx, classes, []Platform{
		baseline,
		baseline.WithPeakBW(baseline.PeakBW - socketDelta),
		baseline.WithCompulsory(baseline.Compulsory + units.Duration(EquivDeltaLatNS)),
	})
	if err != nil {
		return nil, fmt.Errorf("model: equivalences: %w", err)
	}

	for i, c := range classes {
		base, lessBW, moreLat := grid[i][0], grid[i][1], grid[i][2]

		eq := Equivalence{Class: c.Name}
		// Benefit of having the step rather than lacking it.
		eq.BWBenefit = lessBW.CPI/base.CPI - 1
		eq.LatBenefit = moreLat.CPI/base.CPI - 1

		perGBs := eq.BWBenefit / (EquivDeltaBWPerCore * float64(baseline.Cores)) // benefit per socket GB/s
		perNS := eq.LatBenefit / EquivDeltaLatNS

		switch {
		case perGBs <= 0 && perNS <= 0:
			eq.LatEquivBW, eq.BWEquivLat = 0, 0
		case perGBs <= 0:
			// Bandwidth does not matter: nothing matches a latency gain.
			eq.LatEquivBW = math.Inf(1)
			eq.BWEquivLat = 0
		case perNS <= 0:
			// Latency does not matter (paper: HPC sees "no performance
			// improvement" from latency): no latency cut matches 1 GB/s.
			eq.LatEquivBW = 0
			eq.BWEquivLat = math.Inf(1)
		default:
			eq.LatEquivBW = eq.LatBenefit / perGBs // socket GB/s matching 10 ns
			eq.BWEquivLat = eq.BWBenefit / perNS   // ns matching 1 GB/s/core (8 GB/s/socket)
		}
		out = append(out, eq)
	}
	return out, nil
}
