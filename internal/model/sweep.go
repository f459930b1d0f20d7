package model

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/units"
)

// SweepPoint is one platform variant's outcome for a set of workload
// classes (one x position of Figs. 8 or 10).
type SweepPoint struct {
	Platform Platform
	// DeltaPerCore is the change vs baseline: GB/s per core for bandwidth
	// sweeps (negative = reduction, Fig. 8), nanoseconds for latency
	// sweeps (positive = increase, Fig. 10).
	DeltaPerCore float64
	// Ops maps class name to its operating point.
	Ops map[string]OperatingPoint
	// CPIIncrease maps class name to CPI relative to the class's baseline
	// CPI minus one (the y axes of Figs. 8 and 10).
	CPIIncrease map[string]float64
}

// Sweep is a family of SweepPoints sharing a baseline.
type Sweep struct {
	Baseline Platform
	Classes  []Params
	Points   []SweepPoint
}

func runSweep(ctx context.Context, baseline Platform, classes []Params, variants []Platform, delta func(Platform) float64) (Sweep, error) {
	if len(classes) == 0 {
		return Sweep{}, errors.New("model: sweep needs at least one class")
	}
	// One batch over the whole classes × (baseline + variants) grid:
	// EvaluateAll spreads the points over a worker pool, which is where
	// sweep-sized grids (3 classes × 10 platforms) win wall clock.
	platforms := append([]Platform{baseline}, variants...)
	grid, err := EvaluateAll(ctx, classes, platforms)
	if err != nil {
		return Sweep{}, fmt.Errorf("model: sweep: %w", err)
	}
	base := map[string]OperatingPoint{}
	for i, c := range classes {
		base[c.Name] = grid[i][0]
	}
	sw := Sweep{Baseline: baseline, Classes: classes}
	for j, pl := range variants {
		pt := SweepPoint{
			Platform:     pl,
			DeltaPerCore: delta(pl),
			Ops:          map[string]OperatingPoint{},
			CPIIncrease:  map[string]float64{},
		}
		for i, c := range classes {
			op := grid[i][j+1]
			pt.Ops[c.Name] = op
			pt.CPIIncrease[c.Name] = op.CPI/base[c.Name].CPI - 1
		}
		sw.Points = append(sw.Points, pt)
	}
	sort.Slice(sw.Points, func(i, j int) bool {
		return sw.Points[i].DeltaPerCore < sw.Points[j].DeltaPerCore
	})
	return sw, nil
}

// BandwidthVariant describes one point of the Fig. 8 bandwidth sweep: a
// change in channel count, channel speed, and/or efficiency.
type BandwidthVariant struct {
	Label      string
	Channels   int
	ChannelMTs int
	Efficiency float64
}

// EffectiveBW returns the variant's deliverable bandwidth.
func (v BandwidthVariant) EffectiveBW() units.BytesPerSecond {
	return units.BytesPerSecond(float64(v.Channels) * float64(v.ChannelMTs) * 1e6 * 8 * v.Efficiency)
}

// PaperBandwidthVariants returns the §VI.C.2 study: "variations of this
// baseline, including changes in channel speed, efficiency, and number of
// channels". Effective bandwidths span the baseline down to about a third
// of it.
func PaperBandwidthVariants() []BandwidthVariant {
	return []BandwidthVariant{
		{Label: "4ch DDR3-1867 (baseline)", Channels: 4, ChannelMTs: 1867, Efficiency: 0.70},
		{Label: "4ch DDR3-1600", Channels: 4, ChannelMTs: 1600, Efficiency: 0.72},
		{Label: "4ch DDR3-1333", Channels: 4, ChannelMTs: 1333, Efficiency: 0.74},
		{Label: "3ch DDR3-1867", Channels: 3, ChannelMTs: 1867, Efficiency: 0.70},
		{Label: "4ch DDR3-1067", Channels: 4, ChannelMTs: 1067, Efficiency: 0.76},
		{Label: "3ch DDR3-1333", Channels: 3, ChannelMTs: 1333, Efficiency: 0.74},
		{Label: "2ch DDR3-1867", Channels: 2, ChannelMTs: 1867, Efficiency: 0.70},
		{Label: "2ch DDR3-1600", Channels: 2, ChannelMTs: 1600, Efficiency: 0.72},
		{Label: "2ch DDR3-1333", Channels: 2, ChannelMTs: 1333, Efficiency: 0.74},
	}
}

// BandwidthSweep evaluates the classes across bandwidth variants
// (Fig. 8). DeltaPerCore is (variant − baseline) deliverable GB/s per
// core, so the baseline sits at 0 and reductions are negative. The
// context carries solver telemetry and cancels the point grid between
// points.
func BandwidthSweep(ctx context.Context, baseline Platform, classes []Params, variants []BandwidthVariant) (Sweep, error) {
	basePerCore := baseline.PerCoreBW().GBps()
	pls := make([]Platform, len(variants))
	for i, v := range variants {
		pl := baseline.WithPeakBW(v.EffectiveBW())
		pl.Name = v.Label
		pls[i] = pl
	}
	return runSweep(ctx, baseline, classes, pls, func(pl Platform) float64 {
		return pl.PerCoreBW().GBps() - basePerCore
	})
}

// LatencySweep evaluates the classes across compulsory-latency increases
// (Fig. 10): steps of stepNS from the baseline, inclusive of 0. The
// context carries solver telemetry and cancels the point grid between
// points.
func LatencySweep(ctx context.Context, baseline Platform, classes []Params, steps int, stepNS float64) (Sweep, error) {
	if steps < 1 {
		return Sweep{}, errors.New("model: LatencySweep needs at least one step")
	}
	var pls []Platform
	for i := 0; i <= steps; i++ {
		add := units.Duration(float64(i) * stepNS)
		pl := baseline.WithCompulsory(baseline.Compulsory + add)
		pl.Name = fmt.Sprintf("+%dns", int(float64(i)*stepNS))
		pls = append(pls, pl)
	}
	return runSweep(ctx, baseline, classes, pls, func(pl Platform) float64 {
		return float64(pl.Compulsory - baseline.Compulsory)
	})
}

// DerivativePoint is one entry of Figs. 9/11: the performance impact of
// moving between two adjacent sweep points.
type DerivativePoint struct {
	// At is the x position: available GB/s per core (Fig. 9) or the upper
	// compulsory latency in ns (Fig. 11).
	At float64
	// PerUnit maps class name to CPI change (fractional) per unit: per
	// GB/s per core (Fig. 9) or per step (Fig. 11).
	PerUnit map[string]float64
}

// Derivative computes adjacent-point differences of a sweep, "essentially
// computing the derivative of Fig. 8" (§VI.C.2). The xOf function maps a
// sweep point to the derivative's x position.
func (sw Sweep) Derivative(xOf func(SweepPoint) float64) []DerivativePoint {
	var out []DerivativePoint
	for i := 1; i < len(sw.Points); i++ {
		lo, hi := sw.Points[i-1], sw.Points[i]
		du := hi.DeltaPerCore - lo.DeltaPerCore
		if du == 0 {
			continue
		}
		d := DerivativePoint{At: xOf(hi), PerUnit: map[string]float64{}}
		for _, c := range sw.Classes {
			dCPI := hi.CPIIncrease[c.Name] - lo.CPIIncrease[c.Name]
			d.PerUnit[c.Name] = dCPI / du
		}
		out = append(out, d)
	}
	return out
}
