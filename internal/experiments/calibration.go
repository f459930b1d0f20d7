package experiments

import (
	"context"
	"fmt"

	"repro/internal/memsys"
	"repro/internal/queueing"
	"repro/internal/report"
	"repro/internal/units"
	"repro/internal/workloads"
)

// Fig7Combo is one of the paper's four measured calibration cases:
// {DDR3-1333, DDR3-1867} × {100% read, 2:1 read/write}.
type Fig7Combo struct {
	Grade        memsys.Grade
	ReadFraction float64
}

// PaperFig7Combos returns the four combinations of §VI.C.1.
func PaperFig7Combos() []Fig7Combo {
	return []Fig7Combo{
		{memsys.DDR3_1867, 1.0},
		{memsys.DDR3_1867, 2.0 / 3.0},
		{memsys.DDR3_1333, 1.0},
		{memsys.DDR3_1333, 2.0 / 3.0},
	}
}

// Fig7Point is one measured loaded-latency point.
type Fig7Point struct {
	Utilization float64
	Queue       units.Duration
	Latency     units.Duration
	Bandwidth   units.BytesPerSecond
}

// Fig7Curve is the measured curve for one combo.
type Fig7Curve struct {
	Combo  Fig7Combo
	MaxBW  units.BytesPerSecond // saturated bandwidth (the case's efficiency)
	Points []Fig7Point
	Curve  *queueing.Measured
}

// SweepCombo measures queuing delay versus utilization for one combo, the
// way the paper drives MLC at increasing arrival rates: inject at a
// ladder of target rates, record achieved bandwidth and latency, subtract
// the minimum observed latency (the compulsory latency), and normalize
// bandwidth to the case's saturated maximum.
func SweepCombo(ctx context.Context, combo Fig7Combo, scale Scale, seed uint64) (Fig7Curve, error) {
	cfg := memsysConfigFor(combo.Grade)
	maxBW, err := workloads.MaxBandwidth(cfg, combo.ReadFraction, seed)
	if err != nil {
		return Fig7Curve{}, err
	}

	fractions := []float64{0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.82, 0.88, 0.92, 0.95}
	out := Fig7Curve{Combo: combo, MaxBW: maxBW}
	minLat := units.Duration(0)
	for i, frac := range fractions {
		if err := ctx.Err(); err != nil {
			return Fig7Curve{}, err
		}
		mlc := workloads.MLC{
			ReadFraction: combo.ReadFraction,
			Rate:         maxBW * units.BytesPerSecond(frac),
			Duration:     scale.MLCDuration,
			Seed:         seed + uint64(i)*977,
		}
		res, err := mlc.Run(cfg)
		if err != nil {
			return Fig7Curve{}, err
		}
		pt := Fig7Point{
			Utilization: float64(res.Achieved) / float64(maxBW),
			Latency:     res.AvgLatency,
			Bandwidth:   res.Achieved,
		}
		if i == 0 || res.AvgLatency < minLat {
			minLat = res.AvgLatency
		}
		out.Points = append(out.Points, pt)
	}
	// "we can subtract the minimum observed latency for each test case
	// (the compulsory latency) from the total latency observed" (§VI.C.1).
	us := make([]float64, len(out.Points))
	ds := make([]units.Duration, len(out.Points))
	for i := range out.Points {
		out.Points[i].Queue = out.Points[i].Latency - minLat
		if out.Points[i].Queue < 0 {
			out.Points[i].Queue = 0
		}
		us[i] = out.Points[i].Utilization
		ds[i] = out.Points[i].Queue
	}
	curve, err := queueing.NewMeasured(us, ds)
	if err != nil {
		return Fig7Curve{}, err
	}
	out.Curve = curve
	return out, nil
}

// CalibrateQueueCurve runs the four-combo sweep and returns each combo's
// measured curve plus their composite (pointwise average), the curve the
// §VI.C sensitivity studies run over.
func CalibrateQueueCurve(ctx context.Context, scale Scale) ([]Fig7Curve, queueing.Curve, error) {
	var fig7 []Fig7Curve
	var curves []queueing.Curve
	for i, combo := range PaperFig7Combos() {
		c, err := SweepCombo(ctx, combo, scale, 0xF16+uint64(i)*131)
		if err != nil {
			return nil, nil, err
		}
		fig7 = append(fig7, c)
		curves = append(curves, c.Curve)
	}
	comp, err := queueing.NewComposite(curves...)
	if err != nil {
		return nil, nil, err
	}
	return fig7, comp, nil
}

// Figure7 reproduces Fig. 7: queuing delay vs bandwidth utilization for
// the four combos plus the composite model curve, rendered from the
// suite's calibration.
func (s *Suite) Figure7(ctx context.Context) (Artifact, error) {
	cal, err := s.calibration(ctx)
	if err != nil {
		return Artifact{}, err
	}
	chart := report.NewChart("Figure 7: memory channel queuing delay vs bandwidth utilization",
		"bandwidth utilization", "queuing delay (ns)")
	table := report.NewTable("Figure 7 data", "case", "utilization", "queue delay (ns)", "loaded latency (ns)", "bandwidth")

	for _, c := range cal.fig7 {
		label := fmt.Sprintf("%v %.0f%%R", c.Combo.Grade, c.Combo.ReadFraction*100)
		var xs, ys []float64
		for _, pt := range c.Points {
			xs = append(xs, pt.Utilization)
			ys = append(ys, pt.Queue.Nanoseconds())
			table.AddRow(label, fmt.Sprintf("%.0f%%", pt.Utilization*100), fmtNS(pt.Queue), fmtNS(pt.Latency), pt.Bandwidth.String())
		}
		if err := chart.AddSeries(label, xs, ys); err != nil {
			return Artifact{}, err
		}
	}
	var xs, ys []float64
	for u := 0.05; u <= 0.95; u += 0.05 {
		xs = append(xs, u)
		ys = append(ys, cal.curve.Delay(u).Nanoseconds())
	}
	if err := chart.AddSeries("composite", xs, ys); err != nil {
		return Artifact{}, err
	}
	table.AddNote("composite model curve = pointwise average of the four cases (paper §VI.C.1)")
	return Artifact{ID: "fig7", Tables: []*report.Table{table}, Charts: []*report.Chart{chart}}, nil
}
