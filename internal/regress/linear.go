// Package regress implements the fitting machinery of the paper's
// methodology: ordinary-least-squares linear regression (used to estimate
// CPI_cache and BF from frequency-scaling measurements, Fig. 3) and a small
// k-means clusterer (used to recover the workload classes of Fig. 6).
package regress

import (
	"errors"
	"math"
)

// ErrInsufficientData is returned when a fit has too few (or degenerate)
// points to determine its parameters.
var ErrInsufficientData = errors.New("regress: insufficient or degenerate data")

// Line is the result of a simple linear regression y = Intercept + Slope*x.
//
// In the paper's use, x is the average miss penalty per instruction
// (MPI×MP, in core cycles), y is the measured CPI_eff, the intercept
// estimates CPI_cache and the slope estimates the blocking factor BF.
type Line struct {
	Intercept float64 // estimated y at x=0 (CPI_cache)
	Slope     float64 // dy/dx (BF)
	R2        float64 // coefficient of determination of the fit
	N         int     // number of points fitted

	// SEIntercept and SESlope are the ordinary-least-squares standard
	// errors of the estimates (0 when N ≤ 2 or the fit is exact). They
	// quantify how well the scaling experiment pins CPI_cache and BF —
	// wide slope intervals are how a "poor correlation coefficient"
	// (the paper's Proximity caveat) shows up numerically.
	SEIntercept float64
	SESlope     float64
}

// Eval returns the fitted value at x.
func (l Line) Eval(x float64) float64 { return l.Intercept + l.Slope*x }

// Fit performs ordinary least squares on the points (xs[i], ys[i]).
//
// It requires at least two points with distinct x values. R2 is 1 for a
// perfect fit; if ys has zero variance (all equal) and the fit is exact,
// R2 is reported as 1.
func Fit(xs, ys []float64) (Line, error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return Line{}, ErrInsufficientData
	}
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return Line{}, ErrInsufficientData
	}
	slope := sxy / sxx
	intercept := my - slope*mx
	l := Line{Intercept: intercept, Slope: slope, N: len(xs)}

	// R² = 1 - SS_res/SS_tot.
	var ssRes float64
	for i := range xs {
		r := ys[i] - l.Eval(xs[i])
		ssRes += r * r
	}
	if syy == 0 {
		if ssRes == 0 {
			l.R2 = 1
		}
	} else {
		l.R2 = 1 - ssRes/syy
	}

	// OLS standard errors: s² = SS_res/(n−2); se(b) = s/√Sxx;
	// se(a) = s·√(1/n + x̄²/Sxx).
	if len(xs) > 2 {
		s2 := ssRes / float64(len(xs)-2)
		l.SESlope = math.Sqrt(s2 / sxx)
		l.SEIntercept = math.Sqrt(s2 * (1/n + mx*mx/sxx))
	}
	return l, nil
}
