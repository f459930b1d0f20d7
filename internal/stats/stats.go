// Package stats provides the small set of summary statistics the
// characterization methodology needs: means, percentiles and
// the error measures of the calibration loop.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by reductions over empty samples.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs. It returns 0 for an empty slice;
// callers that must distinguish use MeanErr.
func Mean(xs []float64) float64 {
	m, _ := MeanErr(xs)
	return m
}

// MeanErr returns the arithmetic mean of xs, or ErrEmpty.
func MeanErr(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs)), nil
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using linear
// interpolation between closest ranks. xs need not be sorted.
func Percentile(xs []float64, p float64) (float64, error) {
	ps, err := Percentiles(xs, p)
	if err != nil {
		return 0, err
	}
	return ps[0], nil
}

// Percentiles returns Percentile(xs, p) for each of ps, sorting one
// copy of xs for all of them.
func Percentiles(xs []float64, ps ...float64) ([]float64, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	for _, p := range ps {
		if p < 0 || p > 100 {
			return nil, errors.New("stats: percentile out of range")
		}
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = SortedPercentile(ys, p)
	}
	return out, nil
}

// SortedPercentile is the interpolation behind Percentiles, for a
// caller that owns its data and sorts it in place: ys must be non-empty
// and sorted ascending, and p in [0, 100].
func SortedPercentile(ys []float64, p float64) float64 {
	rank := p / 100 * float64(len(ys)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return ys[lo]
	}
	frac := rank - float64(lo)
	return ys[lo]*(1-frac) + ys[hi]*frac
}

// RelError returns (got-want)/want. The paper's Table 3 reports model error
// this way ("Error" row, within ±3%).
func RelError(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (got - want) / want
}

// Pearson returns the sample Pearson correlation coefficient between
// paired observations xs and ys — the calibration loop's measure of how
// well predicted KPIs track observed ones across clients. It returns
// ErrEmpty for fewer than two pairs or mismatched lengths, and an error
// when either side has zero variance (r is undefined there).
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) < 2 || len(xs) != len(ys) {
		return 0, ErrEmpty
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, errors.New("stats: pearson undefined for zero variance")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// MAPE returns the mean absolute percentage error of predictions pred
// against observations obs, in percent. Pairs whose observation is zero
// are skipped (their percentage error is undefined); if no usable pair
// remains it returns ErrEmpty.
func MAPE(obs, pred []float64) (float64, error) {
	if len(obs) == 0 || len(obs) != len(pred) {
		return 0, ErrEmpty
	}
	var sum float64
	n := 0
	for i := range obs {
		if obs[i] == 0 {
			continue
		}
		sum += math.Abs((pred[i] - obs[i]) / obs[i])
		n++
	}
	if n == 0 {
		return 0, ErrEmpty
	}
	return 100 * sum / float64(n), nil
}
