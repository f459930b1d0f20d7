package workgen

import (
	"errors"
	"math"
	"sort"
	"testing"

	"repro/api"
	"repro/internal/model"
	"repro/internal/trace"
)

// ksStatistic is the two-sided Kolmogorov–Smirnov distance between the
// empirical CDF of xs and the analytic CDF.
func ksStatistic(xs []float64, cdf func(float64) float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := float64(len(ys))
	d := 0.0
	for i, x := range ys {
		f := cdf(x)
		if hi := float64(i+1)/n - f; hi > d {
			d = hi
		}
		if lo := f - float64(i)/n; lo > d {
			d = lo
		}
	}
	return d
}

// TestProcessGoodnessOfFit draws a large seeded sample from each
// arrival process and checks it against the analytic CDF with a
// KS-style test, plus the sample mean against 1/rate. The seeds are
// fixed, so these are deterministic regression tests of the samplers,
// not flaky statistical tests.
func TestProcessGoodnessOfFit(t *testing.T) {
	const n = 20000
	// KS critical value at alpha=0.01 is 1.63/sqrt(n); generous headroom
	// below it still catches a broken sampler instantly (a wrong scale
	// or shape moves D by an order of magnitude).
	critical := 1.63 / math.Sqrt(n)
	cases := []struct {
		name string
		spec api.ArrivalSpec
		rate float64
	}{
		{"poisson", api.ArrivalSpec{Process: "poisson"}, 100},
		{"gamma-smooth", api.ArrivalSpec{Process: "gamma", Shape: 2}, 50},
		{"gamma-bursty", api.ArrivalSpec{Process: "gamma", Shape: 0.5}, 200},
		{"weibull-bursty", api.ArrivalSpec{Process: "weibull", Shape: 0.8}, 100},
		{"weibull-smooth", api.ArrivalSpec{Process: "weibull", Shape: 2}, 25},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := NewProcess(tc.spec, tc.rate)
			if err != nil {
				t.Fatalf("NewProcess: %v", err)
			}
			if got, want := p.Mean(), 1/tc.rate; math.Abs(got-want) > 1e-12*want {
				t.Fatalf("analytic mean = %g, want %g", got, want)
			}
			r := trace.NewRNG(uint64(7919 * (i + 1)))
			xs := make([]float64, n)
			sum := 0.0
			for j := range xs {
				x := p.Next(r)
				if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
					t.Fatalf("sample %d = %g", j, x)
				}
				xs[j] = x
				sum += x
			}
			mean := sum / n
			if math.Abs(mean-p.Mean()) > 0.05*p.Mean() {
				t.Errorf("sample mean %g, analytic %g (off by >5%%)", mean, p.Mean())
			}
			if d := ksStatistic(xs, p.CDF); d > critical {
				t.Errorf("KS distance %g exceeds critical %g", d, critical)
			}
		})
	}
}

// TestGammaShapeOneMatchesPoisson checks the analytic CDFs agree where
// the families coincide.
func TestGammaShapeOneMatchesPoisson(t *testing.T) {
	g, err := NewProcess(api.ArrivalSpec{Process: "gamma", Shape: 1}, 100)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProcess(api.ArrivalSpec{Process: "poisson"}, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0.001, 0.01, 0.02, 0.05} {
		if diff := math.Abs(g.CDF(x) - p.CDF(x)); diff > 1e-9 {
			t.Errorf("CDF(%g): gamma %g vs poisson %g", x, g.CDF(x), p.CDF(x))
		}
	}
}

func TestNewProcessValidation(t *testing.T) {
	cases := []struct {
		name string
		spec api.ArrivalSpec
		rate float64
	}{
		{"zero-rate", api.ArrivalSpec{}, 0},
		{"negative-rate", api.ArrivalSpec{}, -3},
		{"unknown-process", api.ArrivalSpec{Process: "pareto"}, 10},
		{"negative-shape", api.ArrivalSpec{Process: "gamma", Shape: -1}, 10},
		{"huge-shape", api.ArrivalSpec{Process: "weibull", Shape: 1e6}, 10},
		{"tiny-weibull-shape", api.ArrivalSpec{Process: "weibull", Shape: 0.018}, 10},
		{"tiny-gamma-shape", api.ArrivalSpec{Process: "gamma", Shape: 1e-300}, 10},
		{"nan-shape", api.ArrivalSpec{Process: "gamma", Shape: math.NaN()}, 10},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewProcess(tc.spec, tc.rate); !errors.Is(err, model.ErrInvalidParams) {
				t.Fatalf("err = %v, want ErrInvalidParams", err)
			}
		})
	}
}

// TestRegIncGammaLower pins the special function against known values
// (P(1,x) = 1-e^-x; P(a,a) is near but above 1/2 for small a).
func TestRegIncGammaLower(t *testing.T) {
	for _, x := range []float64{0.1, 1, 3, 10} {
		want := 1 - math.Exp(-x)
		if got := regIncGammaLower(1, x); math.Abs(got-want) > 1e-12 {
			t.Errorf("P(1,%g) = %g, want %g", x, got, want)
		}
	}
	// P(0.5, x) = erf(sqrt(x)).
	for _, x := range []float64{0.25, 1, 4} {
		want := math.Erf(math.Sqrt(x))
		if got := regIncGammaLower(0.5, x); math.Abs(got-want) > 1e-10 {
			t.Errorf("P(0.5,%g) = %g, want %g", x, got, want)
		}
	}
}
