// Package workgen is the deterministic workload-generation and
// calibration layer: it compiles an api.WorkloadSpec into per-client
// renewal arrival processes (Poisson/Gamma/Weibull) over weighted
// scenario mixes, generates a seeded, bit-reproducible arrival trace,
// drives the trace through the client SDK against a live memmodeld,
// predicts the same KPIs from the analytic model
// (model.EvaluateTopology) plus an M/M/c-style queueing lift
// (internal/queueing), and scores prediction accuracy with MAPE and
// Pearson-r — the observe→predict→calibrate loop that turns the chaos
// harness into a capacity-planning tool.
package workgen

import (
	"fmt"
	"math"
	"strings"

	"repro/api"
	"repro/internal/model"
	"repro/internal/trace"
)

// Process is a renewal arrival process: successive inter-arrival gaps
// are independent draws from one analytic distribution, parameterized
// so the mean gap is 1/rate. CDF exposes the analytic distribution for
// goodness-of-fit tests against generated samples.
type Process interface {
	// Name is the wire name ("poisson", "gamma", "weibull").
	Name() string
	// Next draws the next inter-arrival gap in seconds.
	Next(r *trace.RNG) float64
	// Mean is the analytic mean gap in seconds (1/rate).
	Mean() float64
	// CDF evaluates the analytic inter-arrival CDF at x seconds.
	CDF(x float64) float64
}

// minShape and maxShape bound the gamma/weibull shape parameter. Far
// above maxShape the samplers lose accuracy and no serving workload is
// that regular. Below minShape both samplers raise a uniform draw to
// the power 1/shape, so nearly every gap rounds to zero: a trace
// collapses into bursts of simultaneous arrivals far beyond rate ×
// duration (weibull at shape 0.018 passed 10⁶ arrivals for 696
// expected), or never advances.
const (
	minShape = 0.1
	maxShape = 64.0
)

// NewProcess builds the process an ArrivalSpec names at the given mean
// rate (arrivals/second). Errors wrap model.ErrInvalidParams.
func NewProcess(spec api.ArrivalSpec, rate float64) (Process, error) {
	if rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		return nil, fmt.Errorf("%w: arrival rate must be positive, got %g", model.ErrInvalidParams, rate)
	}
	shape := spec.Shape
	if shape == 0 {
		shape = 1
	}
	if !(shape >= minShape && shape <= maxShape) {
		return nil, fmt.Errorf("%w: arrival shape must be in [%g,%g], got %g",
			model.ErrInvalidParams, minShape, maxShape, spec.Shape)
	}
	mean := 1 / rate
	switch strings.ToLower(spec.Process) {
	case "", "poisson", "exponential":
		return poissonProcess{mean: mean}, nil
	case "gamma":
		return gammaProcess{shape: shape, scale: mean / shape}, nil
	case "weibull":
		return weibullProcess{shape: shape, scale: mean / math.Gamma(1+1/shape)}, nil
	default:
		return nil, fmt.Errorf("%w: unknown arrival process %q (want poisson, gamma, or weibull)",
			model.ErrInvalidParams, spec.Process)
	}
}

// poissonProcess has exponential gaps — the memoryless baseline.
type poissonProcess struct{ mean float64 }

func (p poissonProcess) Name() string { return "poisson" }

func (p poissonProcess) Mean() float64 { return p.mean }

func (p poissonProcess) Next(r *trace.RNG) float64 { return r.Exp(p.mean) }

func (p poissonProcess) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return 1 - math.Exp(-x/p.mean)
}

// gammaProcess has Gamma(shape, scale) gaps: shape < 1 is burstier than
// Poisson (heavy clustering), shape > 1 smoother, shape 1 is Poisson.
type gammaProcess struct{ shape, scale float64 }

func (g gammaProcess) Name() string { return "gamma" }

func (g gammaProcess) Mean() float64 { return g.shape * g.scale }

// Next samples via Marsaglia–Tsang (2000): squeeze-accepted cubes of a
// standard normal, with the u^(1/k) boost for shape < 1. Every draw
// consumes a deterministic RNG stream, so traces replay bit-exactly.
func (g gammaProcess) Next(r *trace.RNG) float64 {
	k := g.shape
	boost := 1.0
	if k < 1 {
		u := r.Float64()
		if u <= 0 {
			u = 1e-16
		}
		boost = math.Pow(u, 1/k)
		k++
	}
	d := k - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := stdNormal(r)
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return boost * d * v * g.scale
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return boost * d * v * g.scale
		}
	}
}

func (g gammaProcess) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return regIncGammaLower(g.shape, x/g.scale)
}

// weibullProcess has Weibull(shape, scale) gaps, sampled by inverse
// CDF: scale·(−ln(1−u))^(1/shape).
type weibullProcess struct{ shape, scale float64 }

func (w weibullProcess) Name() string { return "weibull" }

func (w weibullProcess) Mean() float64 { return w.scale * math.Gamma(1+1/w.shape) }

func (w weibullProcess) Next(r *trace.RNG) float64 {
	u := r.Float64()
	if u >= 1 {
		u = 1 - 1e-12
	}
	return w.scale * math.Pow(-math.Log(1-u), 1/w.shape)
}

func (w weibullProcess) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return 1 - math.Exp(-math.Pow(x/w.scale, w.shape))
}

// stdNormal draws a standard normal via Box–Muller. Two uniforms per
// draw, no rejection, so the stream position stays deterministic.
func stdNormal(r *trace.RNG) float64 {
	u1 := r.Float64()
	if u1 <= 0 {
		u1 = 1e-16
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// regIncGammaLower is the regularized lower incomplete gamma function
// P(a,x) — the Gamma CDF the KS-style distribution tests compare
// against. Series expansion for x < a+1, Lentz continued fraction for
// the complement otherwise (Numerical Recipes §6.2).
func regIncGammaLower(a, x float64) float64 {
	if x <= 0 {
		return 0
	}
	lg, _ := math.Lgamma(a)
	if x < a+1 {
		ap := a
		sum := 1 / a
		del := sum
		for i := 0; i < 500; i++ {
			ap++
			del *= x / ap
			sum += del
			if math.Abs(del) < math.Abs(sum)*1e-14 {
				break
			}
		}
		return sum * math.Exp(-x+a*math.Log(x)-lg)
	}
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i <= 500; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-14 {
			break
		}
	}
	return 1 - math.Exp(-x+a*math.Log(x)-lg)*h
}
