// Package queueing models the relationship between memory-channel
// bandwidth utilization and queuing delay that closes the paper's
// performance-model loop (§VI.C.1, Fig. 7).
//
// The paper measures loaded latency with the Intel Memory Latency Checker
// at several request arrival rates, subtracts the minimum (compulsory)
// latency to obtain queuing delay, normalizes bandwidth to the maximum
// achievable (efficiency), and averages the curves from different DDR
// speeds and read/write mixes into a single composite curve. This package
// provides that representation (a piecewise-linear measured Curve), an
// analytic M/M/1-shaped alternative for ablation, composite averaging,
// and the System that turns a bandwidth demand into a loaded latency.
// The fixed point that makes demand and latency self-consistent is
// solved by internal/model (EvaluateTopology).
package queueing

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/units"
)

// Curve maps bandwidth utilization in [0,1] to queuing delay.
type Curve interface {
	// Delay returns the queuing delay at utilization u. Utilization at or
	// beyond saturation returns the maximum stable queuing delay — the
	// paper handles >95% utilization by switching to the bandwidth-limited
	// CPI calculation rather than extrapolating the queue model.
	Delay(u float64) units.Duration
	// MaxStableDelay returns the delay at the curve's stability limit,
	// used as the loaded-latency adder for bandwidth-bound workloads.
	MaxStableDelay() units.Duration
}

// MM1 is an analytic M/M/1-shaped queuing curve,
//
//	delay(u) = Service × u/(1−u), clamped at ULimit.
//
// Service is the effective service time of one request and ULimit the
// utilization treated as the stability limit (the paper observes the
// measured curves agree up to ~95%).
type MM1 struct {
	Service units.Duration
	ULimit  float64
}

// Delay implements Curve.
func (m MM1) Delay(u float64) units.Duration {
	lim := m.limit()
	if u < 0 {
		u = 0
	}
	if u > lim {
		u = lim
	}
	return units.Duration(float64(m.Service) * u / (1 - u))
}

// MaxStableDelay implements Curve.
func (m MM1) MaxStableDelay() units.Duration { return m.Delay(m.limit()) }

func (m MM1) limit() float64 {
	if m.ULimit <= 0 || m.ULimit >= 1 {
		return 0.95
	}
	return m.ULimit
}

// MD1 is an analytic M/D/1-shaped queuing curve (deterministic service):
//
//	delay(u) = Service × u/(2(1−u)), clamped at ULimit.
//
// Half the M/M/1 delay at equal utilization — the optimistic end of the
// analytic spectrum, used by the queue-curve ablation to bracket the
// measured composite.
type MD1 struct {
	Service units.Duration
	ULimit  float64
}

// Delay implements Curve.
func (m MD1) Delay(u float64) units.Duration {
	lim := m.limit()
	if u < 0 {
		u = 0
	}
	if u > lim {
		u = lim
	}
	return units.Duration(float64(m.Service) * u / (2 * (1 - u)))
}

// MaxStableDelay implements Curve.
func (m MD1) MaxStableDelay() units.Duration { return m.Delay(m.limit()) }

func (m MD1) limit() float64 {
	if m.ULimit <= 0 || m.ULimit >= 1 {
		return 0.95
	}
	return m.ULimit
}

// Measured is a piecewise-linear queuing curve built from (utilization,
// delay) samples, as produced by the MLC-style calibration sweep.
type Measured struct {
	us     []float64        // ascending utilizations in [0,1]
	delays []units.Duration // matching queuing delays
}

// NewMeasured builds a Measured curve from samples. Samples are sorted by
// utilization; duplicate utilizations are averaged. At least two distinct
// utilizations are required.
func NewMeasured(us []float64, delays []units.Duration) (*Measured, error) {
	if len(us) != len(delays) || len(us) < 2 {
		return nil, errors.New("queueing: need at least two (utilization, delay) samples")
	}
	type pt struct {
		u float64
		d float64
		n int
	}
	idx := make([]int, len(us))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return us[idx[a]] < us[idx[b]] })
	var pts []pt
	for _, i := range idx {
		u, d := us[i], float64(delays[i])
		if math.IsNaN(u) || u < 0 || u > 1 {
			return nil, fmt.Errorf("queueing: utilization %v out of [0,1]", u)
		}
		if n := len(pts); n > 0 && pts[n-1].u == u {
			pts[n-1].d += d
			pts[n-1].n++
			continue
		}
		pts = append(pts, pt{u: u, d: d, n: 1})
	}
	if len(pts) < 2 {
		return nil, errors.New("queueing: need at least two distinct utilizations")
	}
	m := &Measured{us: make([]float64, len(pts)), delays: make([]units.Duration, len(pts))}
	for i, p := range pts {
		m.us[i] = p.u
		m.delays[i] = units.Duration(p.d / float64(p.n))
	}
	return m, nil
}

// Delay implements Curve with linear interpolation; utilization below the
// first sample clamps to the first delay, above the last clamps to the
// last (the maximum stable delay).
func (m *Measured) Delay(u float64) units.Duration {
	if u <= m.us[0] {
		return m.delays[0]
	}
	last := len(m.us) - 1
	if u >= m.us[last] {
		return m.delays[last]
	}
	i := sort.SearchFloat64s(m.us, u)
	// us[i-1] < u <= us[i]
	u0, u1 := m.us[i-1], m.us[i]
	d0, d1 := float64(m.delays[i-1]), float64(m.delays[i])
	frac := (u - u0) / (u1 - u0)
	return units.Duration(d0 + frac*(d1-d0))
}

// MaxStableDelay implements Curve.
func (m *Measured) MaxStableDelay() units.Duration { return m.delays[len(m.delays)-1] }

// ULimit reports the highest sampled utilization, the curve's stability
// limit.
func (m *Measured) ULimit() float64 { return m.us[len(m.us)-1] }

// Composite averages several curves pointwise, reproducing the paper's
// construction of a single model curve from the four measured
// speed/read-write-mix combinations ("we average these curves to create a
// composite model").
type Composite struct {
	curves []Curve
}

// NewComposite builds a Composite from one or more curves.
func NewComposite(curves ...Curve) (*Composite, error) {
	if len(curves) == 0 {
		return nil, errors.New("queueing: composite of zero curves")
	}
	return &Composite{curves: append([]Curve(nil), curves...)}, nil
}

// Delay implements Curve as the mean of the member curves' delays.
func (c *Composite) Delay(u float64) units.Duration {
	s := 0.0
	for _, cv := range c.curves {
		s += float64(cv.Delay(u))
	}
	return units.Duration(s / float64(len(c.curves)))
}

// MaxStableDelay implements Curve as the mean of the member limits.
func (c *Composite) MaxStableDelay() units.Duration {
	s := 0.0
	for _, cv := range c.curves {
		s += float64(cv.MaxStableDelay())
	}
	return units.Duration(s / float64(len(c.curves)))
}
