package queueing

import "repro/internal/units"

// System describes one memory supply resource: an unloaded
// (compulsory) latency, a deliverable bandwidth, and a queuing curve
// relating utilization to added delay.
type System struct {
	Compulsory units.Duration       // unloaded memory latency
	PeakBW     units.BytesPerSecond // maximum deliverable bandwidth (post-efficiency)
	Curve      Curve                // queuing delay vs utilization
}

// LoadedLatency returns compulsory latency plus queuing delay at the given
// demand bandwidth.
func (s System) LoadedLatency(demand units.BytesPerSecond) units.Duration {
	return s.Compulsory + s.Curve.Delay(s.Utilization(demand))
}

// Utilization returns demand/peak clamped to [0, 1].
func (s System) Utilization(demand units.BytesPerSecond) float64 {
	if s.PeakBW <= 0 {
		return 1
	}
	u := float64(demand) / float64(s.PeakBW)
	if u < 0 {
		return 0
	}
	if u > 1 {
		return 1
	}
	return u
}
