// Package units provides typed physical quantities used throughout the
// memory-performance model: frequencies, latencies, bandwidths, and byte
// sizes, together with the conversions between cycle-denominated and
// time-denominated values that the paper's equations move between.
//
// The model in Clapp et al. mixes units freely — miss penalties are
// quoted in core cycles (Table 3) but compulsory latencies in nanoseconds
// (Fig. 10), and bandwidths per core in GB/s (Fig. 8). Typed wrappers keep
// those conversions explicit and testable.
package units

import "fmt"

// Hertz is a frequency in cycles per second. Core and memory clocks use it.
type Hertz float64

// Common frequency constructors.
const (
	KHz Hertz = 1e3
	MHz Hertz = 1e6
	GHz Hertz = 1e9
)

// GHzOf returns a Hertz value from a count of gigahertz.
func GHzOf(g float64) Hertz { return Hertz(g) * GHz }

// GHz reports the frequency in gigahertz.
func (h Hertz) GHz() float64 { return float64(h) / 1e9 }

// String renders the frequency with the natural SI prefix.
func (h Hertz) String() string {
	switch {
	case h >= GHz:
		return fmt.Sprintf("%.3gGHz", float64(h)/1e9)
	case h >= MHz:
		return fmt.Sprintf("%.3gMHz", float64(h)/1e6)
	case h >= KHz:
		return fmt.Sprintf("%.3gkHz", float64(h)/1e3)
	default:
		return fmt.Sprintf("%.3gHz", float64(h))
	}
}

// Duration is a time span in nanoseconds. A dedicated type (rather than
// time.Duration) keeps sub-nanosecond resolution, which matters when
// converting single memory-channel service times at high clock rates.
type Duration float64

// Duration constructors.
const (
	Nanosecond  Duration = 1
	Microsecond Duration = 1e3
	Millisecond Duration = 1e6
	Second      Duration = 1e9
)

// Nanoseconds reports the duration as a float64 count of nanoseconds.
func (d Duration) Nanoseconds() float64 { return float64(d) }

// Seconds reports the duration as a float64 count of seconds.
func (d Duration) Seconds() float64 { return float64(d) / 1e9 }

// Cycles converts the duration to a cycle count at frequency f.
func (d Duration) Cycles(f Hertz) Cycles {
	return Cycles(d.Seconds() * float64(f))
}

// String renders the duration with the natural SI prefix.
func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.4gs", float64(d)/1e9)
	case d >= Millisecond:
		return fmt.Sprintf("%.4gms", float64(d)/1e6)
	case d >= Microsecond:
		return fmt.Sprintf("%.4gus", float64(d)/1e3)
	default:
		return fmt.Sprintf("%.4gns", float64(d))
	}
}

// Cycles is a (possibly fractional) count of clock cycles. Miss penalties
// measured in core cycles (the MP of Eq. 1) are fractional once averaged.
type Cycles float64

// Duration converts the cycle count to a time span at frequency f.
func (c Cycles) Duration(f Hertz) Duration {
	if f == 0 {
		return 0
	}
	return Duration(float64(c) / float64(f) * 1e9)
}

// String renders the cycle count with a "cy" suffix.
func (c Cycles) String() string { return fmt.Sprintf("%.4gcy", float64(c)) }

// Bytes is a byte count or size.
type Bytes float64

// Byte size constants (binary prefixes, as the paper's GB/s are decimal
// the bandwidth type below uses decimal instead).
const (
	KiB Bytes = 1 << 10
	MiB Bytes = 1 << 20
	GiB Bytes = 1 << 30
)

// String renders the size with the natural binary prefix.
func (b Bytes) String() string {
	switch {
	case b >= GiB:
		return fmt.Sprintf("%.4gGiB", float64(b)/float64(GiB))
	case b >= MiB:
		return fmt.Sprintf("%.4gMiB", float64(b)/float64(MiB))
	case b >= KiB:
		return fmt.Sprintf("%.4gKiB", float64(b)/float64(KiB))
	default:
		return fmt.Sprintf("%gB", float64(b))
	}
}

// BytesPerSecond is a bandwidth. The paper quotes bandwidths in decimal
// GB/s (1e9 bytes per second), matching DDR channel arithmetic
// (channels × MT/s × 8 bytes).
type BytesPerSecond float64

// Bandwidth constructors.
const (
	MBps BytesPerSecond = 1e6
	GBps BytesPerSecond = 1e9
)

// GBpsOf returns a bandwidth from a count of decimal gigabytes per second.
func GBpsOf(g float64) BytesPerSecond { return BytesPerSecond(g) * GBps }

// GBps reports the bandwidth in decimal GB/s.
func (b BytesPerSecond) GBps() float64 { return float64(b) / 1e9 }

// String renders the bandwidth with the natural decimal prefix.
func (b BytesPerSecond) String() string {
	switch {
	case b >= GBps:
		return fmt.Sprintf("%.4gGB/s", float64(b)/1e9)
	case b >= MBps:
		return fmt.Sprintf("%.4gMB/s", float64(b)/1e6)
	default:
		return fmt.Sprintf("%.4gB/s", float64(b))
	}
}
