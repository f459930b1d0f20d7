// Package memsys models the DRAM subsystem of the paper's test platforms:
// DDR3 channels with banked service, speed grades selectable at run time
// (the paper's BIOS memory-speed knob), bus-turnaround penalties that make
// effective bandwidth depend on the read/write mix, and an emergent
// queuing delay that grows with utilization.
//
// Two views are provided. The event-driven Simulator serves timestamped
// cache-line requests and is what the machine simulator and the MLC
// calibration tool drive; latency and efficiency *emerge* from contention
// in it. The Config arithmetic (raw bandwidth per grade) provides the
// closed-form values the paper quotes (e.g. four channels of DDR3-1867 ≈
// 59.7 GB/s raw, ~42 GB/s at ~70 % efficiency).
package memsys

import (
	"errors"
	"fmt"

	"repro/internal/units"
)

// Grade is a DDR speed grade, identified by its transfer rate in MT/s.
type Grade int

// Speed grades used in the paper's experiments. DDR3-1867 is the baseline
// (§VI.C.2); DDR3-1333 is the reduced-speed calibration point (Fig. 7).
const (
	DDR3_1067 Grade = 1067
	DDR3_1333 Grade = 1333
	DDR3_1600 Grade = 1600
	DDR3_1867 Grade = 1867
)

// String returns e.g. "DDR3-1867".
func (g Grade) String() string {
	if g >= 2133 {
		return fmt.Sprintf("DDR4-%d", int(g))
	}
	return fmt.Sprintf("DDR3-%d", int(g))
}

// TransferRate returns the grade's transfer rate in transfers per second.
func (g Grade) TransferRate() float64 { return float64(g) * 1e6 }

// ChannelRawBandwidth returns the raw per-channel bandwidth: 8 bytes per
// transfer on a 64-bit channel.
func (g Grade) ChannelRawBandwidth() units.BytesPerSecond {
	return units.BytesPerSecond(g.TransferRate() * 8)
}

// LineTransferTime returns the bus occupancy of moving one cache line.
func (g Grade) LineTransferTime(lineSize units.Bytes) units.Duration {
	return units.Duration(float64(lineSize) / float64(g.ChannelRawBandwidth()) * 1e9)
}

// Config describes a memory subsystem.
type Config struct {
	Channels int   // number of DDR channels (paper baseline: 4)
	Grade    Grade // speed grade (paper baseline: DDR3-1867)

	// Compulsory is the unloaded (idle) latency of a memory read as seen
	// by the core: row access plus interconnect. Paper baseline: 75 ns.
	Compulsory units.Duration

	// LineSize is the cache-line size moved per request (64 B).
	LineSize units.Bytes

	// RequestOverhead is dead bus time per request (command, activate,
	// precharge gaps on a random-access stream). It sets the channel's
	// effective peak: LineSize/(transfer+overhead). ~1.85 ns makes a
	// DDR3-1867 channel deliver ~70 % of raw — the paper's observed
	// efficiency — and, being a constant time, makes slower grades
	// proportionally *more* efficient, as the paper notes ("efficiency
	// ... varies with channel speed").
	RequestOverhead units.Duration

	// BanksPerChannel bounds per-channel random-access throughput: each
	// bank can begin a new access only every BankCycle. Sixteen banks
	// (two ranks of eight) at ~49 ns leave banks non-binding below the
	// bus-effective peak; they matter for pathological stride patterns.
	BanksPerChannel int
	BankCycle       units.Duration

	// TurnaroundPenalty is added when a channel switches between read and
	// write service, making effective bandwidth sensitive to the r/w mix
	// (Fig. 7 measures 100 %-read and 2:1 read/write mixes separately).
	TurnaroundPenalty units.Duration
}

// DefaultConfig returns the paper's baseline memory system: four channels
// of DDR3-1867, 75 ns compulsory latency, 64 B lines.
func DefaultConfig() Config {
	return Config{
		Channels:          4,
		Grade:             DDR3_1867,
		Compulsory:        75 * units.Nanosecond,
		LineSize:          64,
		RequestOverhead:   units.Duration(1.85),
		BanksPerChannel:   16,
		BankCycle:         49 * units.Nanosecond,
		TurnaroundPenalty: 5 * units.Nanosecond,
	}
}

// Validate reports a descriptive error for nonsensical configurations.
func (c Config) Validate() error {
	switch {
	case c.Channels <= 0:
		return errors.New("memsys: Channels must be positive")
	case c.Grade <= 0:
		return errors.New("memsys: Grade must be positive")
	case c.Compulsory <= 0:
		return errors.New("memsys: Compulsory latency must be positive")
	case c.LineSize <= 0 || c.LineSize != units.Bytes(uint64(c.LineSize)) || uint64(c.LineSize)&(uint64(c.LineSize)-1) != 0:
		return errors.New("memsys: LineSize must be a positive power of two")
	case c.RequestOverhead < 0:
		return errors.New("memsys: RequestOverhead must be non-negative")
	case c.BanksPerChannel <= 0:
		return errors.New("memsys: BanksPerChannel must be positive")
	case c.BankCycle <= 0:
		return errors.New("memsys: BankCycle must be positive")
	case c.TurnaroundPenalty < 0:
		return errors.New("memsys: TurnaroundPenalty must be non-negative")
	}
	return nil
}

// RawBandwidth returns the bus-limited aggregate bandwidth of the system.
func (c Config) RawBandwidth() units.BytesPerSecond {
	return units.BytesPerSecond(float64(c.Channels) * float64(c.Grade.ChannelRawBandwidth()))
}

// BankLimitedBandwidth returns the random-access throughput ceiling set by
// the bank model: Channels × Banks × LineSize / BankCycle.
func (c Config) BankLimitedBandwidth() units.BytesPerSecond {
	perBank := float64(c.LineSize) / c.BankCycle.Seconds()
	return units.BytesPerSecond(float64(c.Channels*c.BanksPerChannel) * perBank)
}

// BusEffectiveBandwidth returns the per-request-overhead-limited
// throughput: Channels × LineSize / (transfer + overhead).
func (c Config) BusEffectiveBandwidth() units.BytesPerSecond {
	per := c.Grade.LineTransferTime(c.LineSize) + c.RequestOverhead
	return units.BytesPerSecond(float64(c.Channels) * float64(c.LineSize) / per.Seconds())
}

// NominalPeak returns the smallest of the raw, overhead-limited, and
// bank-limited bandwidths — the first-order effective peak for a random
// read stream.
func (c Config) NominalPeak() units.BytesPerSecond {
	min := c.RawBandwidth()
	if b := c.BusEffectiveBandwidth(); b < min {
		min = b
	}
	if b := c.BankLimitedBandwidth(); b < min {
		min = b
	}
	return min
}
