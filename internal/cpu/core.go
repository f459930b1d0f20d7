// Package cpu models the superscalar core of the simulated machine at the
// fidelity the paper's methodology requires: a core-limited execution rate
// (each trace block's BaseCPI), exposed latencies for loads that leave the
// L1, and miss overlap following Chou's memory-level-parallelism model
// (Eq. 2 of the paper): the stall contributed by a block's demand misses
// is the sum of their latencies divided by the block's effective MLP, and
// a fraction Overlap_CM of core execution hides under outstanding misses.
//
// Frequency scaling — the knob the paper turns to estimate CPI_cache and
// BF (§V.A) — is a first-class input: all cycle-denominated quantities are
// converted to time through the configured core frequency, so slowing the
// core down genuinely makes memory "closer" in core cycles.
package cpu

import (
	"errors"
	"math"

	"repro/internal/cache"
	"repro/internal/trace"
	"repro/internal/units"
)

// IOSink receives DMA traffic attributed to a block (NITS's multi-GB/s
// storage reads land in memory through it, consuming channel bandwidth).
type IOSink interface {
	DMA(now units.Duration, bytes float64)
}

// Config describes a hardware thread's execution resources.
type Config struct {
	// Freq is the core clock. The paper's scaling runs use 2.1–3.1 GHz.
	Freq units.Hertz
	// MSHRs bounds outstanding demand misses (MLP ceiling). Ten matches
	// the L1 fill-buffer count of the paper's Xeon E5-2600 generation.
	MSHRs int
	// OverlapCM is Chou's Overlap_CM: the fraction of core execution that
	// proceeds under outstanding misses. The paper argues the resulting
	// term in Eq. 3 is small; keep it modest.
	OverlapCM float64
}

// DefaultConfig returns a 2.5 GHz thread with 10 MSHRs and 15% overlap.
func DefaultConfig() Config {
	return Config{Freq: units.GHzOf(2.5), MSHRs: 10, OverlapCM: 0.15}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Freq <= 0:
		return errors.New("cpu: Freq must be positive")
	case c.MSHRs <= 0:
		return errors.New("cpu: MSHRs must be positive")
	case c.OverlapCM < 0 || c.OverlapCM >= 1:
		return errors.New("cpu: OverlapCM must be in [0,1)")
	}
	return nil
}

// Counters accumulates a thread's execution statistics.
type Counters struct {
	Instructions uint64
	BusyNS       float64 // time executing (unhalted)
	IdleNS       float64 // halted time (does not dilute CPI, per §V.J)
	StallNS      float64 // portion of BusyNS stalled on demand misses
	HitStallNS   float64 // portion of BusyNS stalled on L2/LLC hit latency
	IOBytes      float64
	IOEvents     uint64
	Blocks       uint64
}

// Cycles returns unhalted core cycles at frequency f.
func (c Counters) Cycles(f units.Hertz) float64 {
	return c.BusyNS / 1e9 * float64(f)
}

// Block is one trace block as its thread's functional track recorded it:
// the block's timing fields, the records of its timed references with
// their memory requests, and its references' functional counter delta.
// Record makes one; RunBlock replays it.
type Block struct {
	Instructions uint64
	BaseCPI      float64
	Chains       int
	IOBytes      float64
	IdleNS       float64
	NRefs        int // references in the block, timed or not
	Refs         []cache.RefRec
	Reqs         []cache.Req
	Delta        []uint32
}

// Record steps trace block b through the functional hierarchy h,
// appending its records to log, and sets dst to the block's record,
// whose slices alias log's.
func Record(dst *Block, b *trace.Block, h *cache.Hierarchy, log *cache.Log) {
	r0, q0, d0 := len(log.Refs), len(log.Reqs), len(log.Delta)
	h.Record(b.Refs, log)
	*dst = Block{
		Instructions: b.Instructions,
		BaseCPI:      b.BaseCPI,
		Chains:       b.Chains,
		IOBytes:      b.IOBytes,
		IdleNS:       b.IdleNS,
		NRefs:        len(b.Refs),
		Refs:         log.Refs[r0:len(log.Refs):len(log.Refs)],
		Reqs:         log.Reqs[q0:len(log.Reqs):len(log.Reqs)],
		Delta:        log.Delta[d0:len(log.Delta):len(log.Delta)],
	}
}

// Core is one hardware thread's timing: it replays recorded blocks,
// timing their memory requests against the shared memory backend. It is
// single-goroutine; the machine's event loop serializes threads by
// advancing the least-advanced one.
type Core struct {
	cfg Config
	tm  *cache.Timing
	mem cache.Memory
	io  IOSink
	now units.Duration
	ctr Counters
}

// IOEventSize is the modelled size of one I/O event's memory traffic; the
// paper's Eq. 4 uses IOPI×IOSZ, and our generators emit IOBytes directly,
// so this constant only defines the event granularity for the IOPI
// counter.
const IOEventSize = 16 * 1024

// New builds a Core that times its cache hierarchy's records through tm
// against mem. io may be nil for workloads without I/O.
func New(cfg Config, tm *cache.Timing, mem cache.Memory, io IOSink) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if tm == nil || mem == nil {
		return nil, errors.New("cpu: nil cache timing or memory")
	}
	return &Core{cfg: cfg, tm: tm, mem: mem, io: io}, nil
}

// Now returns the thread-local simulated time.
func (c *Core) Now() units.Duration { return c.now }

// Counters returns a snapshot of the thread's statistics.
func (c *Core) Counters() Counters { return c.ctr }

// Timing returns the thread's cache timing state (for its counters).
func (c *Core) Timing() *cache.Timing { return c.tm }

// ResetCounters clears execution and cache statistics (post-warm-up).
func (c *Core) ResetCounters() {
	c.ctr = Counters{}
	c.tm.ResetCounters()
}

// Reset rewinds the thread to time zero with fresh counters under a new
// configuration, keeping its cache timing state attached (the machine
// Resets it separately, since only it knows the cache config).
func (c *Core) Reset(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	c.cfg = cfg
	c.now = 0
	c.ctr = Counters{}
	return nil
}

// CopyFrom makes c an exact copy of src — configuration, clock,
// counters and cache timing state — keeping c's own timing object,
// memory backend and I/O sink. src is only read.
func (c *Core) CopyFrom(src *Core) {
	c.cfg = src.cfg
	c.now = src.now
	c.ctr = src.ctr
	c.tm.CopyFrom(src.tm)
}

// SetFrequency changes the core clock (the OS-governor knob of §V.A).
func (c *Core) SetFrequency(f units.Hertz) { c.cfg.Freq = f }

// RunBlock replays one recorded block, advancing the thread's time.
func (c *Core) RunBlock(b *Block) {
	freq := c.cfg.Freq
	computeNS := float64(b.Instructions) * b.BaseCPI / float64(freq) * 1e9

	// Untimed references (L1 hits and the like) add nothing: only the
	// records are visited.
	var missNS, hitNS float64
	var nMiss int
	n := float64(b.NRefs)
	reqs := b.Reqs
	for i := range b.Refs {
		r := &b.Refs[i]
		// Spread issue times across the block's compute span so memory
		// sees a realistic arrival process rather than bursts at block
		// boundaries.
		frac := (float64(r.Index) + 0.5) / n
		issue := c.now + units.Duration(computeNS*frac)
		k := int(r.NReqs)
		lat := c.tm.Apply(issue, r, reqs[:k], c.mem, freq)
		reqs = reqs[k:]
		if r.Flags&(cache.RecMiss|cache.RecWrite) == cache.RecMiss {
			missNS += float64(lat)
			nMiss++
		} else {
			hitNS += float64(lat)
		}
	}
	c.tm.AddDelta(b.Delta)

	// Effective MLP: the block's declared chain structure bounded by
	// MSHRs. A declared parallelism above the block's own miss count is
	// honoured — the out-of-order window and the prefetcher overlap
	// misses across adjacent blocks, so sparse independent misses still
	// overlap with work.
	stallNS := 0.0
	if nMiss > 0 {
		chains := b.Chains
		if chains <= 0 {
			chains = nMiss
		}
		if chains > c.cfg.MSHRs {
			chains = c.cfg.MSHRs
		}
		stallNS = missNS / float64(chains)
		// A fraction of compute hides under the outstanding misses.
		stallNS = math.Max(0, stallNS-c.cfg.OverlapCM*computeNS)
	}

	blockNS := computeNS + hitNS + stallNS
	c.now += units.Duration(blockNS)
	c.ctr.BusyNS += blockNS
	c.ctr.StallNS += stallNS
	c.ctr.HitStallNS += hitNS
	c.ctr.Instructions += b.Instructions
	c.ctr.Blocks++

	if b.IOBytes > 0 {
		if c.io != nil {
			c.io.DMA(c.now, b.IOBytes)
		}
		c.ctr.IOBytes += b.IOBytes
		c.ctr.IOEvents += uint64(math.Ceil(b.IOBytes / IOEventSize))
	}
	if b.IdleNS > 0 {
		c.now += units.Duration(b.IdleNS)
		c.ctr.IdleNS += b.IdleNS
	}
}
