// Package cache implements the processor cache hierarchy of the simulated
// machine: set-associative, write-back, write-allocate levels with LRU
// replacement, an LLC stream prefetcher, and non-temporal store handling.
//
// The paper's model components map onto this package's counters directly:
// MPI is LLC demand misses plus prefetch fills per instruction ("either
// demand or prefetch", §IV.B), WBR is memory writes (dirty LLC evictions
// plus non-temporal stores) as a fraction of MPI, and the effectiveness of
// the prefetcher is what drives a workload's emergent blocking factor down
// (§VII: "an improved prefetching technique ... will lower the blocking
// factor").
package cache

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/memsys"
	"repro/internal/units"
)

// Memory is the backend a Hierarchy fills from and writes back to.
// *memsys.Simulator implements it.
type Memory interface {
	Access(now units.Duration, addr uint64, op memsys.Op) memsys.Result
}

// LevelConfig describes one cache level.
type LevelConfig struct {
	Name string
	Size units.Bytes
	// Assoc is the set associativity (ways).
	Assoc int
	// HitLatency is the *exposed* extra load-to-use latency, in core
	// cycles, of a demand load satisfied at this level rather than the
	// L1: the raw level latency discounted by what the out-of-order core
	// hides. (L1 hit latency is folded into a block's BaseCPI.)
	HitLatency units.Cycles
}

// PrefetchConfig tunes the LLC stream prefetcher.
type PrefetchConfig struct {
	Enabled bool
	// Streams is the number of concurrently tracked 4 KiB-page streams.
	Streams int
	// Depth is how many lines ahead of a trained stream are fetched.
	Depth int
	// TrainHits is the number of consecutive sequential accesses required
	// before a stream starts issuing prefetches.
	TrainHits int
}

// Config describes a full hierarchy.
type Config struct {
	LineSize units.Bytes
	Levels   []LevelConfig // ordered from L1 (index 0) to LLC (last)
	Prefetch PrefetchConfig
}

// DefaultConfig returns the measurement hierarchy: a 1:10 scale model of
// the paper's Xeon E5-2600 per-thread stack (32 KiB L1, 256 KiB L2,
// 2.5 MB LLC slice). Capacities shrink tenfold while workload footprints
// keep the same footprint-to-capacity ratios, so miss rates and steady-
// state writeback behaviour are preserved at a tenth of the warm-up cost
// (DESIGN.md §2, "footprint virtualization").
func DefaultConfig() Config {
	return Config{
		LineSize: 64,
		Levels: []LevelConfig{
			{Name: "L1", Size: 32 * units.KiB, Assoc: 8, HitLatency: 0},
			{Name: "L2", Size: 64 * units.KiB, Assoc: 8, HitLatency: 5},
			{Name: "LLC", Size: 256 * units.KiB, Assoc: 16, HitLatency: 14},
		},
		Prefetch: PrefetchConfig{Enabled: true, Streams: 32, Depth: 8, TrainHits: 2},
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.LineSize <= 0 || (uint64(c.LineSize)&(uint64(c.LineSize)-1)) != 0 {
		return errors.New("cache: LineSize must be a positive power of two")
	}
	if len(c.Levels) == 0 || len(c.Levels) > maxLevels {
		return fmt.Errorf("cache: 1 to %d levels required", maxLevels)
	}
	for i, l := range c.Levels {
		if l.Size <= 0 || l.Assoc <= 0 {
			return fmt.Errorf("cache: level %d (%s): Size and Assoc must be positive", i, l.Name)
		}
		if l.Assoc > maxAssoc {
			return fmt.Errorf("cache: level %d (%s): Assoc %d exceeds the %d-way limit", i, l.Name, l.Assoc, maxAssoc)
		}
		sets := uint64(l.Size) / (uint64(c.LineSize) * uint64(l.Assoc))
		if sets == 0 {
			return fmt.Errorf("cache: level %d (%s): fewer than one set", i, l.Name)
		}
	}
	if c.Prefetch.Enabled {
		if c.Prefetch.Streams <= 0 || c.Prefetch.Depth <= 0 || c.Prefetch.TrainHits <= 0 {
			return errors.New("cache: prefetch parameters must be positive when enabled")
		}
	}
	return nil
}

// LevelCounters accumulates per-level statistics.
type LevelCounters struct {
	Accesses     uint64
	Hits         uint64
	DemandMisses uint64
	Writebacks   uint64 // dirty evictions pushed to the next level (or memory, for the LLC)
}

// Counters accumulates hierarchy-wide statistics.
type Counters struct {
	Levels []LevelCounters

	// Memory traffic.
	MemDemandReads uint64 // LLC demand miss fills
	MemPrefReads   uint64 // prefetch fills
	MemWritebacks  uint64 // dirty LLC evictions
	MemNTWrites    uint64 // non-temporal stores

	// Prefetcher effectiveness.
	PrefIssued uint64
	PrefHits   uint64 // demand accesses satisfied by a completed prefetch
	PrefLate   uint64 // demand accesses that waited on an in-flight prefetch

	// DemandLoadMisses counts demand *load* misses (stores fill without
	// stalling); DemandMissLatency sums their exposed latency. Their ratio
	// is the measured miss penalty MP.
	DemandLoadMisses  uint64
	DemandMissLatency units.Duration
}

// copyInto copies c into dst, reusing dst.Levels when it has capacity.
func (c *Counters) copyInto(dst *Counters) {
	levels := dst.Levels
	*dst = *c
	if cap(levels) < len(c.Levels) {
		levels = make([]LevelCounters, len(c.Levels))
	}
	levels = levels[:len(c.Levels)]
	copy(levels, c.Levels)
	dst.Levels = levels
}

// reset zeroes c, keeping its Levels slice.
func (c *Counters) reset() {
	levels := c.Levels
	clear(levels)
	*c = Counters{Levels: levels}
}

// resize zeroes c and gives it n levels, reusing its Levels slice.
func (c *Counters) resize(n int) {
	if cap(c.Levels) < n {
		c.Levels = make([]LevelCounters, n)
	}
	c.Levels = c.Levels[:n]
	c.reset()
}

// appendDelta appends the functional counters of c minus those of prev to
// dst — four words per level, then the seven hierarchy-wide functional
// counters — and brings prev up to c. A block's references cannot push
// any counter past a uint32.
func (c *Counters) appendDelta(dst []uint32, prev *Counters) []uint32 {
	for i, l := range c.Levels {
		p := &prev.Levels[i]
		dst = append(dst, uint32(l.Accesses-p.Accesses), uint32(l.Hits-p.Hits),
			uint32(l.DemandMisses-p.DemandMisses), uint32(l.Writebacks-p.Writebacks))
		*p = l
	}
	dst = append(dst, uint32(c.MemDemandReads-prev.MemDemandReads), uint32(c.MemPrefReads-prev.MemPrefReads),
		uint32(c.MemWritebacks-prev.MemWritebacks), uint32(c.MemNTWrites-prev.MemNTWrites),
		uint32(c.PrefIssued-prev.PrefIssued), uint32(c.PrefHits-prev.PrefHits),
		uint32(c.DemandLoadMisses-prev.DemandLoadMisses))
	levels := prev.Levels
	*prev = *c
	prev.Levels = levels
	return dst
}

// addDelta adds a delta appendDelta wrote to c.
func (c *Counters) addDelta(d []uint32) {
	for i := range c.Levels {
		l, w := &c.Levels[i], d[4*i:4*i+4]
		l.Accesses += uint64(w[0])
		l.Hits += uint64(w[1])
		l.DemandMisses += uint64(w[2])
		l.Writebacks += uint64(w[3])
	}
	g := d[4*len(c.Levels):]
	c.MemDemandReads += uint64(g[0])
	c.MemPrefReads += uint64(g[1])
	c.MemWritebacks += uint64(g[2])
	c.MemNTWrites += uint64(g[3])
	c.PrefIssued += uint64(g[4])
	c.PrefHits += uint64(g[5])
	c.DemandLoadMisses += uint64(g[6])
}

// AvgMissPenalty returns the measured average demand-load miss latency —
// the MP of Eq. 1, in time units (convert to core cycles at the measuring
// frequency).
func (c Counters) AvgMissPenalty() units.Duration {
	if c.DemandLoadMisses == 0 {
		return 0
	}
	return units.Duration(float64(c.DemandMissLatency) / float64(c.DemandLoadMisses))
}

// MPI returns (demand misses + prefetch fills) per instruction — the
// paper's MPI, which feeds both Eq. 1 and the bandwidth demand of Eq. 4.
func (c Counters) MPI(instructions uint64) float64 {
	if instructions == 0 {
		return 0
	}
	return float64(c.MemDemandReads+c.MemPrefReads) / float64(instructions)
}

// WBR returns memory writes (writebacks + non-temporal stores) as a
// fraction of MPI-counted reads. The paper expresses WBR as a percentage
// of MPKI and notes it exceeds 100% for NITS because of the NT stores.
func (c Counters) WBR() float64 {
	reads := c.MemDemandReads + c.MemPrefReads
	if reads == 0 {
		return 0
	}
	return float64(c.MemWritebacks+c.MemNTWrites) / float64(reads)
}

// maxAssoc is the widest set a level supports: a set's recency order
// packs one 4-bit way index per position into a single 64-bit word.
const maxAssoc = 16

// maxLevels is the deepest hierarchy: a RefRec names the supplying
// level, or memory one past the LLC, in a byte.
const maxLevels = 255

// Per-way state bits, one flag byte per way in the set header. Validity
// lives in the header's valid mask.
const (
	flagDirty uint8 = 1 << iota
	flagPref        // line was brought in by the prefetcher and not yet demanded
)

// invalidTag marks an invalid way in the tags array. It can never
// collide with a live tag: tags are addr/LineSize, and with LineSize ≥ 2
// (every real geometry; DefaultConfig uses 64) no uint64 address divides
// to ^uint64(0). The header's valid bit is kept in lockstep.
const invalidTag = ^uint64(0)

// setHeader is one set's metadata in a single 64-byte cache line, so
// matching, replacement and flag updates touch one line per set.
type setHeader struct {
	fp    [2]uint64       // way w's tag fingerprint is byte w%8 of word w/8
	order uint64          // recency order: nibble p holds the way at position p, LRU at nibble 0
	valid uint16          // bit w set when way w holds a line
	flags [maxAssoc]uint8 // per-way flagDirty | flagPref
	_     [22]byte        // pad to 64 bytes
}

// level is one cache level: a set header per set, plus the full tags,
// indexed set*assoc+way (a way's slot). Ways are named by (set, way)
// pairs, so no path divides to recover a set. The in-flight arrival
// times of prefetched lines are timing state, kept by slot in Timing.
type level struct {
	cfg      LevelConfig
	sets     uint64
	mask     uint64 // sets-1 when sets is a power of two
	pow2     bool
	assoc    uint64
	full     uint16 // valid mask of a full set
	mruShift uint   // bit offset of the MRU nibble, 4*(assoc-1)
	order0   uint64 // recency order of an empty set: way p at position p
	hdr      []setHeader
	tags     []uint64
}

func newLevel(cfg LevelConfig, lineSize units.Bytes) *level {
	sets := uint64(cfg.Size) / (uint64(lineSize) * uint64(cfg.Assoc))
	n := sets * uint64(cfg.Assoc)
	l := &level{
		cfg:      cfg,
		sets:     sets,
		assoc:    uint64(cfg.Assoc),
		full:     uint16(1<<cfg.Assoc - 1),
		mruShift: uint(4 * (cfg.Assoc - 1)),
		hdr:      make([]setHeader, sets),
		tags:     make([]uint64, n),
	}
	for p := 0; p < cfg.Assoc; p++ {
		l.order0 |= uint64(p) << (4 * p)
	}
	if sets&(sets-1) == 0 {
		l.pow2 = true
		l.mask = sets - 1
	}
	l.reset()
	return l
}

// reset restores the level to its just-built state, reusing its arrays.
func (l *level) reset() {
	for i := range l.hdr {
		l.hdr[i] = setHeader{order: l.order0}
	}
	for i := range l.tags {
		l.tags[i] = invalidTag
	}
}

// set returns line's set. Every default geometry has a power-of-two set
// count, masking away the division.
func (l *level) set(line uint64) uint64 {
	if l.pow2 {
		return line & l.mask
	}
	return line % l.sets
}

// slot returns the tags index of way w of set s, which also indexes the
// way's in-flight arrival time in Timing.
func (l *level) slot(s uint64, w int) uint64 { return s*l.assoc + uint64(w) }

// fingerprint hashes line to the byte find compares before the full tag.
// The multiply folds every tag bit, including those above the set index
// that all ways of a set differ in, into the top byte.
func fingerprint(line uint64) uint64 { return line * 0x9E3779B97F4A7C15 >> 56 }

const (
	lsb8 = 0x0101010101010101
	lo7  = 0x7f7f7f7f7f7f7f7f
	nib  = 0x1111111111111111
)

// matchBytes returns one bit per byte of word equal to the byte
// broadcast in b: an exact SWAR zero-byte test on word^b (no borrow
// between bytes), gathered to bits 0..7 by a multiply.
func matchBytes(word, b uint64) uint64 {
	x := word ^ b
	z := ^(x&lo7 + lo7 | x) & (lsb8 << 7)
	return (z >> 7) * 0x0102040810204080 >> 56
}

// find returns the way of set s holding line, or -1. Valid ways whose
// fingerprint matches are confirmed against the full tag in ascending
// way order; a line occupies at most one way per level, so the result is
// the way a first-match scan of the tags returns.
func (l *level) find(s, line uint64) int {
	h := &l.hdr[s]
	b := fingerprint(line) * lsb8
	m := uint16(matchBytes(h.fp[0], b)|matchBytes(h.fp[1], b)<<8) & h.valid
	for ; m != 0; m &= m - 1 {
		w := bits.TrailingZeros16(m)
		if l.tags[l.slot(s, w)] == line {
			return w
		}
	}
	return -1
}

// victim returns the way of set s to fill: the lowest invalid way if any,
// otherwise the LRU way. touch orders ways by last touch, and every valid
// way was touched when filled, so the LRU nibble is exactly the way a
// scan for the smallest last-touch stamp returns. The way still holds the
// victim's state; the caller handles its writeback before refilling.
func (l *level) victim(s uint64) int {
	h := &l.hdr[s]
	if free := l.full &^ h.valid; free != 0 {
		return bits.TrailingZeros16(free)
	}
	return int(h.order & 0xf)
}

// touch moves way w to the MRU position of set s: an exact SWAR
// zero-nibble test finds w's position p, the nibbles above p shift down
// one, and w goes on top. Nibbles at positions ≥ assoc stay zero, so the
// lowest match is always w's real position.
func (l *level) touch(s uint64, w int) {
	h := &l.hdr[s]
	x := h.order ^ uint64(w)*nib
	z := ^(x&(7*nib) + 7*nib | x) & (8 * nib)
	p := uint(bits.TrailingZeros64(z)) &^ 3
	h.order = h.order&(1<<p-1) | h.order>>(p+4)<<p | uint64(w)<<l.mruShift
}

// fill installs line in way w of set s with flags f and makes it MRU.
func (l *level) fill(s uint64, w int, line uint64, f uint8) {
	h := &l.hdr[s]
	sh := uint(w&7) * 8
	h.fp[w>>3] = h.fp[w>>3]&^(0xff<<sh) | fingerprint(line)<<sh
	h.valid |= 1 << w
	h.flags[w] = f
	l.tags[l.slot(s, w)] = line
	l.touch(s, w)
}

// invalidate drops way w of set s: valid bit off, tag swapped for the
// sentinel. Its fingerprint, flags and recency position go stale; find
// masks them by the valid bit and fill rewrites them.
func (l *level) invalidate(s uint64, w int) {
	l.hdr[s].valid &^= 1 << w
	l.tags[l.slot(s, w)] = invalidTag
}
