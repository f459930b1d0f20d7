package cache

import (
	"math/bits"

	"repro/internal/memsys"
	"repro/internal/trace"
	"repro/internal/units"
)

// Hierarchy is one hardware thread's cache stack. It is not safe for
// concurrent use; the machine simulator gives each thread its own
// hierarchy over a shared memory backend (see DESIGN.md: LLC capacity is
// modelled as a per-thread slice, and threads do not share data —
// matching SPEC-rate-style and partitioned server workloads).
type Hierarchy struct {
	cfg       Config
	lineShift uint // log2(LineSize)
	levels    []*level
	mem       Memory
	pf        *prefetcher
	ctr       Counters
}

// Outcome reports how one reference resolved.
type Outcome struct {
	// HitLevel is the index of the level that supplied the data, or
	// len(levels) for memory.
	HitLevel int
	// Latency is the exposed load-to-use latency beyond an L1 hit, for
	// demand loads. Stores report 0 (store-buffer semantics).
	Latency units.Duration
	// DemandMiss reports whether the reference missed every level and
	// required a memory fill.
	DemandMiss bool
	// PrefetchHit reports whether the reference was satisfied by a line
	// the prefetcher brought (or is bringing) in.
	PrefetchHit bool
}

// New builds a hierarchy over mem.
func New(cfg Config, mem Memory) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	h := &Hierarchy{cfg: cfg, lineShift: lineShift(cfg), mem: mem}
	for _, lc := range cfg.Levels {
		h.levels = append(h.levels, newLevel(lc, cfg.LineSize))
	}
	h.ctr.Levels = make([]LevelCounters, len(cfg.Levels))
	if cfg.Prefetch.Enabled {
		h.pf = newPrefetcher(cfg.Prefetch)
	}
	return h, nil
}

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// Counters returns a snapshot of the accumulated statistics.
func (h *Hierarchy) Counters() Counters {
	var c Counters
	h.CountersInto(&c)
	return c
}

// CountersInto copies the accumulated statistics into dst, reusing
// dst.Levels when it has capacity — zero allocations in steady state
// (the machine simulator snapshots every core every measurement).
func (h *Hierarchy) CountersInto(dst *Counters) {
	levels := dst.Levels
	*dst = h.ctr
	if cap(levels) < len(h.ctr.Levels) {
		levels = make([]LevelCounters, len(h.ctr.Levels))
	}
	levels = levels[:len(h.ctr.Levels)]
	copy(levels, h.ctr.Levels)
	dst.Levels = levels
}

// ResetCounters clears statistics, keeping cache contents (for measuring
// after warm-up). The Levels slice is reused, not reallocated.
func (h *Hierarchy) ResetCounters() {
	levels := h.ctr.Levels
	clear(levels)
	h.ctr = Counters{Levels: levels}
}

// Reset restores the hierarchy to its just-built state for cfg — empty
// levels, zero counters, untrained prefetcher — reusing every allocation
// whose geometry still fits. A machine pool Resets hierarchies thousands
// of times per experiment suite; behaviour after Reset is bit-identical
// to a fresh New (asserted in reset_test.go).
func (h *Hierarchy) Reset(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	sameGeom := cfg.LineSize == h.cfg.LineSize && len(cfg.Levels) == len(h.cfg.Levels)
	if sameGeom {
		for i := range cfg.Levels {
			if cfg.Levels[i].Size != h.cfg.Levels[i].Size || cfg.Levels[i].Assoc != h.cfg.Levels[i].Assoc {
				sameGeom = false
				break
			}
		}
	}
	if sameGeom {
		for i, l := range h.levels {
			l.cfg = cfg.Levels[i]
			l.reset()
		}
	} else {
		h.levels = h.levels[:0]
		for _, lc := range cfg.Levels {
			h.levels = append(h.levels, newLevel(lc, cfg.LineSize))
		}
	}
	levels := h.ctr.Levels
	if cap(levels) < len(cfg.Levels) {
		levels = make([]LevelCounters, len(cfg.Levels))
	}
	levels = levels[:len(cfg.Levels)]
	clear(levels)
	h.ctr = Counters{Levels: levels}
	switch {
	case !cfg.Prefetch.Enabled:
		h.pf = nil
	case h.pf != nil && len(h.pf.streams) == cfg.Prefetch.Streams:
		h.pf.reset(cfg.Prefetch)
	default:
		h.pf = newPrefetcher(cfg.Prefetch)
	}
	h.cfg = cfg
	h.lineShift = lineShift(cfg)
	return nil
}

// CopyFrom makes h an exact copy of src — configuration, every level's
// headers, tags and in-flight arrival times, the prefetcher's streams
// with their index and recency list, and the counters — reusing h's
// arrays where they have capacity. h keeps its own memory backend. src
// is only read, so several hierarchies may copy one source concurrently.
func (h *Hierarchy) CopyFrom(src *Hierarchy) {
	h.cfg = src.cfg
	h.lineShift = src.lineShift
	for len(h.levels) < len(src.levels) {
		h.levels = append(h.levels, new(level))
	}
	h.levels = h.levels[:len(src.levels)]
	for i, l := range src.levels {
		h.levels[i].copyFrom(l)
	}
	if src.pf == nil {
		h.pf = nil
	} else {
		if h.pf == nil {
			h.pf = new(prefetcher)
		}
		h.pf.copyFrom(src.pf)
	}
	levels := append(h.ctr.Levels[:0], src.ctr.Levels...)
	h.ctr = src.ctr
	h.ctr.Levels = levels
}

// lineShift is log2 of cfg's LineSize, which Validate holds to a power
// of two.
func lineShift(cfg Config) uint { return uint(bits.TrailingZeros64(uint64(cfg.LineSize))) }

func (h *Hierarchy) line(addr uint64) uint64 { return addr >> h.lineShift }

// Access performs one reference at simulated time now on a core running at
// freq (freq converts cycle-denominated hit latencies to time).
func (h *Hierarchy) Access(now units.Duration, ref trace.Ref, freq units.Hertz) Outcome {
	line := h.line(ref.Addr)

	if ref.NonTemporal {
		// Streaming store: write combining straight to memory; invalidate
		// any cached copy (no writeback — the store overwrites the line).
		for _, l := range h.levels {
			s := l.set(line)
			if w := l.find(s, line); w >= 0 {
				l.invalidate(s, w)
			}
		}
		if h.pf != nil {
			h.pf.forget(line) // the LLC copy, if there was one, is gone
		}
		h.mem.Access(now, ref.Addr, memsys.Write)
		h.ctr.MemNTWrites++
		return Outcome{HitLevel: len(h.levels)}
	}

	for li, l := range h.levels {
		h.ctr.Levels[li].Accesses++
		s := l.set(line)
		w := l.find(s, line)
		if w < 0 {
			continue
		}
		// Hit at level li.
		h.ctr.Levels[li].Hits++
		l.touch(s, w)
		out := Outcome{HitLevel: li}
		if l.hdr[s].flags[w]&flagPref != 0 {
			// First demand touch of a prefetched line: count it once and
			// clear the flag on every level holding the fill (prefetch
			// promotes to the L2 as well).
			h.markCopies(li, s, w, line, 0, flagPref)
			h.ctr.PrefHits++
			out.PrefetchHit = true
			if ready := l.readyAt[l.slot(s, w)]; ready > now {
				// In-flight prefetch: expose the remaining latency.
				h.ctr.PrefLate++
				out.Latency = ready - now
			}
		}
		if !ref.Write {
			out.Latency += l.cfg.HitLatency.Duration(freq)
			if li == 0 {
				out.Latency = 0 // L1 hit latency lives in BaseCPI
			}
		}
		if ref.Write {
			// The line becomes Modified globally: mark every cached copy
			// dirty so the LLC copy always carries the dirty state and an
			// LLC eviction's recall (see evict) can drop the inner copies
			// without a separate writeback.
			h.markCopies(li, s, w, line, flagDirty, 0)
			out.Latency = 0
		}
		// Fill upward so inner levels hit next time (inclusive fill).
		h.fillUpward(now, line, li, ref.Write)
		// The prefetcher trains on traffic that leaves the L1, the way a
		// hardware mid-level prefetcher sees L1-miss streams.
		if h.pf != nil && li >= 1 && !ref.NoPrefetch {
			h.pf.observe(h, now, line)
		}
		return out
	}
	llc := len(h.levels) - 1

	// Missed everywhere: demand fill from memory.
	h.ctr.Levels[llc].DemandMisses++
	res := h.mem.Access(now, ref.Addr, memsys.Read)
	h.ctr.MemDemandReads++
	out := Outcome{HitLevel: len(h.levels), DemandMiss: true}
	if !ref.Write {
		out.Latency = res.Latency
		h.ctr.DemandLoadMisses++
		h.ctr.DemandMissLatency += res.Latency
	}
	h.insert(now, line, llc, ref.Write, false, 0)
	h.fillUpward(now, line, llc, ref.Write)
	if h.pf != nil && !ref.NoPrefetch {
		h.pf.observe(h, now, line)
	}
	return out
}

// markCopies updates the flags of line's copy at level li (way w of set
// s) and at every level below it that holds one: set bits on, clr off.
func (h *Hierarchy) markCopies(li int, s uint64, w int, line uint64, set, clr uint8) {
	f := &h.levels[li].hdr[s].flags[w]
	*f = *f&^clr | set
	for _, l := range h.levels[li+1:] {
		sj := l.set(line)
		if wj := l.find(sj, line); wj >= 0 {
			f := &l.hdr[sj].flags[wj]
			*f = *f&^clr | set
		}
	}
}

// fillUpward installs line into every level above upTo (exclusive), so the
// next access hits the L1. Each of those levels missed line earlier in
// the same Access, and a fill only pushes other lines downward (evict) or
// drops them (the LLC recall), so line is still absent there and needs no
// find. Misses at inner levels are counted against those levels (their
// DemandMisses), which keeps per-level hit-rate statistics meaningful.
func (h *Hierarchy) fillUpward(now units.Duration, line uint64, upTo int, write bool) {
	for li := upTo - 1; li >= 0; li-- {
		h.ctr.Levels[li].DemandMisses++
		h.insert(now, line, li, write, false, 0)
	}
}

// insert places line into level li, evicting as needed. Dirty victims are
// written to the next level; dirty LLC victims go to memory.
func (h *Hierarchy) insert(now units.Duration, line uint64, li int, dirty, pref bool, readyAt units.Duration) {
	l := h.levels[li]
	s := l.set(line)
	v := l.victim(s)
	if l.hdr[s].valid&(1<<v) != 0 {
		h.evict(now, li, s, v)
	}
	var f uint8
	if dirty {
		f |= flagDirty
	}
	if pref {
		f |= flagPref
	}
	l.fill(s, v, line, f, readyAt)
}

// evict writes back way v of set s at level li if it is dirty. The way
// keeps its stale state: insert refills it straight after.
func (h *Hierarchy) evict(now units.Duration, li int, s uint64, v int) {
	l := h.levels[li]
	tag := l.tags[l.slot(s, v)]
	if li == len(h.levels)-1 {
		// Inclusive LLC: evicting a line recalls it from the inner levels.
		// Write hits mark every cached copy dirty, so the LLC copy already
		// carries the freshest dirty state and the inner copies can drop
		// without their own writeback — otherwise a dirty inner copy
		// outliving the LLC eviction gets pushed back down later and the
		// same fill is written back twice (MemWritebacks would exceed
		// memory fills, breaking writeback conservation).
		for _, inner := range h.levels[:li] {
			si := inner.set(tag)
			if wi := inner.find(si, tag); wi >= 0 {
				inner.invalidate(si, wi)
			}
		}
		if h.pf != nil {
			h.pf.forget(tag)
		}
	}
	if l.hdr[s].flags[v]&flagDirty == 0 {
		return
	}
	h.ctr.Levels[li].Writebacks++
	if li == len(h.levels)-1 {
		// LLC: write back to memory.
		h.mem.Access(now, tag<<h.lineShift, memsys.Write)
		h.ctr.MemWritebacks++
	} else {
		// Push dirty data down one level.
		next := h.levels[li+1]
		sn := next.set(tag)
		if wn := next.find(sn, tag); wn >= 0 {
			next.hdr[sn].flags[wn] |= flagDirty
		} else {
			h.insert(now, tag, li+1, true, false, 0)
		}
	}
}

// prefetchFill is called by the prefetcher to bring line into the LLC
// (and promote it to the L2, as hardware mid-level prefetchers do) with
// an in-flight arrival time.
func (h *Hierarchy) prefetchFill(now units.Duration, line uint64) {
	llc := len(h.levels) - 1
	if l := h.levels[llc]; l.find(l.set(line), line) >= 0 {
		return // already present or in flight
	}
	res := h.mem.Access(now, line<<h.lineShift, memsys.Read)
	h.ctr.MemPrefReads++
	h.ctr.PrefIssued++
	h.insert(now, line, llc, false, true, now+res.Latency)
	if llc >= 1 {
		h.insert(now, line, llc-1, false, true, now+res.Latency)
	}
}
