package cache

import (
	"math/bits"

	"repro/internal/trace"
	"repro/internal/units"
)

// Hierarchy is one hardware thread's cache stack. It is not safe for
// concurrent use; the machine simulator gives each thread its own
// hierarchy (see DESIGN.md: LLC capacity is modelled as a per-thread
// slice, and threads do not share data — matching SPEC-rate-style and
// partitioned server workloads).
//
// A hierarchy is functional state: tags, recency, dirty and prefetch
// flags, the prefetcher's streams and the counters of what it decided.
// None of its decisions reads a clock. Record steps references and logs
// each one's outcome and memory requests; a Timing replays that log at
// given times against a memory backend. Access composes the two for one
// reference, over the backend New was given.
type Hierarchy struct {
	cfg       Config
	lineShift uint // log2(LineSize)
	levels    []*level
	pf        *prefetcher
	ctr       Counters // functional; the clocked counters live in tm
	log       Log      // the log of the Record or Access in progress
	logged    Counters // ctr as of the last delta Record logged

	// Access's memory backend, timing state and one-reference log.
	mem Memory
	tm  *Timing
	one Log
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

// RefRec is the functional outcome of one reference whose timing is not
// free: everything Access decides without reading the clock. A
// reference gets no RefRec when it costs nothing and issues no memory
// request — an L1 hit, or a store hit, on a line that is not a
// first-touched prefetch.
type RefRec struct {
	Index uint32 // the reference's position in its block (its issue time)
	Slot  uint32 // with RecPref: the hit line's slot at Level
	NReqs uint16 // memory requests issued, at most a page of prefetches
	Level uint8  // the Outcome's HitLevel
	Flags uint8  // RecWrite | RecMiss | RecPref | RecNT
}

// RefRec flags.
const (
	RecWrite = 1 << iota // a store
	RecMiss              // a demand miss: its first request is the fill
	RecPref              // the first demand touch of a prefetched line
	RecNT                // a non-temporal store
)

// Req is one memory request, in the order a reference issued it.
type Req struct {
	Addr uint64 // the byte address memory sees
	// Slot and Up are a prefetch read's fill slots in the LLC and in the
	// level above it (-1 when the hierarchy has one level): the request's
	// completion is the line's arrival time there.
	Slot uint32
	Up   int32
	Kind uint8 // ReqDemand, ReqPrefetch or ReqWrite
}

// Req kinds.
const (
	ReqDemand   = iota // a demand fill (read)
	ReqPrefetch        // a prefetch fill (read)
	ReqWrite           // a writeback or a non-temporal store
)

// Log accumulates records: the RefRecs of the timed references, every
// memory request they issued in order, and (Record) each run's
// functional counter delta.
type Log struct {
	Refs  []RefRec
	Reqs  []Req
	Delta []uint32
}

// Reset empties l, keeping its capacity.
func (l *Log) Reset() {
	l.Refs, l.Reqs, l.Delta = l.Refs[:0], l.Reqs[:0], l.Delta[:0]
}

// New builds a hierarchy whose Access fills from and writes back to mem.
// A hierarchy that only Records needs no memory: mem may be nil.
func New(cfg Config, mem Memory) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	h := &Hierarchy{cfg: cfg, lineShift: lineShift(cfg), mem: mem}
	for _, lc := range cfg.Levels {
		h.levels = append(h.levels, newLevel(lc, cfg.LineSize))
	}
	h.ctr.resize(len(cfg.Levels))
	h.logged.resize(len(cfg.Levels))
	if cfg.Prefetch.Enabled {
		h.pf = newPrefetcher(cfg.Prefetch)
	}
	if mem != nil {
		h.tm = NewTiming(cfg)
	}
	return h, nil
}

// Counters returns a snapshot of the accumulated statistics: the
// functional counters, plus PrefLate and DemandMissLatency of the
// references Access timed.
func (h *Hierarchy) Counters() Counters {
	var c Counters
	h.CountersInto(&c)
	return c
}

// CountersInto copies the accumulated statistics into dst, reusing
// dst.Levels when it has capacity — zero allocations in steady state.
func (h *Hierarchy) CountersInto(dst *Counters) {
	h.ctr.copyInto(dst)
	if h.tm != nil {
		dst.PrefLate = h.tm.ctr.PrefLate
		dst.DemandMissLatency = h.tm.ctr.DemandMissLatency
	}
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
	h.ctr.resize(len(cfg.Levels))
	h.logged.resize(len(cfg.Levels))
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
	if h.tm != nil {
		h.tm.Reset(cfg)
	}
	return nil
}

// lineShift is log2 of cfg's LineSize, which Validate holds to a power
// of two.
func lineShift(cfg Config) uint { return uint(bits.TrailingZeros64(uint64(cfg.LineSize))) }

func (h *Hierarchy) line(addr uint64) uint64 { return addr >> h.lineShift }

// Access performs one reference at simulated time now on a core running at
// freq (freq converts cycle-denominated hit latencies to time): the
// functional step, then its timing through the hierarchy's own Timing
// and memory backend.
func (h *Hierarchy) Access(now units.Duration, ref trace.Ref, freq units.Hertz) Outcome {
	h.log = Log{Refs: h.one.Refs[:0], Reqs: h.one.Reqs[:0]}
	lvl := h.step(0, ref)
	h.one, h.log = h.log, Log{}
	if len(h.one.Refs) == 0 {
		return Outcome{HitLevel: lvl}
	}
	r := &h.one.Refs[0]
	return Outcome{
		HitLevel:    lvl,
		Latency:     h.tm.Apply(now, r, h.one.Reqs, h.mem, freq),
		DemandMiss:  r.Flags&RecMiss != 0,
		PrefetchHit: r.Flags&RecPref != 0,
	}
}

// Record steps refs, one block's references in program order, appending
// a RefRec for each timed reference, the memory requests in issue order,
// and the block's functional counter delta (the counts since the
// previous Record, Reset or ResetCounters) to log.
// Nothing it does depends on when the references issue, so one Record
// serves every timing that replays it.
func (h *Hierarchy) Record(refs []trace.Ref, log *Log) {
	h.log = *log
	for i, ref := range refs {
		h.step(uint32(i), ref)
	}
	h.log.Delta = h.ctr.appendDelta(h.log.Delta, &h.logged)
	*log, h.log = h.log, Log{}
}

// request logs a memory request and returns its index in the log.
func (h *Hierarchy) request(addr uint64, kind uint8) int {
	h.log.Reqs = append(h.log.Reqs, Req{Addr: addr, Kind: kind})
	return len(h.log.Reqs) - 1
}

// step performs reference ref, the index-th of its block, and returns
// the level that supplied it.
func (h *Hierarchy) step(index uint32, ref trace.Ref) int {
	line := h.line(ref.Addr)
	firstReq := len(h.log.Reqs)
	rec := RefRec{Index: index}
	if ref.Write {
		rec.Flags = RecWrite
	}

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
		h.request(ref.Addr, ReqWrite)
		h.ctr.MemNTWrites++
		rec.Flags |= RecNT
		return h.logRef(rec, len(h.levels), firstReq)
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
		if l.hdr[s].flags[w]&flagPref != 0 {
			// First demand touch of a prefetched line: count it once and
			// clear the flag on every level holding the fill (prefetch
			// promotes to the L2 as well). Whether it is still in flight
			// is timing: the record names the slot its arrival time is in.
			h.markCopies(li, s, w, line, 0, flagPref)
			h.ctr.PrefHits++
			rec.Flags |= RecPref
			rec.Slot = uint32(l.slot(s, w))
		}
		if ref.Write {
			// The line becomes Modified globally: mark every cached copy
			// dirty so the LLC copy always carries the dirty state and an
			// LLC eviction's recall (see evict) can drop the inner copies
			// without a separate writeback.
			h.markCopies(li, s, w, line, flagDirty, 0)
		}
		// Fill upward so inner levels hit next time (inclusive fill).
		h.fillUpward(line, li, ref.Write)
		// The prefetcher trains on traffic that leaves the L1, the way a
		// hardware mid-level prefetcher sees L1-miss streams.
		if h.pf != nil && li >= 1 && !ref.NoPrefetch {
			h.pf.observe(h, line)
		}
		if rec.Flags&RecPref == 0 && len(h.log.Reqs) == firstReq && (li == 0 || ref.Write) {
			return li // free: no latency, no clock read, no request
		}
		return h.logRef(rec, li, firstReq)
	}
	llc := len(h.levels) - 1

	// Missed everywhere: demand fill from memory.
	h.ctr.Levels[llc].DemandMisses++
	h.request(ref.Addr, ReqDemand)
	h.ctr.MemDemandReads++
	rec.Flags |= RecMiss
	if !ref.Write {
		h.ctr.DemandLoadMisses++
	}
	h.insert(line, llc, ref.Write, false)
	h.fillUpward(line, llc, ref.Write)
	if h.pf != nil && !ref.NoPrefetch {
		h.pf.observe(h, line)
	}
	return h.logRef(rec, len(h.levels), firstReq)
}

// logRef appends rec, resolved at level lvl with the requests logged
// since firstReq, and returns lvl.
func (h *Hierarchy) logRef(rec RefRec, lvl, firstReq int) int {
	rec.Level = uint8(lvl)
	rec.NReqs = uint16(len(h.log.Reqs) - firstReq)
	h.log.Refs = append(h.log.Refs, rec)
	return lvl
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
// the same step, and a fill only pushes other lines downward (evict) or
// drops them (the LLC recall), so line is still absent there and needs no
// find. Misses at inner levels are counted against those levels (their
// DemandMisses), which keeps per-level hit-rate statistics meaningful.
func (h *Hierarchy) fillUpward(line uint64, upTo int, write bool) {
	for li := upTo - 1; li >= 0; li-- {
		h.ctr.Levels[li].DemandMisses++
		h.insert(line, li, write, false)
	}
}

// insert places line into level li, evicting as needed, and returns the
// slot it filled. Dirty victims are written to the next level; dirty LLC
// victims go to memory.
func (h *Hierarchy) insert(line uint64, li int, dirty, pref bool) uint64 {
	l := h.levels[li]
	s := l.set(line)
	v := l.victim(s)
	if l.hdr[s].valid&(1<<v) != 0 {
		h.evict(li, s, v)
	}
	var f uint8
	if dirty {
		f |= flagDirty
	}
	if pref {
		f |= flagPref
	}
	l.fill(s, v, line, f)
	return l.slot(s, v)
}

// evict writes back way v of set s at level li if it is dirty. The way
// keeps its stale state: insert refills it straight after.
func (h *Hierarchy) evict(li int, s uint64, v int) {
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
		h.request(tag<<h.lineShift, ReqWrite)
		h.ctr.MemWritebacks++
	} else {
		// Push dirty data down one level.
		next := h.levels[li+1]
		sn := next.set(tag)
		if wn := next.find(sn, tag); wn >= 0 {
			next.hdr[sn].flags[wn] |= flagDirty
		} else {
			h.insert(tag, li+1, true, false)
		}
	}
}

// prefetchFill is called by the prefetcher to bring line into the LLC
// (and promote it to the L2, as hardware mid-level prefetchers do). The
// fill's request names the slots it landed in, where timing keeps the
// line's arrival time.
func (h *Hierarchy) prefetchFill(line uint64) {
	llc := len(h.levels) - 1
	if l := h.levels[llc]; l.find(l.set(line), line) >= 0 {
		return // already present or in flight
	}
	i := h.request(line<<h.lineShift, ReqPrefetch)
	h.ctr.MemPrefReads++
	h.ctr.PrefIssued++
	slot := h.insert(line, llc, false, true)
	up := int32(-1)
	if llc >= 1 {
		up = int32(h.insert(line, llc-1, false, true))
	}
	// insert may have logged writebacks and grown the log: index afresh.
	h.log.Reqs[i].Slot, h.log.Reqs[i].Up = uint32(slot), up
}
