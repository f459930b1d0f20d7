package cache

import (
	"repro/internal/memsys"
	"repro/internal/units"
)

// Timing is the timed half of one thread's hierarchy: the arrival time
// of every prefetch fill, by the slot it filled, and the thread's
// counters. Apply replays a Record at given issue times: it sends the
// reference's memory requests to the backend in their recorded order
// and works out the latency Access would report. The functional
// counters arrive whole, as each block's delta (AddDelta); only
// PrefLate and DemandMissLatency depend on the times.
type Timing struct {
	hitLat  []units.Cycles
	readyAt [][]units.Duration // per level, by slot
	ctr     Counters
}

// NewTiming builds the timing state of a hierarchy of cfg (already
// validated).
func NewTiming(cfg Config) *Timing {
	t := new(Timing)
	t.Reset(cfg)
	return t
}

// Reset restores the just-built state for cfg, reusing t's arrays where
// they fit.
func (t *Timing) Reset(cfg Config) {
	n := len(cfg.Levels)
	t.hitLat = t.hitLat[:0]
	for len(t.readyAt) < n {
		t.readyAt = append(t.readyAt, nil)
	}
	t.readyAt = t.readyAt[:n]
	for i, lc := range cfg.Levels {
		t.hitLat = append(t.hitLat, lc.HitLatency)
		slots := int(uint64(lc.Size) / uint64(cfg.LineSize) / uint64(lc.Assoc) * uint64(lc.Assoc))
		if cap(t.readyAt[i]) < slots {
			t.readyAt[i] = make([]units.Duration, slots)
		} else {
			t.readyAt[i] = t.readyAt[i][:slots]
			clear(t.readyAt[i])
		}
	}
	t.ctr.resize(n)
}

// CopyFrom makes t an exact copy of src, reusing t's arrays. src is only
// read, so several copies of one source may be made concurrently.
func (t *Timing) CopyFrom(src *Timing) {
	t.hitLat = append(t.hitLat[:0], src.hitLat...)
	for len(t.readyAt) < len(src.readyAt) {
		t.readyAt = append(t.readyAt, nil)
	}
	t.readyAt = t.readyAt[:len(src.readyAt)]
	for i, r := range src.readyAt {
		t.readyAt[i] = append(t.readyAt[i][:0], r...)
	}
	src.ctr.copyInto(&t.ctr)
}

// CountersInto copies the thread's counters into dst, reusing dst.Levels.
func (t *Timing) CountersInto(dst *Counters) { t.ctr.copyInto(dst) }

// ResetCounters clears the counters; arrival times carry over.
func (t *Timing) ResetCounters() { t.ctr.reset() }

// AddDelta adds a block's functional counter delta, as Record logged it.
func (t *Timing) AddDelta(d []uint32) { t.ctr.addDelta(d) }

// Apply times reference r, issued at now by a core running at freq: its
// requests go to mem in order, each prefetch fill's completion becomes
// its line's arrival time, and the result is the reference's exposed
// latency. A first touch of a prefetched line reads the line's arrival
// time before any of the reference's own fills can overwrite its slot.
func (t *Timing) Apply(now units.Duration, r *RefRec, reqs []Req, mem Memory, freq units.Hertz) units.Duration {
	var lat units.Duration
	if r.Flags&RecPref != 0 {
		if ready := t.readyAt[r.Level][r.Slot]; ready > now {
			// In-flight prefetch: expose the remaining latency.
			t.ctr.PrefLate++
			lat = ready - now
		}
	}
	if r.Flags&(RecWrite|RecMiss|RecNT) == 0 {
		lat += t.hitLat[r.Level].Duration(freq)
		if r.Level == 0 {
			lat = 0 // L1 hit latency lives in BaseCPI
		}
	}
	for i := range reqs {
		q := &reqs[i]
		switch q.Kind {
		case ReqDemand:
			res := mem.Access(now, q.Addr, memsys.Read)
			if r.Flags&RecWrite == 0 {
				lat = res.Latency
				t.ctr.DemandMissLatency += res.Latency
			}
		case ReqPrefetch:
			res := mem.Access(now, q.Addr, memsys.Read)
			llc := len(t.readyAt) - 1
			t.readyAt[llc][q.Slot] = now + res.Latency
			if q.Up >= 0 {
				t.readyAt[llc-1][q.Up] = now + res.Latency
			}
		default:
			mem.Access(now, q.Addr, memsys.Write)
		}
	}
	if r.Flags&RecWrite != 0 {
		return 0 // stores retire into the store buffer
	}
	return lat
}
