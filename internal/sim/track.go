package sim

import (
	"fmt"
	"sync"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/trace"
)

// track is one hardware thread's functional simulation: its workload
// generator and cache hierarchy (with the prefetcher), extended one
// block at a time into records that the thread's timing replays
// (cpu.Core.RunBlock). No cache decision reads a clock, so a track is
// the same whatever timing replays it: a machine and its copies share
// their tracks, and a block is generated and stepped through the caches
// once however many copies replay it.
//
// A track used by one machine keeps only the record in hand, and its
// user extends it without locking. Once a second machine attaches
// (CopyFrom), it retains every record from that point on, since each
// user replays from its own position. Records are appended, never
// changed, and published under mu: a user reads any record below its
// snapshot of the log without locking, and takes mu only to refresh the
// snapshot or extend the track. retain changes only under mu while no
// machine runs on the track (attach happens in CopyFrom, whose source
// is not running) or when its last user restarts it, so reading it
// unlocked is safe.
type track struct {
	mu    sync.Mutex
	users int // machines attached

	name string // the workload, for the empty-block panic
	gen  trace.Generator
	h    *cache.Hierarchy
	blk  trace.Block // the generator's scratch block

	// recs holds blocks first, first+1, ...; n counts the blocks
	// generated. log holds the records' references, requests and counter
	// deltas. Without retention both hold the last block only.
	retain bool
	first  uint64
	n      uint64
	recs   []cpu.Block
	log    cache.Log
	// slabs are the slabs retained records fill, the last one being log;
	// lone is the one-block log, set aside while the track retains.
	slabs []*cache.Log
	lone  cache.Log
}

// Retained record storage grows a slab at a time, so records already
// published never move; a new slab starts when the current one has
// less room than a block can need in any of its arrays. A block logs 19
// counter words but only a few references and requests, so the slab
// gives those two arrays less room: with slabRefs and slabReqs, the
// counter words fill first in every slab the full cmd/repro suite
// retires (at most 9 650 references and 12 575 requests per slab, plus
// slabSpare, rounded up to 1 Ki entries).
const (
	slabDelta = 1 << 14
	slabRefs  = 12 << 10
	slabReqs  = 15 << 10
	slabSpare = 1 << 11
)

// trackPool recycles tracks (hierarchy arrays, record storage) that the
// last machine using them let go, and slabPool the slabs their retained
// records filled.
var trackPool, slabPool sync.Pool

// slab returns an empty slab, a pooled one if it can, as t's current
// log. The caller holds mu.
func (t *track) slab() {
	l, _ := slabPool.Get().(*cache.Log)
	if l == nil {
		l = new(cache.Log)
		*l = cache.Log{
			Refs:  make([]cache.RefRec, 0, slabRefs),
			Reqs:  make([]cache.Req, 0, slabReqs),
			Delta: make([]uint32, 0, slabDelta),
		}
	}
	l.Reset()
	t.slabs = append(t.slabs, l)
	t.log = *l
}

// restart rewinds t, with its hierarchy already Reset, to an empty log
// over gen, for one user. Records are reachable only through the cursors
// of t's users, so with none left (or the caller the only one) retained
// records give their slabs back to slabPool: a track used alone needs
// room for one block.
func (t *track) restart(name string, gen trace.Generator) {
	t.users = 1
	t.name, t.gen = name, gen
	t.first, t.n = 0, 0
	clear(t.recs)
	t.recs = t.recs[:0]
	if t.retain {
		t.retain = false
		for _, l := range t.slabs {
			slabPool.Put(l)
		}
		clear(t.slabs)
		t.slabs = t.slabs[:0]
		t.log = t.lone
	}
	t.log.Reset()
}

// attach adds a user. From the second one on, t retains its records.
func (t *track) attach() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.users++
	if !t.retain {
		t.retain = true
		t.first = t.n
		t.recs = t.recs[:0]
		t.lone = t.log
		t.slab()
	}
}

// release drops a user; the last one returns t to the pool, without
// its generator and records.
func (t *track) release() {
	t.mu.Lock()
	t.users--
	last := t.users == 0
	t.mu.Unlock()
	if last {
		t.restart("", nil)
		trackPool.Put(t)
	}
}

// exclusive reports whether the caller is t's only user.
func (t *track) exclusive() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.users == 1
}

// extend generates block n, steps it through the caches and appends its
// record. The caller holds mu, unless t has one user.
func (t *track) extend() {
	t.blk.Reset()
	t.gen.NextBlock(&t.blk)
	if t.blk.Instructions == 0 {
		panic(fmt.Sprintf("sim: workload %q produced an empty block", t.name))
	}
	if !t.retain {
		t.recs = t.recs[:0]
		t.log.Reset()
		t.first = t.n
	} else if cap(t.log.Refs)-len(t.log.Refs) < slabSpare || cap(t.log.Reqs)-len(t.log.Reqs) < slabSpare ||
		cap(t.log.Delta)-len(t.log.Delta) < slabSpare {
		t.slab()
	}
	t.recs = append(t.recs, cpu.Block{})
	cpu.Record(&t.recs[len(t.recs)-1], &t.blk, t.h, &t.log)
	t.n++
}

// cursor is one machine's position on a thread's track, with its
// snapshot of the published records.
type cursor struct {
	t     *track
	pos   uint64 // the next block to replay
	first uint64 // the block recs[0] holds
	recs  []cpu.Block
}

// next returns the record of the next block, and whether this call
// generated it.
func (c *cursor) next() (*cpu.Block, bool) {
	if i := c.pos - c.first; i < uint64(len(c.recs)) {
		c.pos++
		return &c.recs[i], false
	}
	t := c.t
	if !t.retain {
		t.extend()
		c.first, c.recs = t.first, t.recs
		c.pos++
		return &c.recs[0], true
	}
	t.mu.Lock()
	extended := c.pos == t.n
	if extended {
		t.extend()
	}
	c.first, c.recs = t.first, t.recs
	t.mu.Unlock()
	c.pos++
	return &c.recs[c.pos-1-c.first], extended
}

// start puts c at the beginning of a track over gen for cfg (already
// validated): its own, reset in place, when no other machine shares it,
// else a pooled or new one.
func (c *cursor) start(cfg cache.Config, name string, gen trace.Generator) error {
	t := c.t
	if t == nil || !t.exclusive() {
		c.drop()
		t, _ = trackPool.Get().(*track)
	}
	if t == nil {
		h, err := cache.New(cfg, nil)
		if err != nil {
			return err
		}
		t = &track{h: h}
	} else if err := t.h.Reset(cfg); err != nil {
		return err
	}
	t.restart(name, gen)
	*c = cursor{t: t}
	return nil
}

// share attaches c to src's track at src's position.
func (c *cursor) share(src *cursor) {
	if c.t != src.t {
		c.drop()
		src.t.attach()
		c.t = src.t
	}
	c.pos = src.pos
	c.first, c.recs = c.pos, nil
}

// drop detaches c from its track.
func (c *cursor) drop() {
	if c.t != nil {
		c.t.release()
	}
	*c = cursor{}
}
