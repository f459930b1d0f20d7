package cache

import "math/bits"

// prefetcher is a stream prefetcher trained on LLC-level accesses. It
// tracks per-4KiB-page streams; after TrainHits consecutive same-direction
// line accesses within a page it fetches Depth lines ahead. This is the
// mechanism that gives regular, scan-heavy workloads (the paper's HPC
// class and column-store scans) a low blocking factor despite high MPI:
// the fills still consume bandwidth but arrive before the core needs them.
//
// The stream table is found by page fingerprint and replaced through a
// recency list, both O(1) per access. Each stream also remembers which
// lines of its page are known to be in the LLC, so a trained access
// issues a fill probe only for lines the LLC may lack (see resident).
type prefetcher struct {
	cfg     PrefetchConfig
	streams []stream
	// byFP indexes the live streams by page fingerprint: row f, words
	// uint64s from f*words, has bit i%64 of word i/64 set when live
	// stream i's page has fingerprint f. A page without a stream — most
	// pages forget is asked about — usually finds its row empty.
	byFP  []uint64
	words int
	// used counts the live streams: slots fill in index order and are
	// only ever replaced afterwards, so streams [0, used) are live.
	used int
	// mru and lru are the ends of the recency list threaded through the
	// live streams' prev/next, most recently observed first (-1 if empty).
	mru, lru int32
}

type stream struct {
	page uint64
	last uint64 // last line observed
	dir  int64  // +1 or -1
	hits int
	// resident has bit i set only while line page·64+i is in the LLC:
	// observe sets it when the line is observed or prefetched (either
	// leaves it present), and forget clears it on each of the two ways a
	// line leaves the LLC — an LLC eviction and a non-temporal store's
	// invalidation. A set bit makes prefetchFill a guaranteed no-op, so
	// skipping it leaves every counter and cache state unchanged.
	resident   uint64
	prev, next int32 // recency-list neighbours toward mru and lru
}

const linesPerPage = 64 // 4 KiB pages of 64 B lines

func newPrefetcher(cfg PrefetchConfig) *prefetcher {
	words := (cfg.Streams + 63) / 64
	p := &prefetcher{
		cfg:     cfg,
		streams: make([]stream, cfg.Streams),
		byFP:    make([]uint64, 256*words),
		words:   words,
	}
	p.reset(cfg)
	return p
}

// reset restores the just-built state (all streams untrained), reusing
// the stream table. The caller guarantees len(streams) == cfg.Streams.
func (p *prefetcher) reset(cfg PrefetchConfig) {
	p.cfg = cfg
	clear(p.streams)
	clear(p.byFP)
	p.used = 0
	p.mru, p.lru = -1, -1
}

// observe trains on a demand access to line, which the LLC holds, and
// issues prefetches through h when a stream is established.
func (p *prefetcher) observe(h *Hierarchy, line uint64) {
	page := line / linesPerPage
	i := p.lookup(page)
	if i < 0 {
		p.allocate(page, line)
		return
	}
	p.touch(i)
	s := &p.streams[i]
	s.resident |= 1 << (line % linesPerPage)
	delta := int64(line) - int64(s.last)
	if delta == 0 {
		return
	}
	dir := int64(1)
	if delta < 0 {
		dir = -1
	}
	if (delta == 1 || delta == -1) && (s.hits == 0 || dir == s.dir) {
		s.hits++
		s.dir = dir
	} else {
		// Reset training on a non-sequential step.
		s.hits = 1
		s.dir = dir
	}
	s.last = line

	if s.hits < p.cfg.TrainHits {
		return
	}
	for k := 1; k <= p.cfg.Depth; k++ {
		next := int64(line) + int64(k)*s.dir
		if next < 0 {
			break
		}
		if uint64(next)/linesPerPage != page {
			break // streams stop at page boundaries, like real HW prefetchers
		}
		bit := uint64(1) << (uint64(next) % linesPerPage)
		if s.resident&bit != 0 {
			continue // already in the LLC: the fill would be a no-op
		}
		// The fill may evict lines of this very page, clearing their
		// bits through forget; next itself stays present.
		h.prefetchFill(uint64(next))
		s.resident |= bit
	}
}

// forget clears line's known-resident bit: the LLC no longer holds it.
func (p *prefetcher) forget(line uint64) {
	if i := p.lookup(line / linesPerPage); i >= 0 {
		p.streams[i].resident &^= 1 << (line % linesPerPage)
	}
}

// lookup returns the index of page's stream, or -1. A page has at most
// one live stream (allocate runs only after lookup fails), so the first
// confirmed fingerprint match is the answer a linear scan would give.
func (p *prefetcher) lookup(page uint64) int32 {
	if p.mru >= 0 && p.streams[p.mru].page == page {
		return p.mru // the common case: the page observed last
	}
	row := p.byFP[int(fingerprint(page))*p.words:][:p.words]
	for k, m := range row {
		for ; m != 0; m &= m - 1 {
			i := k*64 + bits.TrailingZeros64(m)
			if p.streams[i].page == page {
				return int32(i)
			}
		}
	}
	return -1
}

// allocate starts a stream for page at line in the next unused slot or,
// once every slot is live, in place of the least recently observed
// stream — the slot a scan for the smallest last-observed stamp picks,
// since each observe touches exactly one stream.
func (p *prefetcher) allocate(page, line uint64) {
	var i int32
	if p.used < len(p.streams) {
		i = int32(p.used)
		p.used++
	} else {
		i = p.lru
		p.unlink(i)
		p.index(i, p.streams[i].page, false)
	}
	p.streams[i] = stream{page: page, last: line, resident: 1 << (line % linesPerPage)}
	p.index(i, page, true)
	p.pushMRU(i)
}

// index adds stream i to (on) or drops it from page's fingerprint row.
func (p *prefetcher) index(i int32, page uint64, on bool) {
	w := &p.byFP[int(fingerprint(page))*p.words+int(i/64)]
	if on {
		*w |= 1 << (i % 64)
	} else {
		*w &^= 1 << (i % 64)
	}
}

// touch makes live stream i the most recently observed.
func (p *prefetcher) touch(i int32) {
	if p.mru == i {
		return
	}
	p.unlink(i)
	p.pushMRU(i)
}

func (p *prefetcher) unlink(i int32) {
	s := &p.streams[i]
	if s.prev >= 0 {
		p.streams[s.prev].next = s.next
	} else {
		p.mru = s.next
	}
	if s.next >= 0 {
		p.streams[s.next].prev = s.prev
	} else {
		p.lru = s.prev
	}
}

func (p *prefetcher) pushMRU(i int32) {
	s := &p.streams[i]
	s.prev, s.next = -1, p.mru
	if p.mru >= 0 {
		p.streams[p.mru].prev = i
	} else {
		p.lru = i
	}
	p.mru = i
}
