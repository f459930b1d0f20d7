package cache

import "repro/internal/units"

// prefetcher is a stream prefetcher trained on LLC-level accesses. It
// tracks per-4KiB-page streams; after TrainHits consecutive same-direction
// line accesses within a page it fetches Depth lines ahead. This is the
// mechanism that gives regular, scan-heavy workloads (the paper's HPC
// class and column-store scans) a low blocking factor despite high MPI:
// the fills still consume bandwidth but arrive before the core needs them.
type prefetcher struct {
	cfg     PrefetchConfig
	streams []stream
	clock   uint64
}

type stream struct {
	valid bool
	page  uint64
	last  uint64 // last line observed
	dir   int64  // +1 or -1
	hits  int
	lru   uint64
}

const linesPerPage = 64 // 4 KiB pages of 64 B lines

func newPrefetcher(cfg PrefetchConfig) *prefetcher {
	return &prefetcher{cfg: cfg, streams: make([]stream, cfg.Streams)}
}

// reset restores the just-built state (all streams untrained), reusing
// the stream table. The caller guarantees len(streams) == cfg.Streams.
func (p *prefetcher) reset(cfg PrefetchConfig) {
	p.cfg = cfg
	clear(p.streams)
	p.clock = 0
}

// copyFrom makes p an exact copy of src, reusing its stream table.
func (p *prefetcher) copyFrom(src *prefetcher) {
	p.cfg = src.cfg
	p.streams = append(p.streams[:0], src.streams...)
	p.clock = src.clock
}

// observe trains on a demand access to line and issues prefetches through
// h when a stream is established.
func (p *prefetcher) observe(h *Hierarchy, now units.Duration, line uint64) {
	page := line / linesPerPage
	p.clock++

	s := p.lookup(page)
	if s == nil {
		s = p.allocate(page, line)
		return
	}
	s.lru = p.clock
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
	for i := 1; i <= p.cfg.Depth; i++ {
		next := int64(line) + int64(i)*s.dir
		if next < 0 {
			break
		}
		if uint64(next)/linesPerPage != page {
			break // streams stop at page boundaries, like real HW prefetchers
		}
		h.prefetchFill(now, uint64(next))
	}
}

func (p *prefetcher) lookup(page uint64) *stream {
	for i := range p.streams {
		if p.streams[i].valid && p.streams[i].page == page {
			return &p.streams[i]
		}
	}
	return nil
}

func (p *prefetcher) allocate(page, line uint64) *stream {
	var v *stream
	for i := range p.streams {
		if !p.streams[i].valid {
			v = &p.streams[i]
			break
		}
		if v == nil || p.streams[i].lru < v.lru {
			v = &p.streams[i]
		}
	}
	*v = stream{valid: true, page: page, last: line, lru: p.clock}
	return v
}
