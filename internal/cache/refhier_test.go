package cache

import (
	"reflect"
	"testing"

	"repro/internal/memsys"
	"repro/internal/trace"
	"repro/internal/units"
)

// This file keeps a test-only reference hierarchy: an array-of-structs
// data plane whose ways carry LRU stamps from a per-level clock, found
// and replaced by linear scans (find: first valid way with the tag;
// victim: first invalid way, else the smallest stamp). It is the
// simplest correct statement of the replacement policy, not the
// production layout. TestSoAMatchesReference drives it and Hierarchy
// with identical random mixed streams and demands identical Outcomes and
// Counters, witnessing that the set-header kernel in cache.go (packed
// recency order, fingerprint match, valid mask) changes representation
// only.

type refEntry struct {
	tag     uint64
	valid   bool
	dirty   bool
	lru     uint64
	readyAt units.Duration
	pref    bool
}

type refLevel struct {
	cfg      LevelConfig
	sets     uint64
	assoc    int
	entries  []refEntry
	lruClock uint64
}

func newRefLevel(cfg LevelConfig, lineSize units.Bytes) *refLevel {
	sets := uint64(cfg.Size) / (uint64(lineSize) * uint64(cfg.Assoc))
	return &refLevel{cfg: cfg, sets: sets, assoc: cfg.Assoc, entries: make([]refEntry, sets*uint64(cfg.Assoc))}
}

func (l *refLevel) set(line uint64) []refEntry {
	s := line % l.sets
	return l.entries[s*uint64(l.assoc) : (s+1)*uint64(l.assoc)]
}

func (l *refLevel) find(line uint64) *refEntry {
	set := l.set(line)
	for i := range set {
		if set[i].valid && set[i].tag == line {
			return &set[i]
		}
	}
	return nil
}

func (l *refLevel) victim(line uint64) *refEntry {
	set := l.set(line)
	var v *refEntry
	for i := range set {
		if !set[i].valid {
			return &set[i]
		}
		if v == nil || set[i].lru < v.lru {
			v = &set[i]
		}
	}
	return v
}

func (l *refLevel) touch(e *refEntry) {
	l.lruClock++
	e.lru = l.lruClock
}

type refHierarchy struct {
	cfg    Config
	levels []*refLevel
	mem    Memory
	pf     *refPrefetcher
	ctr    Counters
}

func newRefHierarchy(t *testing.T, cfg Config, mem Memory) *refHierarchy {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	h := &refHierarchy{cfg: cfg, mem: mem}
	for _, lc := range cfg.Levels {
		h.levels = append(h.levels, newRefLevel(lc, cfg.LineSize))
	}
	h.ctr.Levels = make([]LevelCounters, len(cfg.Levels))
	if cfg.Prefetch.Enabled {
		h.pf = &refPrefetcher{cfg: cfg.Prefetch, streams: make([]refStream, cfg.Prefetch.Streams)}
	}
	return h
}

func (h *refHierarchy) counters() Counters {
	c := h.ctr
	c.Levels = append([]LevelCounters(nil), h.ctr.Levels...)
	return c
}

func (h *refHierarchy) access(now units.Duration, ref trace.Ref, freq units.Hertz) Outcome {
	line := ref.Addr / uint64(h.cfg.LineSize)

	if ref.NonTemporal {
		for _, l := range h.levels {
			if e := l.find(line); e != nil {
				e.valid = false
			}
		}
		h.mem.Access(now, ref.Addr, memsys.Write)
		h.ctr.MemNTWrites++
		return Outcome{HitLevel: len(h.levels)}
	}

	for li, l := range h.levels {
		h.ctr.Levels[li].Accesses++
		e := l.find(line)
		if e == nil {
			continue
		}
		h.ctr.Levels[li].Hits++
		l.touch(e)
		out := Outcome{HitLevel: li}
		if e.pref {
			for lj := li; lj < len(h.levels); lj++ {
				if ej := h.levels[lj].find(line); ej != nil {
					ej.pref = false
				}
			}
			h.ctr.PrefHits++
			out.PrefetchHit = true
			if e.readyAt > now {
				h.ctr.PrefLate++
				out.Latency = e.readyAt - now
			}
		}
		if !ref.Write {
			out.Latency += h.levels[li].cfg.HitLatency.Duration(freq)
			if li == 0 {
				out.Latency = 0
			}
		}
		if ref.Write {
			for lj := li; lj < len(h.levels); lj++ {
				if ej := h.levels[lj].find(line); ej != nil {
					ej.dirty = true
				}
			}
			out.Latency = 0
		}
		h.fillUpward(now, line, li, ref.Write)
		if h.pf != nil && li >= 1 && !ref.NoPrefetch {
			h.pf.observe(h, now, line)
		}
		return out
	}
	llc := len(h.levels) - 1

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

func (h *refHierarchy) fillUpward(now units.Duration, line uint64, upTo int, write bool) {
	for li := upTo - 1; li >= 0; li-- {
		if e := h.levels[li].find(line); e != nil {
			h.levels[li].touch(e)
			if write {
				e.dirty = true
			}
			continue
		}
		h.ctr.Levels[li].DemandMisses++
		h.insert(now, line, li, write, false, 0)
	}
}

func (h *refHierarchy) insert(now units.Duration, line uint64, li int, dirty, pref bool, readyAt units.Duration) {
	l := h.levels[li]
	v := l.victim(line)
	if v.valid {
		h.evict(now, v, li)
	}
	*v = refEntry{tag: line, valid: true, dirty: dirty, pref: pref, readyAt: readyAt}
	l.touch(v)
}

func (h *refHierarchy) evict(now units.Duration, v *refEntry, li int) {
	if li == len(h.levels)-1 {
		for lj := 0; lj < li; lj++ {
			if e := h.levels[lj].find(v.tag); e != nil {
				e.valid = false
			}
		}
	}
	if !v.dirty {
		v.valid = false
		return
	}
	h.ctr.Levels[li].Writebacks++
	if li == len(h.levels)-1 {
		h.mem.Access(now, v.tag*uint64(h.cfg.LineSize), memsys.Write)
		h.ctr.MemWritebacks++
	} else {
		if e := h.levels[li+1].find(v.tag); e != nil {
			e.dirty = true
		} else {
			h.insert(now, v.tag, li+1, true, false, 0)
		}
	}
	v.valid = false
}

func (h *refHierarchy) prefetchFill(now units.Duration, line uint64) {
	llc := len(h.levels) - 1
	if h.levels[llc].find(line) != nil {
		return
	}
	res := h.mem.Access(now, line*uint64(h.cfg.LineSize), memsys.Read)
	h.ctr.MemPrefReads++
	h.ctr.PrefIssued++
	h.insert(now, line, llc, false, true, now+res.Latency)
	if llc >= 1 {
		h.insert(now, line, llc-1, false, true, now+res.Latency)
	}
}

// refPrefetcher is the prefetcher's policy in its plainest form,
// targeting refHierarchy: a stream table found by a linear scan, a victim
// chosen by the smallest last-observed stamp, and a fill probe for every
// line ahead of a trained stream. It keeps no record of which lines the
// LLC holds, so it witnesses that the production prefetcher's
// known-resident bitmap only skips probes that would have been no-ops.
type refPrefetcher struct {
	cfg     PrefetchConfig
	streams []refStream
	clock   uint64
}

type refStream struct {
	valid bool
	page  uint64
	last  uint64
	dir   int64
	hits  int
	lru   uint64
}

func (p *refPrefetcher) observe(h *refHierarchy, now units.Duration, line uint64) {
	page := line / linesPerPage
	p.clock++

	s := p.lookup(page)
	if s == nil {
		p.allocate(page, line)
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
			break
		}
		h.prefetchFill(now, uint64(next))
	}
}

func (p *refPrefetcher) lookup(page uint64) *refStream {
	for i := range p.streams {
		if p.streams[i].valid && p.streams[i].page == page {
			return &p.streams[i]
		}
	}
	return nil
}

func (p *refPrefetcher) allocate(page, line uint64) *refStream {
	var v *refStream
	for i := range p.streams {
		if !p.streams[i].valid {
			v = &p.streams[i]
			break
		}
		if v == nil || p.streams[i].lru < v.lru {
			v = &p.streams[i]
		}
	}
	*v = refStream{valid: true, page: page, last: line, lru: p.clock}
	return v
}

// nonPow2Config exercises the modulo set-index fallback (3 sets per
// level), which no default geometry reaches.
func nonPow2Config(prefetch bool) Config {
	return Config{
		LineSize: 64,
		Levels: []LevelConfig{
			{Name: "L1", Size: 3 * 2 * 64, Assoc: 2, HitLatency: 0},
			{Name: "L2", Size: 3 * 4 * 64, Assoc: 4, HitLatency: 5},
			{Name: "LLC", Size: 3 * 8 * 64, Assoc: 8, HitLatency: 14},
		},
		Prefetch: PrefetchConfig{Enabled: prefetch, Streams: 4, Depth: 4, TrainHits: 2},
	}
}

// directMappedConfig makes every level one way per set, so each fill
// evicts whatever shares its set.
func directMappedConfig() Config {
	return Config{
		LineSize: 64,
		Levels: []LevelConfig{
			{Name: "L1", Size: 8 * 64, Assoc: 1, HitLatency: 0},
			{Name: "L2", Size: 16 * 64, Assoc: 1, HitLatency: 5},
			{Name: "LLC", Size: 64 * 64, Assoc: 1, HitLatency: 14},
		},
		Prefetch: PrefetchConfig{Enabled: true, Streams: 4, Depth: 4, TrainHits: 2},
	}
}

// twelveWayConfig has a 12-way LLC: an associativity that is neither a
// power of two nor a whole number of fingerprint words.
func twelveWayConfig() Config {
	return Config{
		LineSize: 64,
		Levels: []LevelConfig{
			{Name: "L1", Size: 4 * 4 * 64, Assoc: 4, HitLatency: 0},
			{Name: "L2", Size: 8 * 8 * 64, Assoc: 8, HitLatency: 5},
			{Name: "LLC", Size: 16 * 12 * 64, Assoc: 12, HitLatency: 14},
		},
		Prefetch: PrefetchConfig{Enabled: true, Streams: 4, Depth: 6, TrainHits: 2},
	}
}

// twoLevelConfig promotes prefetch fills into level 0, so demand hits on
// prefetched lines start at the L1.
func twoLevelConfig() Config {
	return Config{
		LineSize: 64,
		Levels: []LevelConfig{
			{Name: "L1", Size: 8 * 4 * 64, Assoc: 4, HitLatency: 0},
			{Name: "LLC", Size: 32 * 8 * 64, Assoc: 8, HitLatency: 14},
		},
		Prefetch: PrefetchConfig{Enabled: true, Streams: 4, Depth: 8, TrainHits: 2},
	}
}

// tinyWideConfig has a two-set 16-way LLC that a deep prefetcher fills
// and evicts constantly.
func tinyWideConfig() Config {
	return Config{
		LineSize: 64,
		Levels: []LevelConfig{
			{Name: "L1", Size: 2 * 2 * 64, Assoc: 2, HitLatency: 0},
			{Name: "L2", Size: 2 * 4 * 64, Assoc: 4, HitLatency: 5},
			{Name: "LLC", Size: 2 * 16 * 64, Assoc: 16, HitLatency: 14},
		},
		Prefetch: PrefetchConfig{Enabled: true, Streams: 8, Depth: 8, TrainHits: 2},
	}
}

// TestSoAMatchesReference is the determinism witness for the production
// data plane (set headers over flat tag arrays): random mixed traffic (loads, stores, NT stores, sequential bursts that
// train the prefetcher) through both implementations over a live
// memsys.Simulator must produce identical Outcomes, cache Counters, and
// memory-side Counters.
func TestSoAMatchesReference(t *testing.T) {
	configs := map[string]Config{
		"small-pf":    smallConfig(true),
		"small-nopf":  smallConfig(false),
		"default":     DefaultConfig(),
		"nonpow2-pf":  nonPow2Config(true),
		"nonpow2-off": nonPow2Config(false),
		"direct":      directMappedConfig(),
		"llc-12way":   twelveWayConfig(),
		"two-level":   twoLevelConfig(),
		"tiny-16way":  tinyWideConfig(),
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 5; seed++ {
				memA, err := memsys.NewSimulator(memsys.DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				memB, err := memsys.NewSimulator(memsys.DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				soa, err := New(cfg, memA)
				if err != nil {
					t.Fatal(err)
				}
				ref := newRefHierarchy(t, cfg, memB)
				rng := trace.NewRNG(seed * 0x9E37)
				seq := uint64(0)
				for i := 0; i < 20_000; i++ {
					r := trace.Ref{}
					switch {
					case rng.Bernoulli(0.35):
						// Sequential burst position: trains streams.
						r.Addr = (1 << 30) + seq*64
						seq++
					default:
						r.Addr = rng.Uint64n(1<<14) * 64
					}
					if rng.Bernoulli(0.3) {
						r.Write = true
						r.NonTemporal = rng.Bernoulli(0.1)
					}
					r.NoPrefetch = rng.Bernoulli(0.05)
					if rng.Bernoulli(0.02) {
						// NT-store a line the sequential stream has
						// already prefetched; the stream then walks into
						// it and must probe it again.
						r = trace.Ref{Addr: (1 << 30) + (seq+1+rng.Uint64n(6))*64, Write: true, NonTemporal: true}
					}
					now := units.Duration(i) * 7
					got := soa.Access(now, r, units.GHzOf(2.5))
					want := ref.access(now, r, units.GHzOf(2.5))
					if got != want {
						t.Fatalf("seed %d op %d (%+v): SoA %+v != reference %+v", seed, i, r, got, want)
					}
				}
				if got, want := soa.Counters(), ref.counters(); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: counters diverged:\nSoA %+v\nref %+v", seed, got, want)
				}
				if got, want := memA.Counters(), memB.Counters(); got != want {
					t.Fatalf("seed %d: memory counters diverged:\nSoA %+v\nref %+v", seed, got, want)
				}
			}
		})
	}
}

// FuzzHierarchyMatchesReference drives Hierarchy and the reference
// hierarchy with one short op sequence over four 4 KiB pages and demands
// identical Outcomes and Counters, on a small LLC the prefetcher evicts
// from constantly and on a direct-mapped stack. Each op is two bytes
// (ops past the first maxOps are ignored). The first holds the page
// (bits 0–1) and the write (bit 2), non-temporal store (bit 3),
// no-prefetch (bit 4) and step (bit 5) flags. The second picks the line
// in the page or, with the step flag set, steps one line down (bit 0
// set) or up from the previous op's line, so streams train and walk.
func FuzzHierarchyMatchesReference(f *testing.F) {
	var walk []byte
	for line := byte(0); line < 24; line++ {
		walk = append(walk, 0, line) // load line after line of page 0
		if line == 6 {
			walk = append(walk, 8, 10) // NT-store line 10, already prefetched
		}
	}
	f.Add(walk)
	var revisit []byte
	for _, run := range []struct{ page, lines byte }{{0, 12}, {1, 36}, {0, 12}} {
		for line := byte(0); line < run.lines; line++ {
			revisit = append(revisit, run.page, line) // page 1 evicts page 0's prefetched lines
		}
	}
	f.Add(revisit)
	f.Add([]byte{0, 60, 32, 0, 32, 0, 32, 0, 33, 1, 32, 1, 32, 1, 36, 5, 16, 7, 9, 63})
	configs := map[string]Config{"tiny-16way": tinyWideConfig(), "direct": directMappedConfig()}
	const pages, maxOps = 4, 64
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2*maxOps {
			data = data[:2*maxOps] // keep each run short: bugs show within a few pages of traffic
		}
		for name, cfg := range configs {
			memA, err := memsys.NewSimulator(memsys.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			memB, err := memsys.NewSimulator(memsys.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			soa, err := New(cfg, memA)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefHierarchy(t, cfg, memB)
			var line uint64 // within the pages·64 lines
			for i := 0; i+1 < len(data); i += 2 {
				op, arg := data[i], data[i+1]
				switch {
				case op&32 == 0:
					line = uint64(op&3)*linesPerPage + uint64(arg%linesPerPage)
				case arg&1 != 0:
					line = (line + pages*linesPerPage - 1) % (pages * linesPerPage)
				default:
					line = (line + 1) % (pages * linesPerPage)
				}
				r := trace.Ref{
					Addr:        (1 << 30) + line*64,
					Write:       op&(4|8) != 0,
					NonTemporal: op&8 != 0,
					NoPrefetch:  op&16 != 0,
				}
				now := units.Duration(i) * 7
				got := soa.Access(now, r, units.GHzOf(2.5))
				want := ref.access(now, r, units.GHzOf(2.5))
				if got != want {
					t.Fatalf("%s op %d (%+v): Hierarchy %+v != reference %+v", name, i/2, r, got, want)
				}
			}
			if got, want := soa.Counters(), ref.counters(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: counters diverged:\nHierarchy %+v\nreference %+v", name, got, want)
			}
		}
	})
}

// TestHierarchyResetMatchesFresh: traffic → Reset → traffic must equal a
// fresh hierarchy seeing only the second stream, including across
// geometry changes and prefetcher enable/disable flips.
func TestHierarchyResetMatchesFresh(t *testing.T) {
	drive := func(h *Hierarchy, seed uint64) []Outcome {
		rng := trace.NewRNG(seed)
		outs := make([]Outcome, 0, 4000)
		for i := 0; i < 4000; i++ {
			r := trace.Ref{Addr: rng.Uint64n(1<<12) * 64, Write: rng.Bernoulli(0.25)}
			outs = append(outs, h.Access(units.Duration(i)*5, r, units.GHzOf(2.5)))
		}
		return outs
	}
	transitions := []struct {
		name     string
		from, to Config
	}{
		{"same-config", smallConfig(true), smallConfig(true)},
		{"pf-toggle-off", smallConfig(true), smallConfig(false)},
		{"pf-toggle-on", smallConfig(false), smallConfig(true)},
		{"geometry-change", smallConfig(true), DefaultConfig()},
		{"pow2-to-mod", DefaultConfig(), nonPow2Config(true)},
	}
	for _, tc := range transitions {
		t.Run(tc.name, func(t *testing.T) {
			reused, err := New(tc.from, &fakeMem{latency: 80})
			if err != nil {
				t.Fatal(err)
			}
			drive(reused, 11)
			if err := reused.Reset(tc.to); err != nil {
				t.Fatal(err)
			}
			fresh, err := New(tc.to, &fakeMem{latency: 80})
			if err != nil {
				t.Fatal(err)
			}
			a, b := drive(reused, 23), drive(fresh, 23)
			if !reflect.DeepEqual(a, b) {
				t.Fatal("outcomes after Reset differ from a fresh hierarchy")
			}
			if ga, gb := reused.Counters(), fresh.Counters(); !reflect.DeepEqual(ga, gb) {
				t.Fatalf("counters after Reset differ:\nreused %+v\nfresh  %+v", ga, gb)
			}
		})
	}
}

func TestHierarchyResetRejectsBadConfig(t *testing.T) {
	h, _ := newSmall(t, true)
	bad := smallConfig(true)
	bad.LineSize = 0
	if err := h.Reset(bad); err == nil {
		t.Fatal("want error")
	}
	// The hierarchy must still be usable after a rejected Reset.
	if out := load(h, 0, 0x1000); !out.DemandMiss {
		t.Fatal("hierarchy corrupted by rejected Reset")
	}
}

// TestCountersIntoZeroAlloc proves the snapshot path no longer
// reallocates Levels once the destination has capacity (the satellite
// fix: sim.measure snapshots every core each measurement).
func TestCountersIntoZeroAlloc(t *testing.T) {
	h, _ := newSmall(t, true)
	for i := 0; i < 500; i++ {
		load(h, units.Duration(i)*3, uint64(i%97)*64)
	}
	var dst Counters
	h.CountersInto(&dst) // first call sizes dst.Levels
	if allocs := testing.AllocsPerRun(100, func() { h.CountersInto(&dst) }); allocs != 0 {
		t.Fatalf("CountersInto allocates %.0f per snapshot, want 0", allocs)
	}
	want := h.Counters()
	h.CountersInto(&dst)
	if !reflect.DeepEqual(dst, want) {
		t.Fatalf("CountersInto mismatch: %+v != %+v", dst, want)
	}
}

func BenchmarkCountersInto(b *testing.B) {
	mem := &fakeMem{latency: 80}
	h, err := New(DefaultConfig(), mem)
	if err != nil {
		b.Fatal(err)
	}
	rng := trace.NewRNG(7)
	for i := 0; i < 10_000; i++ {
		h.Access(units.Duration(i), trace.Ref{Addr: rng.Uint64n(1<<20) * 64}, units.GHzOf(2.5))
	}
	var dst Counters
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.CountersInto(&dst)
	}
}
