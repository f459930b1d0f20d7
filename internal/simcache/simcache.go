// Package simcache is a content-addressed cache for simulated-machine
// measurements. A measurement run is a pure function of its machine
// configuration, workload, and run length — sim.Machine is seeded
// deterministically — so repeated repro and bench invocations that
// request the same run can skip the (multi-second at full scale)
// simulation entirely and replay the recorded Measurement.
//
// Keys follow internal/model/hash.go's canonicalization rules: every
// float is rendered in strconv's exact hexadecimal format so distinct
// bit patterns never collide and equal values never diverge through
// decimal rounding, label-only strings (cache level names) are excluded,
// and the canonical string is folded by model.ScenarioKey. The
// in-process layer is internal/lru's sharded LRU, the same one behind
// internal/serve's scenario cache; an optional disk layer under
// results/simcache/ persists measurements across processes as JSON
// (bit-exact for every field a consumer can observe — see
// memsys.Counters' custom JSON).
package simcache

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/lru"
	"repro/internal/model"
	"repro/internal/sim"
)

// CanonicalConfig serializes every behavior-bearing field of a machine
// configuration. Cache level names are labels, not behavior, and are
// excluded (the geometry that stands behind them is not).
func CanonicalConfig(cfg sim.Config) string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim{threads=%d,seed=%d,sample=%s",
		cfg.Threads, cfg.Seed, model.HexFloat(float64(cfg.SampleInterval)))
	fmt.Fprintf(&b, "|core{freq=%s,mshrs=%d,overlap=%s}",
		model.HexFloat(float64(cfg.Core.Freq)), cfg.Core.MSHRs, model.HexFloat(cfg.Core.OverlapCM))
	fmt.Fprintf(&b, "|cache{ls=%s,levels=[", model.HexFloat(float64(cfg.Cache.LineSize)))
	for i, l := range cfg.Cache.Levels {
		if i > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, "size=%s,assoc=%d,hitlat=%s",
			model.HexFloat(float64(l.Size)), l.Assoc, model.HexFloat(float64(l.HitLatency)))
	}
	pf := cfg.Cache.Prefetch
	fmt.Fprintf(&b, "],pf{on=%t,streams=%d,depth=%d,train=%d}}",
		pf.Enabled, pf.Streams, pf.Depth, pf.TrainHits)
	m := cfg.Mem
	fmt.Fprintf(&b, "|mem{ch=%d,grade=%d,comp=%s,ls=%s,overhead=%s,banks=%d,bankcy=%s,turn=%s}}",
		m.Channels, int(m.Grade), model.HexFloat(float64(m.Compulsory)),
		model.HexFloat(float64(m.LineSize)), model.HexFloat(float64(m.RequestOverhead)), m.BanksPerChannel,
		model.HexFloat(float64(m.BankCycle)), model.HexFloat(float64(m.TurnaroundPenalty)))
	return b.String()
}

// Key addresses one measurement run: the canonical machine configuration,
// the workload generating the trace, and the run length (warm-up and
// measured aggregate instructions — the two Scale fields that change what
// a run measures; scheduling knobs such as worker counts do not and are
// excluded).
func Key(cfg sim.Config, workload string, warmupInstr, measureInstr uint64) string {
	return model.ScenarioKey(CanonicalConfig(cfg), workload,
		strconv.FormatUint(warmupInstr, 10), strconv.FormatUint(measureInstr, 10))
}

// CopyKey addresses a measurement taken on a copy of a warm machine:
// the source warmed warmupInstr aggregate instructions at base, and the
// copy was retimed to cfg's core speed and memory grade, re-warmed
// rewarmInstr and measured measureInstr. A copy does not depend on which
// other points share its base or in what order they run, so the key
// names no grid position; it never equals a cold run's Key.
func CopyKey(cfg, base sim.Config, workload string, warmupInstr, rewarmInstr, measureInstr uint64) string {
	return model.ScenarioKey(CanonicalConfig(cfg), workload,
		strconv.FormatUint(warmupInstr, 10), strconv.FormatUint(measureInstr, 10),
		"copy", CanonicalConfig(base), strconv.FormatUint(rewarmInstr, 10))
}

// Cache is an in-process LRU over measurements with an optional disk
// layer. All methods are safe for concurrent use. The zero value is not
// usable; call New.
type Cache struct {
	mem      *lru.Cache[sim.Measurement]
	disk     *diskLayer   // nil without a disk layer
	diskHits atomic.Int64 // served from the disk layer (and promoted)
}

// New builds a cache holding about capacity measurements in process
// (capacity <= 0 gets a minimal cache). dir, when non-empty, enables the
// disk layer: measurements are also written there as <key>.json and
// survive the process.
func New(capacity int, dir string) (*Cache, error) {
	c := &Cache{mem: lru.New[sim.Measurement](capacity)}
	if dir != "" {
		d, err := newDiskLayer(dir)
		if err != nil {
			return nil, err
		}
		c.disk = d
	}
	return c, nil
}

// Get returns the measurement stored under key. A disk-layer hit is
// promoted into the in-process LRU so the JSON decode is paid once.
func (c *Cache) Get(key string) (sim.Measurement, bool) {
	if m, ok := c.mem.Get(key); ok {
		return m, true
	}
	if c.disk != nil {
		if m, ok := c.disk.load(key); ok {
			c.mem.Put(key, m)
			c.diskHits.Add(1)
			return m, true
		}
	}
	return sim.Measurement{}, false
}

// Put stores a measurement under key in the LRU and, when enabled, the
// disk layer. Disk write failures are reported but leave the in-process
// entry in place — a broken disk degrades to a memory-only cache.
func (c *Cache) Put(key string, m sim.Measurement) error {
	c.mem.Put(key, m)
	if c.disk != nil {
		return c.disk.store(key, m)
	}
	return nil
}

// Stats is a point-in-time copy of the cache counters.
type Stats struct {
	Hits      int64 // in-process LRU hits
	DiskHits  int64 // disk-layer hits (promoted to the LRU)
	Misses    int64
	Evictions int64
	Size      int // entries currently held in process
}

// HitRatio is (memory + disk hits) / total lookups.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.DiskHits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.DiskHits) / float64(total)
}

// Stats snapshots the counters and current size. Every disk hit follows
// one in-process miss of the same Get, so the misses of the whole cache
// are the LRU's less the disk hits (loaded first, so that difference
// never goes negative under concurrent lookups).
func (c *Cache) Stats() Stats {
	diskHits := c.diskHits.Load()
	st := c.mem.Stats()
	return Stats{
		Hits:      st.Hits,
		DiskHits:  diskHits,
		Misses:    st.Misses - diskHits,
		Evictions: st.Evictions,
		Size:      st.Size,
	}
}
