// Package simcache is the in-process cache of simulated-machine
// measurements. A measurement run is a pure function of its machine
// configuration, workload, and run length — sim.Machine is seeded
// deterministically — so a run requested twice in one process is
// simulated once and the recorded Measurement replayed.
//
// Keys follow internal/model/hash.go's canonicalization rules: every
// float is rendered in strconv's exact hexadecimal format so distinct
// bit patterns never collide and equal values never diverge through
// decimal rounding, label-only strings (cache level names) are excluded,
// and the canonical string is folded by model.ScenarioKey. Keys name
// the inputs of a run, not the simulator's code, so measurements never
// outlive the process that took them. The cache itself is internal/lru's
// sharded LRU, the same one behind internal/serve's scenario cache.
package simcache

import (
	"fmt"
	"strconv"
	"strings"

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

// Cache is a sharded LRU over measurements, addressed by Key and
// CopyKey.
type Cache = lru.Cache[sim.Measurement]

// Stats is a point-in-time copy of the cache counters.
type Stats = lru.Stats

// New builds a cache holding about capacity measurements (capacity <= 0
// gets a minimal cache).
func New(capacity int) *Cache { return lru.New[sim.Measurement](capacity) }
