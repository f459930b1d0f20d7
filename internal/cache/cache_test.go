package cache

import (
	"strings"
	"testing"

	"repro/internal/memsys"
	"repro/internal/trace"
	"repro/internal/units"
)

// fakeMem is a deterministic Memory backend with a fixed latency and a
// request log.
type fakeMem struct {
	latency units.Duration
	reads   []uint64
	writes  []uint64
}

func (f *fakeMem) Access(now units.Duration, addr uint64, op memsys.Op) memsys.Result {
	if op == memsys.Read {
		f.reads = append(f.reads, addr)
	} else {
		f.writes = append(f.writes, addr)
	}
	return memsys.Result{Latency: f.latency, Completion: now + f.latency}
}

// smallConfig is a tiny hierarchy for direct observability: L1 4 lines,
// L2 8 lines, LLC 16 lines, direct-ish associativity.
func smallConfig(prefetch bool) Config {
	return Config{
		LineSize: 64,
		Levels: []LevelConfig{
			{Name: "L1", Size: 4 * 64, Assoc: 2, HitLatency: 0},
			{Name: "L2", Size: 8 * 64, Assoc: 2, HitLatency: 5},
			{Name: "LLC", Size: 16 * 64, Assoc: 4, HitLatency: 14},
		},
		Prefetch: PrefetchConfig{Enabled: prefetch, Streams: 4, Depth: 4, TrainHits: 2},
	}
}

func newSmall(t *testing.T, prefetch bool) (*Hierarchy, *fakeMem) {
	t.Helper()
	mem := &fakeMem{latency: 80}
	h, err := New(smallConfig(prefetch), mem)
	if err != nil {
		t.Fatal(err)
	}
	return h, mem
}

const freq = units.Hertz(2.5e9)

func load(h *Hierarchy, now units.Duration, addr uint64) Outcome {
	return h.Access(now, trace.Ref{Addr: addr}, freq)
}

func store(h *Hierarchy, now units.Duration, addr uint64) Outcome {
	return h.Access(now, trace.Ref{Addr: addr, Write: true}, freq)
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.LineSize = 0 },
		func(c *Config) { c.LineSize = 48 }, // not a power of two
		func(c *Config) { c.Levels = nil },
		func(c *Config) { // a RefRec names a level in a byte
			for len(c.Levels) < 256 {
				c.Levels = append(c.Levels, c.Levels[0])
			}
		},
		func(c *Config) { c.Levels[0].Size = 0 },
		func(c *Config) { c.Levels[0].Assoc = 0 },
		func(c *Config) { c.Levels[0].Size = 64; c.Levels[0].Assoc = 4 }, // < 1 set
		func(c *Config) { c.Prefetch.Depth = 0 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: want validation error", i)
		}
	}
	// A set's recency order packs 16 nibbles into one word.
	wide := DefaultConfig()
	wide.Levels[2].Assoc = 17
	if err := wide.Validate(); err == nil || !strings.Contains(err.Error(), "16-way limit") {
		t.Errorf("Assoc 17: got %v, want an error naming the 16-way limit", err)
	}
	wide.Levels[2].Assoc = 16
	if err := wide.Validate(); err != nil {
		t.Errorf("Assoc 16: %v", err)
	}
}

func TestColdMissThenHit(t *testing.T) {
	h, mem := newSmall(t, false)
	out := load(h, 0, 0x1000)
	if !out.DemandMiss || out.HitLevel != 3 {
		t.Fatalf("first access must miss to memory: %+v", out)
	}
	if out.Latency != 80 {
		t.Fatalf("miss latency = %v, want 80", out.Latency)
	}
	if len(mem.reads) != 1 {
		t.Fatalf("memory reads = %d, want 1", len(mem.reads))
	}
	// Second access hits the L1 (inclusive fill).
	out = load(h, 100, 0x1000)
	if out.HitLevel != 0 || out.Latency != 0 {
		t.Fatalf("second access must hit L1 free: %+v", out)
	}
}

func TestHitLatenciesPerLevel(t *testing.T) {
	h, _ := newSmall(t, false)
	// Lines 64, 66, 68, 70: all even → same L1 set (2 sets); they split
	// across L2/LLC sets (4 sets), so 0x1000 (line 64) leaves the
	// two-way L1 but stays in the L2.
	load(h, 0, 0x1000)
	for _, line := range []uint64{66, 68, 70} {
		load(h, units.Duration(line), line*64)
	}
	out := load(h, 1000, 0x1000)
	if out.HitLevel != 1 || out.DemandMiss {
		t.Fatalf("expected an L2 hit, got %+v", out)
	}
	if out.Latency <= 0 {
		t.Fatal("beyond-L1 hit must expose latency")
	}
}

func TestLRUEviction(t *testing.T) {
	// L1: 2 sets × 2 ways. Three lines mapping to one set evict the LRU.
	h, _ := newSmall(t, false)
	a, b, c := uint64(0), uint64(2*64*2), uint64(4*64*2) // set 0 lines (stride = sets×line)
	load(h, 0, a)
	load(h, 1, b)
	load(h, 2, a) // touch a: b becomes LRU
	load(h, 3, c) // evicts b (the LRU) from L1; set is now {a, c}
	out := load(h, 4, b)
	if out.HitLevel == 0 {
		t.Fatal("b should have been evicted from L1")
	}
	// Refilling b evicted the then-LRU (a); c, touched most recently
	// before the refill, must still hit the L1.
	out = load(h, 5, c)
	if out.HitLevel != 0 {
		t.Fatalf("c must still hit L1, got level %d", out.HitLevel)
	}
	out = load(h, 6, a)
	if out.HitLevel == 0 {
		t.Fatal("a must have been evicted when b refilled")
	}
}

func TestWriteAllocateAndWriteback(t *testing.T) {
	h, mem := newSmall(t, false)
	out := store(h, 0, 0x2000)
	if !out.DemandMiss {
		t.Fatal("store miss must write-allocate (fill from memory)")
	}
	if out.Latency != 0 {
		t.Fatal("stores must not stall the core")
	}
	if len(mem.reads) != 1 || len(mem.writes) != 0 {
		t.Fatalf("allocate: reads=%d writes=%d", len(mem.reads), len(mem.writes))
	}
	// Push 16+ distinct lines through to force the dirty line out of the
	// LLC; its eviction must produce exactly one memory write.
	for i := 1; i <= 40; i++ {
		load(h, units.Duration(i*10), 0x2000+uint64(i)*64)
	}
	if len(mem.writes) != 1 {
		t.Fatalf("dirty eviction writes = %d, want 1", len(mem.writes))
	}
	if got := h.Counters().MemWritebacks; got != 1 {
		t.Fatalf("MemWritebacks = %d, want 1", got)
	}
}

func TestStoreHitDirtiesAllLevels(t *testing.T) {
	// A load fills all levels clean; a store hit must mark the line
	// Modified everywhere so the eventual LLC eviction writes back even
	// though the L1 copy was the one written.
	h, mem := newSmall(t, false)
	load(h, 0, 0x3000)
	store(h, 1, 0x3000)
	for i := 1; i <= 40; i++ {
		load(h, units.Duration(i*10), 0x3000+uint64(i)*64)
	}
	if len(mem.writes) == 0 {
		t.Fatal("store-hit dirty line must eventually write back from the LLC")
	}
}

func TestCleanEvictionNoWriteback(t *testing.T) {
	h, mem := newSmall(t, false)
	for i := 0; i <= 40; i++ {
		load(h, units.Duration(i*10), uint64(i)*64)
	}
	if len(mem.writes) != 0 {
		t.Fatalf("clean evictions must not write: %d writes", len(mem.writes))
	}
}

func TestNonTemporalStore(t *testing.T) {
	h, mem := newSmall(t, false)
	load(h, 0, 0x4000) // cache it first
	out := h.Access(1, trace.Ref{Addr: 0x4000, Write: true, NonTemporal: true}, freq)
	if out.Latency != 0 {
		t.Fatal("NT store must not stall")
	}
	if len(mem.writes) != 1 {
		t.Fatalf("NT store memory writes = %d, want 1", len(mem.writes))
	}
	if got := h.Counters().MemNTWrites; got != 1 {
		t.Fatalf("MemNTWrites = %d, want 1", got)
	}
	// The cached copy must have been invalidated: next load misses.
	out = load(h, 2, 0x4000)
	if !out.DemandMiss {
		t.Fatal("NT store must invalidate cached copies")
	}
}

func TestNTStoreCountsInWBR(t *testing.T) {
	h, _ := newSmall(t, false)
	load(h, 0, 0)
	h.Access(1, trace.Ref{Addr: 0x10000, Write: true, NonTemporal: true}, freq)
	h.Access(2, trace.Ref{Addr: 0x20000, Write: true, NonTemporal: true}, freq)
	// WBR = (writebacks + NT) / (demand + prefetch reads) = 2/1 — the
	// NITS mechanism for WBR > 100% (§V.G).
	if got := h.Counters().WBR(); got != 2 {
		t.Fatalf("WBR = %v, want 2.0", got)
	}
}

func TestPrefetcherCoversSequentialStream(t *testing.T) {
	h, _ := newSmall(t, true)
	misses := 0
	for i := 0; i < 32; i++ {
		out := load(h, units.Duration(i*100), uint64(i)*64)
		if out.DemandMiss {
			misses++
		}
	}
	// Training takes the first couple of lines; after that the stream
	// must be covered by prefetch fills.
	if misses > 6 {
		t.Fatalf("sequential stream demand misses = %d, want ≤6 of 32", misses)
	}
	ctr := h.Counters()
	if ctr.PrefIssued == 0 || ctr.PrefHits == 0 {
		t.Fatalf("prefetcher idle: issued=%d hits=%d", ctr.PrefIssued, ctr.PrefHits)
	}
}

func TestPrefetcherDescendingStream(t *testing.T) {
	h, _ := newSmall(t, true)
	misses := 0
	base := uint64(40)
	for i := 0; i < 32; i++ {
		out := load(h, units.Duration(i*100), (base-uint64(i))*64)
		if out.DemandMiss {
			misses++
		}
	}
	if misses > 8 {
		t.Fatalf("descending stream demand misses = %d, want ≤8", misses)
	}
}

func TestPrefetcherIgnoresRandomAccess(t *testing.T) {
	h, _ := newSmall(t, true)
	// Pseudo-random line addresses with no sequential runs.
	x := uint64(12345)
	for i := 0; i < 64; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		load(h, units.Duration(i*100), (x>>20)%(1<<20)*64)
	}
	ctr := h.Counters()
	if ctr.PrefIssued > 8 {
		t.Fatalf("random access should not train streams: issued=%d", ctr.PrefIssued)
	}
}

func TestPrefetchStopsAtPageBoundary(t *testing.T) {
	h, mem := newSmall(t, true)
	// Train right below a 4 KiB page boundary (line 63 of page 0).
	for i := 58; i <= 63; i++ {
		load(h, units.Duration(i*100), uint64(i)*64)
	}
	for _, addr := range mem.reads {
		if addr/64 >= 64 {
			t.Fatalf("prefetch crossed the page boundary: line %d", addr/64)
		}
	}
}

func TestLatePrefetchExposesResidualLatency(t *testing.T) {
	h, _ := newSmall(t, true)
	// Train a stream, then demand the just-prefetched line immediately:
	// its data is still in flight, so some latency is exposed.
	load(h, 0, 0)
	load(h, 1, 64)
	load(h, 2, 128) // triggers prefetch of lines 3..6 at t=2
	out := load(h, 3, 192)
	if !out.PrefetchHit {
		t.Fatalf("expected a prefetch hit, got %+v", out)
	}
	// Residual in-flight latency (<80ns) plus the small exposed hit cost.
	if out.Latency <= 0 || out.Latency >= 85 {
		t.Fatalf("late prefetch latency = %v, want in (0, 85)", out.Latency)
	}
	if h.Counters().PrefLate == 0 {
		t.Fatal("PrefLate must count")
	}
}

func TestTimelyPrefetchIsFree(t *testing.T) {
	h, _ := newSmall(t, true)
	load(h, 0, 0)
	load(h, 1, 64)
	load(h, 2, 128)
	// Long after the prefetch completes, the demand access costs only
	// the exposed L2-hit latency (prefetch fills promote to the L2).
	out := load(h, 10_000, 192)
	if !out.PrefetchHit {
		t.Fatalf("expected prefetch hit: %+v", out)
	}
	if out.Latency.Nanoseconds() > 3 {
		t.Fatalf("timely prefetch latency = %v, want ≤ L2 hit cost", out.Latency)
	}
}

func TestMPIIncludesPrefetch(t *testing.T) {
	h, _ := newSmall(t, true)
	for i := 0; i < 16; i++ {
		load(h, units.Duration(i*1000), uint64(i)*64)
	}
	ctr := h.Counters()
	total := ctr.MemDemandReads + ctr.MemPrefReads
	// Every one of the 16 lines came from memory exactly once, whether
	// by demand or prefetch ("either demand or prefetch", §IV.B)...
	if total < 16 {
		t.Fatalf("total fills = %d, want ≥16", total)
	}
	// ...and MPI reflects the sum.
	if got := ctr.MPI(16000); got < float64(total)/16000*0.99 {
		t.Fatalf("MPI = %v inconsistent with fills %d", got, total)
	}
}

func TestCountersLevelAccounting(t *testing.T) {
	h, _ := newSmall(t, false)
	for i := 0; i < 8; i++ {
		load(h, units.Duration(i*10), uint64(i)*64)
	}
	ctr := h.Counters()
	l1 := ctr.Levels[0]
	if l1.Accesses != 8 {
		t.Fatalf("L1 accesses = %d, want 8", l1.Accesses)
	}
	if l1.Hits != 0 {
		t.Fatalf("L1 hits = %d, want 0 (all cold)", l1.Hits)
	}
	if ctr.MemDemandReads != 8 {
		t.Fatalf("demand reads = %d, want 8", ctr.MemDemandReads)
	}
}

func TestAvgMissPenalty(t *testing.T) {
	h, _ := newSmall(t, false)
	load(h, 0, 0)
	load(h, 10, 4096)
	if got := h.Counters().AvgMissPenalty(); got != 80 {
		t.Fatalf("AvgMissPenalty = %v, want 80", got)
	}
	var empty Counters
	if empty.AvgMissPenalty() != 0 {
		t.Fatal("empty counters MP must be 0")
	}
}

func TestStoresDoNotAccrueMissPenalty(t *testing.T) {
	h, _ := newSmall(t, false)
	store(h, 0, 0x6000)
	ctr := h.Counters()
	if ctr.DemandLoadMisses != 0 || ctr.DemandMissLatency != 0 {
		t.Fatal("store misses must not count as load misses")
	}
	if ctr.MemDemandReads != 1 {
		t.Fatal("store miss still fills from memory")
	}
}

func TestWBRZeroWithoutTraffic(t *testing.T) {
	var c Counters
	if c.WBR() != 0 {
		t.Fatal("WBR of empty counters must be 0")
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	cfg := smallConfig(false)
	cfg.LineSize = 0
	if _, err := New(cfg, &fakeMem{}); err == nil {
		t.Fatal("want error")
	}
}

func TestDefaultConfigGeometry(t *testing.T) {
	cfg := DefaultConfig()
	// The 1:10 scale model: L1 32KiB, L2 64KiB, LLC 256KiB per thread.
	if cfg.Levels[0].Size != 32*units.KiB || cfg.Levels[2].Size != 256*units.KiB {
		t.Fatalf("unexpected geometry: %+v", cfg.Levels)
	}
	h, err := New(cfg, &fakeMem{latency: 80})
	if err != nil {
		t.Fatal(err)
	}
	if h.cfg.LineSize != 64 {
		t.Fatal("line size")
	}
}
