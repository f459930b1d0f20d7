package simcache

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/units"
)

// scanFactory is a minimal deterministic workload for producing real
// measurements (mirrors the sim package's test workload).
type scanFactory struct{}

type scanGen struct {
	stream uint64
	base   uint64
}

func (scanFactory) NewGenerator(thread int, seed uint64) trace.Generator {
	return &scanGen{base: uint64(thread+1) << 36}
}

func (g *scanGen) NextBlock(b *trace.Block) {
	b.Instructions = 500
	b.BaseCPI = 1
	b.Chains = 4
	for i := 0; i < 2; i++ {
		b.AddRef(g.base+(g.stream%(8<<20/64))*64, false)
		g.stream++
	}
}

func testConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Threads = 2
	return cfg
}

// TestKeyGolden pins one key literally: the full-scale run of a
// workload on the default machine. Keys name the on-disk entries
// (<key>.json), so any change to the canonical form or the fold
// orphans every recorded measurement.
func TestKeyGolden(t *testing.T) {
	const want = "1361df2c15548368"
	if got := Key(sim.DefaultConfig(), "columnstore", 30_000_000, 12_000_000); got != want {
		t.Fatalf("Key = %s, want %s", got, want)
	}
}

func TestKeySensitivity(t *testing.T) {
	base := testConfig()
	if Key(base, "w", 1000, 2000) != Key(testConfig(), "w", 1000, 2000) {
		t.Fatal("identical inputs produced different keys")
	}
	mutations := map[string]func() string{
		"seed": func() string {
			cfg := testConfig()
			cfg.Seed = 7
			return Key(cfg, "w", 1000, 2000)
		},
		"threads": func() string {
			cfg := testConfig()
			cfg.Threads = 3
			return Key(cfg, "w", 1000, 2000)
		},
		"core freq": func() string {
			cfg := testConfig()
			cfg.Core.Freq = units.GHzOf(2.1)
			return Key(cfg, "w", 1000, 2000)
		},
		"prefetch depth": func() string {
			cfg := testConfig()
			cfg.Cache.Prefetch.Depth++
			return Key(cfg, "w", 1000, 2000)
		},
		"prefetch off": func() string {
			cfg := testConfig()
			cfg.Cache.Prefetch.Enabled = false
			return Key(cfg, "w", 1000, 2000)
		},
		"mem channels": func() string {
			cfg := testConfig()
			cfg.Mem.Channels++
			return Key(cfg, "w", 1000, 2000)
		},
		"sample interval": func() string {
			cfg := testConfig()
			cfg.SampleInterval = units.Microsecond
			return Key(cfg, "w", 1000, 2000)
		},
		"workload": func() string { return Key(testConfig(), "w2", 1000, 2000) },
		"warmup":   func() string { return Key(testConfig(), "w", 1001, 2000) },
		"measure":  func() string { return Key(testConfig(), "w", 1000, 2001) },
	}
	seen := map[string]string{Key(base, "w", 1000, 2000): "base"}
	for name, mutate := range mutations {
		k := mutate()
		if prev, dup := seen[k]; dup {
			t.Errorf("mutation %q collides with %q", name, prev)
		}
		seen[k] = name
	}
}

func TestKeyIgnoresLevelNames(t *testing.T) {
	a := testConfig()
	b := testConfig()
	b.Cache.Levels[0].Name = "renamed-l1"
	if Key(a, "w", 1, 2) != Key(b, "w", 1, 2) {
		t.Fatal("cache level names are labels and must not change the key")
	}
}

func TestLRUEvictionAndStats(t *testing.T) {
	c, err := New(0, "") // minimal: one entry per shard
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%d", i)
		c.Put(key, sim.Measurement{Workload: key})
	}
	st := c.Stats()
	if st.Size > 16 { // one entry in each of the LRU's 16 shards
		t.Fatalf("size %d exceeds capacity 16", st.Size)
	}
	if st.Evictions != int64(n-st.Size) {
		t.Fatalf("evictions = %d, want %d", st.Evictions, int64(n-st.Size))
	}
	hits, misses := 0, 0
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%d", i)
		if m, ok := c.Get(key); ok {
			if m.Workload != key {
				t.Fatalf("key %q returned measurement %q", key, m.Workload)
			}
			hits++
		} else {
			misses++
		}
	}
	if hits != st.Size || misses != n-st.Size {
		t.Fatalf("hits/misses = %d/%d, want %d/%d", hits, misses, st.Size, n-st.Size)
	}
}

func TestDiskRoundTripBitExact(t *testing.T) {
	cfg := testConfig()
	cfg.SampleInterval = 2 * units.Microsecond // exercise the Series fields too
	m, err := sim.New(cfg, "scan", scanFactory{})
	if err != nil {
		t.Fatal(err)
	}
	meas, err := m.Run(context.Background(), 50_000, 400_000)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	key := Key(cfg, "scan", 50_000, 400_000)
	c1, err := New(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Put(key, meas); err != nil {
		t.Fatal(err)
	}

	// A fresh cache over the same directory models a new process: the
	// lookup must be served by the disk layer, bit-exactly (including
	// memsys.Counters' unexported fields, covered by its custom JSON).
	c2, err := New(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get(key)
	if !ok {
		t.Fatal("disk layer missed a stored entry")
	}
	if !reflect.DeepEqual(got, meas) {
		t.Fatalf("disk round trip drifted:\n got %+v\nwant %+v", got, meas)
	}
	if st := c2.Stats(); st.DiskHits != 1 || st.Hits != 0 {
		t.Fatalf("stats after disk hit: %+v", st)
	}
	// The disk hit promotes the entry; the next lookup is in-process.
	if _, ok := c2.Get(key); !ok {
		t.Fatal("promoted entry missing from the LRU")
	}
	if st := c2.Stats(); st.Hits != 1 {
		t.Fatalf("stats after promotion: %+v", st)
	}
}

func TestDiskVersionMismatchAndCorruptionAreMisses(t *testing.T) {
	dir := t.TempDir()
	c, err := New(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	const key = "abcd1234"
	if err := c.Put(key, sim.Measurement{Workload: "w"}); err != nil {
		t.Fatal(err)
	}
	path := c.disk.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var ent diskEntry
	if err := json.Unmarshal(data, &ent); err != nil {
		t.Fatal(err)
	}
	ent.Version = diskVersion + 1
	stale, err := json.Marshal(ent)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, stale, 0o644); err != nil {
		t.Fatal(err)
	}
	fresh, err := New(8, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := fresh.Get(key); ok {
		t.Fatal("version-mismatched entry must be a miss")
	}
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := fresh.Get(key); ok {
		t.Fatal("corrupt entry must be a miss")
	}
	if st := fresh.Stats(); st.Misses != 2 || st.Hits != 0 || st.DiskHits != 0 {
		t.Fatalf("stats after two bad-entry lookups: %+v", st)
	}
}

// TestConcurrentAccess gives the race detector Put/Get interleavings —
// the access pattern the parallel fit grids produce.
func TestConcurrentAccess(t *testing.T) {
	c, err := New(32, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("key-%d", i%10)
				if m, ok := c.Get(key); ok && m.Workload != key {
					t.Errorf("key %q returned %q", key, m.Workload)
					return
				}
				if err := c.Put(key, sim.Measurement{Workload: key}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
