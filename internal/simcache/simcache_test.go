package simcache

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/units"
)

func testConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Threads = 2
	return cfg
}

// TestKeyGolden pins one key literally: the run of a workload on the
// default machine. The fold is internal/model's ScenarioKey, shared with
// memmodeld's scenario cache, so a change to it or to the canonical form
// shows here as a deliberate edit.
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
	c := New(0) // minimal: one entry per shard
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

// TestConcurrentAccess gives the race detector Put/Get interleavings —
// the access pattern the parallel fit grids produce.
func TestConcurrentAccess(t *testing.T) {
	c := New(32)
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
				c.Put(key, sim.Measurement{Workload: key})
			}
		}(g)
	}
	wg.Wait()
}
