package lru

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestShardIndexMatchesFNV32a: the inline shard hash equals hash/fnv's
// FNV-32a over the key bytes, so keys land on the same shards as they
// did through fnv.New32a.
func TestShardIndexMatchesFNV32a(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	keys := []string{"", "k", "probe"}
	for i := 0; i < 1000; i++ {
		b := make([]byte, rng.Intn(40))
		rng.Read(b)
		keys = append(keys, string(b), fmt.Sprintf("%x", rng.Uint64()))
	}
	for _, k := range keys {
		h := fnv.New32a()
		h.Write([]byte(k))
		if got, want := shardIndex(k), int(h.Sum32()&(shardCount-1)); got != want {
			t.Fatalf("shardIndex(%q) = %d, fnv.New32a gives %d", k, got, want)
		}
	}
}

// TestHitPathAllocs: a Do hit allocates nothing.
func TestHitPathAllocs(t *testing.T) {
	ctx := context.Background()
	c := New[any](64)
	fn := func() (any, error) { return 1, nil }
	if _, _, err := c.Do(ctx, "k", fn); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() { c.Do(ctx, "k", fn) }); n != 0 {
		t.Errorf("Do hit: %v allocs/op, want 0", n)
	}
}

func TestCacheErrorsNotCached(t *testing.T) {
	c := New[any](64)
	ctx := context.Background()
	boom := errors.New("boom")
	calls := 0
	fn := func() (any, error) { calls++; return nil, boom }
	if _, _, err := c.Do(ctx, "k", fn); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, _, err := c.Do(ctx, "k", fn); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom on retry", err)
	}
	if calls != 2 {
		t.Errorf("fn ran %d times, want 2 (errors must not stick)", calls)
	}
	if st := c.Stats(); st.Size != 0 {
		t.Errorf("size = %d, want 0", st.Size)
	}
}

func TestCacheEviction(t *testing.T) {
	// Capacity 16 = one entry per shard, so a second distinct key on a
	// shard evicts the first.
	c := New[any](16)
	ctx := context.Background()
	for i := 0; i < 256; i++ {
		key := fmt.Sprintf("key-%d", i)
		if _, _, err := c.Do(ctx, key, func() (any, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Size > 16 {
		t.Errorf("size = %d, want <= 16", st.Size)
	}
	if st.Evictions == 0 {
		t.Error("expected evictions past capacity")
	}
	if st.Evictions != st.Misses-int64(st.Size) {
		t.Errorf("evictions = %d, want misses-size = %d", st.Evictions, st.Misses-int64(st.Size))
	}
}

func TestCacheLRUOrder(t *testing.T) {
	c := New[any](1) // one entry per shard
	// Find two keys on the same shard.
	var a, b string
	shard := shardIndex("probe")
	for i := 0; a == "" || b == ""; i++ {
		k := fmt.Sprintf("k%d", i)
		if shardIndex(k) != shard {
			continue
		}
		if a == "" {
			a = k
		} else {
			b = k
		}
	}
	c.put(a, 1)
	c.put(b, 2) // evicts a (cap 1)
	ctx := context.Background()
	miss := func() (any, error) { return 0, nil }
	if v, cached, err := c.Do(ctx, b, miss); !cached || v != 2 || err != nil {
		t.Errorf("b = (%v, %v, %v), want (2, true, nil)", v, cached, err)
	}
	if _, cached, _ := c.Do(ctx, a, miss); cached {
		t.Error("a should have been evicted")
	}
}

func TestCacheSingleflightCollapse(t *testing.T) {
	c := New[any](64)
	ctx := context.Background()
	const n = 32

	gate := make(chan struct{})
	leaderStarted := make(chan struct{})
	var startOnce sync.Once
	var execs atomic.Int64
	var wg sync.WaitGroup
	var spared atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, cached, err := c.Do(ctx, "shared", func() (any, error) {
				execs.Add(1)
				startOnce.Do(func() { close(leaderStarted) })
				<-gate
				return "solved", nil
			})
			if err != nil || v != "solved" {
				t.Errorf("Do = (%v, %v)", v, err)
			}
			if cached {
				spared.Add(1)
			}
		}()
	}
	// Let the leader start, then release everyone.
	<-leaderStarted
	close(gate)
	wg.Wait()

	if execs.Load() != 1 {
		t.Errorf("fn executed %d times, want 1 (singleflight)", execs.Load())
	}
	if spared.Load() != n-1 {
		t.Errorf("spared = %d, want %d", spared.Load(), n-1)
	}
}
