// Package lru is the one sharded LRU behind the repo's content-addressed
// caches: memmodeld's scenario cache (internal/serve) and the
// measurement cache (internal/simcache). Sixteen shards, each a mutex
// over a container/list recency list and a key map, keep the LRU
// bookkeeping off a single lock under concurrent load. Do adds
// singleflight collapsing on top, through a flight table that is
// touched only on misses.
package lru

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// shardCount is a power of two so the key hash maps onto a shard with a
// mask.
const shardCount = 16

// Cache is a sharded LRU of V values keyed by string. All methods are
// safe for concurrent use. The zero value is not usable; call New.
type Cache[V any] struct {
	shards [shardCount]shard

	fmu    sync.Mutex
	flight map[string]*call[V]

	hits      atomic.Int64 // served from the LRU
	shared    atomic.Int64 // collapsed onto another caller's flight
	misses    atomic.Int64 // Get misses and Do's cold executions
	evictions atomic.Int64
}

type shard struct {
	mu    sync.Mutex
	cap   int
	ll    list.List // front = most recently used
	items map[string]*list.Element
}

type entry[V any] struct {
	key string
	val V
}

type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// New builds a cache holding about capacity entries across all shards
// (at least one per shard; capacity <= 0 gets a minimal cache that
// still collapses concurrent identical calls of Do).
func New[V any](capacity int) *Cache[V] {
	perShard := max((capacity+shardCount-1)/shardCount, 1)
	c := &Cache[V]{flight: map[string]*call[V]{}}
	for i := range c.shards {
		c.shards[i] = shard{cap: perShard, items: map[string]*list.Element{}}
	}
	return c
}

// shardIndex is FNV-32a over the key's bytes, masked to a shard.
func shardIndex(key string) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h & (shardCount - 1))
}

// lookup returns the cached value and bumps its recency, uncounted.
func (c *Cache[V]) lookup(key string) (V, bool) {
	s := &c.shards[shardIndex(key)]
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	s.ll.MoveToFront(el)
	return el.Value.(*entry[V]).val, true
}

// Get returns the value stored under key, counting a hit or a miss.
func (c *Cache[V]) Get(key string) (V, bool) {
	v, ok := c.lookup(key)
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return v, ok
}

// Put stores val under key as the most recently used entry, evicting
// from the tail of its shard past capacity.
func (c *Cache[V]) Put(key string, val V) {
	s := &c.shards[shardIndex(key)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		el.Value.(*entry[V]).val = val
		s.ll.MoveToFront(el)
		return
	}
	s.items[key] = s.ll.PushFront(&entry[V]{key: key, val: val})
	for s.ll.Len() > s.cap {
		tail := s.ll.Back()
		s.ll.Remove(tail)
		delete(s.items, tail.Value.(*entry[V]).key)
		c.evictions.Add(1)
	}
}

// Do returns the value for key, either from the LRU, by joining an
// in-flight call of the same key, or by running fn itself and caching
// the result. The bool reports whether the caller was spared running fn
// (LRU hit or collapsed flight). Errors are never cached. A follower
// returns when its own ctx ends, and otherwise takes the leader's
// result — except when the leader failed with a context error: that is
// the leader's cancellation, not the key's, so a live follower retries
// (it leads, or joins a newer flight).
func (c *Cache[V]) Do(ctx context.Context, key string, fn func() (V, error)) (V, bool, error) {
	var zero V
	for {
		if v, ok := c.lookup(key); ok {
			c.hits.Add(1)
			return v, true, nil
		}
		c.fmu.Lock()
		if f, ok := c.flight[key]; ok {
			c.fmu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return zero, false, ctx.Err()
			}
			if f.err == nil {
				c.shared.Add(1)
				return f.val, true, nil
			}
			if ctx.Err() == nil && (errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded)) {
				continue
			}
			return zero, false, f.err
		}
		// Re-check the LRU under the flight lock: a leader that finished
		// between the first lookup and here has already published its
		// value (Put precedes the flight entry's deletion), so a key is
		// run exactly once.
		if v, ok := c.lookup(key); ok {
			c.fmu.Unlock()
			c.hits.Add(1)
			return v, true, nil
		}
		f := &call[V]{done: make(chan struct{})}
		c.flight[key] = f
		c.fmu.Unlock()

		c.misses.Add(1)
		f.val, f.err = fn()
		if f.err == nil {
			c.Put(key, f.val)
		}
		c.fmu.Lock()
		delete(c.flight, key)
		c.fmu.Unlock()
		close(f.done)
		return f.val, false, f.err
	}
}

// Stats is a point-in-time copy of the cache counters.
type Stats struct {
	Hits      int64 // LRU hits
	Shared    int64 // singleflight-collapsed calls of Do
	Misses    int64 // Get misses and cold executions in Do
	Evictions int64
	Size      int // entries currently held
}

// HitRatio is (hits + shared) / total lookups, the fraction of lookups
// spared a cold execution.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Shared + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.Shared) / float64(total)
}

// Stats snapshots the counters and current size.
func (c *Cache[V]) Stats() Stats {
	st := Stats{
		Hits:      c.hits.Load(),
		Shared:    c.shared.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Size += s.ll.Len()
		s.mu.Unlock()
	}
	return st
}
