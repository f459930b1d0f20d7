package serve

import "repro/internal/lru"

// Cache is the scenario cache: a sharded LRU over solved scenarios
// whose Do collapses concurrent solves of the same key into one.
type Cache = lru.Cache[any]

// CacheStats is a point-in-time copy of the scenario-cache counters.
type CacheStats = lru.Stats

// NewCache builds a scenario cache holding about capacity entries.
func NewCache(capacity int) *Cache { return lru.New[any](capacity) }
