// Package cache provides a sharded, fixed-capacity LRU cache used by the
// federation center to memoize query answers: one source's local top-k per
// OJSP entry, a whole answer per CJSP entry. Keys are canonical byte
// strings that name what an answer depends on, and a caller checks the
// rest on the value it finds (GetIf), so no entry is ever invalidated in
// place — one that no query names any more ages out of the LRU. Sharding
// by key hash keeps lock contention low when many gateway clients hit the
// cache concurrently. All methods are safe for concurrent use and safe on
// a nil *Cache, which behaves as an always-miss cache.
package cache

import (
	"container/list"
	"hash/maphash"
	"sync"

	"dits/internal/metrics"
)

// numShards is the shard count; a power of two so shard selection is a
// mask. 16 shards keep contention negligible at the gateway's default
// concurrency without bloating the per-cache footprint.
const numShards = 16

// Cache is a sharded LRU mapping string keys to arbitrary values. The
// hit/miss/eviction counters are cache-level lock-free metrics instruments
// so the hot Get path adds nothing to the shard critical sections and the
// same counters feed both Stats and Prometheus exposition (Register).
type Cache struct {
	shards [numShards]shard
	seed   maphash.Seed

	hits      metrics.Counter
	misses    metrics.Counter
	evictions metrics.Counter
}

type shard struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

// entry is one element payload in a shard's LRU list.
type entry struct {
	key   string
	value any
}

// New creates a cache holding up to capacity entries, spread evenly over
// the shards (each shard holds at least one entry). A capacity of 0 or
// less returns nil, the always-miss cache, so callers can treat "cache
// disabled" and "cache enabled" uniformly.
func New(capacity int) *Cache {
	if capacity <= 0 {
		return nil
	}
	perShard := (capacity + numShards - 1) / numShards
	c := &Cache{seed: maphash.MakeSeed()}
	for i := range c.shards {
		c.shards[i].cap = perShard
		c.shards[i].ll = list.New()
		c.shards[i].items = make(map[string]*list.Element)
	}
	return c
}

func (c *Cache) shard(key string) *shard {
	return &c.shards[maphash.String(c.seed, key)&(numShards-1)]
}

// Get returns the cached value for key and promotes it to most recently
// used. The second result reports whether the key was present.
func (c *Cache) Get(key string) (any, bool) { return c.GetIf(key, nil) }

// GetIf is Get for a value the caller may find out of date: valid, when
// not nil, runs on the value found, outside the shard lock, and a value it
// refuses is reported and counted as a miss.
func (c *Cache) GetIf(key string, valid func(any) bool) (any, bool) {
	if c == nil {
		return nil, false
	}
	s := c.shard(key)
	s.mu.Lock()
	el, ok := s.items[key]
	var v any
	if ok {
		s.ll.MoveToFront(el)
		v = el.Value.(*entry).value
	}
	s.mu.Unlock()
	if !ok || valid != nil && !valid(v) {
		c.misses.Inc()
		return nil, false
	}
	c.hits.Inc()
	return v, true
}

// Put stores value under key, evicting the least recently used entry of
// the key's shard when the shard is full.
func (c *Cache) Put(key string, value any) {
	if c == nil {
		return
	}
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		el.Value.(*entry).value = value
		s.ll.MoveToFront(el)
		return
	}
	if s.ll.Len() >= s.cap {
		oldest := s.ll.Back()
		s.ll.Remove(oldest)
		delete(s.items, oldest.Value.(*entry).key)
		c.evictions.Inc()
	}
	s.items[key] = s.ll.PushFront(&entry{key: key, value: value})
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}

// Stats is a snapshot of the cache's counters.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Len       int
	Capacity  int
}

// HitRate returns hits / (hits + misses), or 0 before any lookups.
func (st Stats) HitRate() float64 {
	total := st.Hits + st.Misses
	if total == 0 {
		return 0
	}
	return float64(st.Hits) / float64(total)
}

// Stats returns a snapshot of the cache's counters summed over the shards.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	st := Stats{
		Hits:      c.hits.Value(),
		Misses:    c.misses.Value(),
		Evictions: c.evictions.Value(),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Len += s.ll.Len()
		st.Capacity += s.cap
		s.mu.Unlock()
	}
	return st
}

// Register exposes the cache counters on a metrics registry under the
// dits_cache_* names. Safe on a nil cache (registers nothing).
func (c *Cache) Register(r *metrics.Registry) {
	if c == nil {
		return
	}
	r.RegisterCounter("dits_cache_hits_total", "Result-cache hits", &c.hits)
	r.RegisterCounter("dits_cache_misses_total", "Result-cache misses", &c.misses)
	r.RegisterCounter("dits_cache_evictions_total", "Result-cache LRU evictions", &c.evictions)
	r.RegisterGaugeFunc("dits_cache_entries", "Cached entries", func() float64 {
		return float64(c.Len())
	})
	r.RegisterGaugeFunc("dits_cache_capacity", "Cache capacity", func() float64 {
		return float64(c.Stats().Capacity)
	})
}
