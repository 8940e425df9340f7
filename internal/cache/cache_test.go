package cache

import (
	"fmt"
	"sync"
	"testing"
)

func TestGetPut(t *testing.T) {
	c := New(64)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache hit")
	}
	c.Put("a", 1)
	c.Put("b", "two")
	if v, ok := c.Get("a"); !ok || v.(int) != 1 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	if v, ok := c.Get("b"); !ok || v.(string) != "two" {
		t.Fatalf("Get(b) = %v, %v", v, ok)
	}
	c.Put("a", 10) // overwrite
	if v, _ := c.Get("a"); v.(int) != 10 {
		t.Fatalf("overwrite lost: %v", v)
	}
	st := c.Stats()
	if st.Hits != 3 || st.Misses != 1 || st.Len != 2 {
		t.Errorf("stats = %+v", st)
	}
	if got := st.HitRate(); got != 0.75 {
		t.Errorf("HitRate = %v, want 0.75", got)
	}
}

func TestLRUEviction(t *testing.T) {
	// Capacity 16 over 16 shards = 1 entry per shard: inserting two keys
	// that land in the same shard must evict the older one.
	c := New(16)
	keys := make([]string, 0, 64)
	for i := 0; i < 64; i++ {
		keys = append(keys, fmt.Sprintf("k%d", i))
	}
	var a, b string
	for i := 0; i < len(keys) && b == ""; i++ {
		for j := i + 1; j < len(keys); j++ {
			if c.shard(keys[i]) == c.shard(keys[j]) {
				a, b = keys[i], keys[j]
				break
			}
		}
	}
	if b == "" {
		t.Fatal("no shard collision among 64 keys")
	}
	c.Put(a, 1)
	c.Put(b, 2)
	if _, ok := c.Get(a); ok {
		t.Error("LRU entry not evicted")
	}
	if v, ok := c.Get(b); !ok || v.(int) != 2 {
		t.Error("newest entry evicted")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", st.Evictions)
	}
}

func TestRecencyOrder(t *testing.T) {
	// One shard of capacity 2: touching the older entry must flip the
	// eviction victim. Shard assignment is per-cache (seeded), so the
	// same-shard keys are found with the cache under test itself.
	c2 := New(2 * numShards) // 2 per shard
	var same []string
	for i := 0; len(same) < 3 && i < 4096; i++ {
		k := fmt.Sprintf("k%d", i)
		if len(same) == 0 || c2.shard(k) == c2.shard(same[0]) {
			same = append(same, k)
		}
	}
	if len(same) < 3 {
		t.Fatal("could not find 3 same-shard keys")
	}
	c2.Put(same[0], 0)
	c2.Put(same[1], 1)
	c2.Get(same[0]) // promote oldest
	c2.Put(same[2], 2)
	if _, ok := c2.Get(same[1]); ok {
		t.Error("least recently used entry survived")
	}
	if _, ok := c2.Get(same[0]); !ok {
		t.Error("recently used entry evicted")
	}
}

func TestNilCache(t *testing.T) {
	var c *Cache
	if c != New(0) {
		t.Error("New(0) should be the nil always-miss cache")
	}
	c.Put("a", 1) // must not panic
	if _, ok := c.Get("a"); ok {
		t.Error("nil cache hit")
	}
	if c.Len() != 0 || c.Stats() != (Stats{}) {
		t.Error("nil cache not empty")
	}
}

// TestConcurrentAccess is the -race stress test: readers and writers on
// overlapping keys, past capacity.
func TestConcurrentAccess(t *testing.T) {
	c := New(128)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", i%200)
				c.Put(k, i)
				if v, ok := c.Get(k); ok {
					if _, isInt := v.(int); !isInt {
						t.Errorf("corrupt value %v", v)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 128+numShards {
		t.Errorf("Len = %d exceeds capacity", c.Len())
	}
}
