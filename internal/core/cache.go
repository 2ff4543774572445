package core

import (
	"container/list"
	"encoding/binary"
	"math"
	"sync"

	"crowdselect/internal/text"
)

// projectionCache memoizes Project results by bag fingerprint for the
// serving path: online platforms see the same (or near-duplicate)
// tasks arrive repeatedly, and a projection is a conjugate-gradient
// solve — orders of magnitude more expensive than a map lookup.
//
// Entries carry the ConcurrentModel epoch — the version of the category
// parameters (MuC, SigmaC, LogBeta), the only model state a projection
// reads — they were computed under; a lookup whose epoch no longer
// matches is treated as a miss and evicted, so Replace or
// InvalidateProjections can never serve a stale category. Skill updates
// do not move the epoch and so evict nothing. Categories are cloned
// both on the way in and on the way out: no caller ever holds a
// reference into the cache.
type projectionCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
	hits     uint64
	misses   uint64
}

type projectionEntry struct {
	key   string
	epoch uint64
	cat   TaskCategory // private clone
}

func newProjectionCache(capacity int) *projectionCache {
	return &projectionCache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
}

// get returns the cached category for key if it was stored under the
// same epoch. A stale entry is evicted and counted as a miss.
func (c *projectionCache) get(key string, epoch uint64) (TaskCategory, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.capacity <= 0 {
		// A disabled cache is not a thrashing cache: counting these
		// lookups as misses would surface a 0% hit rate in metrics that
		// is indistinguishable from real churn. Leave the counters
		// untouched; stats() reports Disabled instead.
		return TaskCategory{}, false
	}
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return TaskCategory{}, false
	}
	ent := el.Value.(*projectionEntry)
	if ent.epoch != epoch {
		c.ll.Remove(el)
		delete(c.items, key)
		c.misses++
		return TaskCategory{}, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	return ent.cat.clone(), true
}

// put stores a clone of cat under (key, epoch), evicting from the LRU
// tail once the capacity is reached.
func (c *projectionCache) put(key string, epoch uint64, cat TaskCategory) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.capacity <= 0 {
		return
	}
	if el, ok := c.items[key]; ok {
		el.Value.(*projectionEntry).epoch = epoch
		el.Value.(*projectionEntry).cat = cat.clone()
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&projectionEntry{key: key, epoch: epoch, cat: cat.clone()})
	for c.ll.Len() > c.capacity {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*projectionEntry).key)
	}
}

// resize changes the capacity; n <= 0 disables caching and drops every
// entry. Shrinking evicts from the LRU tail.
func (c *projectionCache) resize(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.capacity = n
	if n <= 0 {
		c.ll.Init()
		c.items = make(map[string]*list.Element)
		return
	}
	for c.ll.Len() > n {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*projectionEntry).key)
	}
}

// ProjectionCacheStats is a point-in-time view of the projection
// cache's effectiveness, surfaced for metrics and tests.
type ProjectionCacheStats struct {
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	Entries  int    `json:"entries"`
	Capacity int    `json:"capacity"`
	// Disabled reports a capacity <= 0 cache. While disabled, lookups
	// are not counted, so Hits/Misses describe only the periods the
	// cache was live.
	Disabled bool `json:"disabled,omitempty"`
}

func (c *projectionCache) stats() ProjectionCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ProjectionCacheStats{
		Hits:     c.hits,
		Misses:   c.misses,
		Entries:  c.ll.Len(),
		Capacity: c.capacity,
		Disabled: c.capacity <= 0,
	}
}

// bagKey is the exact fingerprint of a bag: the (id, count) pairs in
// their canonical sorted order, binary-packed. Two bags share a key
// iff they are the same multiset of terms, so collisions are
// impossible by construction.
func bagKey(b text.Bag) string {
	buf := make([]byte, 16*len(b.IDs))
	for i, id := range b.IDs {
		binary.LittleEndian.PutUint64(buf[16*i:], uint64(id))
		binary.LittleEndian.PutUint64(buf[16*i+8:], math.Float64bits(b.Counts[i]))
	}
	return string(buf)
}

// clone deep-copies a category so cache internals and callers never
// share vectors.
func (t TaskCategory) clone() TaskCategory {
	return TaskCategory{Lambda: t.Lambda.Clone(), Nu2: t.Nu2.Clone()}
}
