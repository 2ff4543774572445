package core

import (
	"encoding/binary"
	"math"
	"sync"

	"crowdselect/internal/text"
)

// projectionCache memoizes Project results by bag fingerprint for the
// serving path: online platforms see the same (or near-duplicate)
// tasks arrive repeatedly, and a projection is six rounds of a Newton
// solve — orders of magnitude more expensive than a map lookup.
//
// Entries carry the ConcurrentModel epoch — the version of the category
// parameters (MuC, SigmaC, LogBeta), the only model state a projection
// reads — they were computed under; a lookup whose epoch no longer
// matches is treated as a miss and evicted, so a Replace can never
// serve a stale category. Skill updates
// do not move the epoch and so evict nothing. Categories are copied
// both on the way in and on the way out, under the lock, into vectors
// the caller owns: no caller ever holds a reference into the cache,
// which is what lets an insert at capacity overwrite the entry it
// evicts — vectors included — instead of allocating a new one.
//
// A lookup presents the fingerprint as bytes and compares it in place
// (indexing a map by string(key) does not allocate); only an insert
// needs the key as a string, which the entry then keeps.
type projectionCache struct {
	mu       sync.Mutex
	capacity int
	items    map[string]*projectionEntry
	// lru is the sentinel of an intrusive ring through the entries:
	// lru.next is the most recently used, lru.prev the eviction victim.
	lru    projectionEntry
	hits   uint64
	misses uint64
}

type projectionEntry struct {
	prev, next *projectionEntry
	key        string
	epoch      uint64
	cat        TaskCategory // private copy
}

func newProjectionCache(capacity int) *projectionCache {
	c := &projectionCache{capacity: capacity, items: make(map[string]*projectionEntry)}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
}

func (e *projectionEntry) unlink() {
	e.prev.next, e.next.prev = e.next, e.prev
}

// pushFront links a detached entry in as the most recently used.
func (c *projectionCache) pushFront(e *projectionEntry) {
	e.prev, e.next = &c.lru, c.lru.next
	e.prev.next, e.next.prev = e, e
}

// drop removes an entry from the ring and the index and returns it,
// detached, for reuse.
func (c *projectionCache) drop(e *projectionEntry) *projectionEntry {
	e.unlink()
	delete(c.items, e.key)
	return e
}

// getInto copies the cached category for key into dst, whose two
// vectors must have the model's K components, if it was stored under
// the same epoch. A stale entry is evicted and counted as a miss.
func (c *projectionCache) getInto(key []byte, epoch uint64, dst TaskCategory) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.capacity <= 0 {
		// A disabled cache is not a thrashing cache: counting these
		// lookups as misses would surface a 0% hit rate in metrics that
		// is indistinguishable from real churn. Leave the counters
		// untouched; stats() reports Disabled instead.
		return false
	}
	ent, ok := c.items[string(key)]
	if !ok {
		c.misses++
		return false
	}
	if ent.epoch != epoch {
		c.drop(ent)
		c.misses++
		return false
	}
	ent.unlink()
	c.pushFront(ent)
	c.hits++
	dst.copyFrom(ent.cat)
	return true
}

// put stores a copy of cat under (key, epoch). At capacity the least
// recently used entry is evicted and reused for the insert, so a full
// cache allocates nothing here; key is kept as the entry's map key.
func (c *projectionCache) put(key string, epoch uint64, cat TaskCategory) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.capacity <= 0 {
		return
	}
	ent, ok := c.items[key]
	if ok {
		ent.unlink()
	} else {
		if len(c.items) >= c.capacity {
			ent = c.drop(c.lru.prev) // the least recently used
		} else {
			ent = new(projectionEntry)
		}
		ent.key = key
		c.items[key] = ent
	}
	ent.epoch = epoch
	ent.cat.Lambda = append(ent.cat.Lambda[:0], cat.Lambda...)
	ent.cat.Nu2 = append(ent.cat.Nu2[:0], cat.Nu2...)
	c.pushFront(ent)
}

// resize changes the capacity; n <= 0 disables caching and drops every
// entry. Shrinking evicts from the LRU tail.
func (c *projectionCache) resize(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.capacity = n
	if n <= 0 {
		c.items = make(map[string]*projectionEntry)
		c.lru.prev, c.lru.next = &c.lru, &c.lru
		return
	}
	for len(c.items) > n {
		c.drop(c.lru.prev)
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
		Entries:  len(c.items),
		Capacity: c.capacity,
		Disabled: c.capacity <= 0,
	}
}

// appendBagKey appends the exact fingerprint of a bag to dst, term by
// term in the bag's order:
//   - the id's difference from the previous id (from 0 for the first),
//     as a zigzag varint;
//   - the count: uvarint(2n) when it is bit-equal to float64(n) for an
//     integer 0 ≤ n < 2⁵², else the byte 0x01 and the count's 8
//     little-endian Float64bits bytes (−0, NaN, ±Inf, fractions, huge
//     values).
//
// The first byte of uvarint(2n) is even and the marker is odd, so each
// term parses exactly one way and the encoding is invertible: two bags
// share a key iff they are the same sequence of (id, count bits), and
// collisions are impossible by construction. The bags of real texts
// (sorted ids, small integer counts) take 2–3 bytes a term.
func appendBagKey(dst []byte, b text.Bag) []byte {
	prev := 0
	for i, id := range b.IDs {
		dst = binary.AppendVarint(dst, int64(id-prev))
		prev = id
		c := b.Counts[i]
		if c >= 0 && c < 1<<52 {
			if n := uint64(c); math.Float64bits(float64(n)) == math.Float64bits(c) {
				dst = binary.AppendUvarint(dst, 2*n)
				continue
			}
		}
		dst = append(dst, 0x01)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(c))
	}
	return dst
}

// clone deep-copies a category so cache internals and callers never
// share vectors.
func (t TaskCategory) clone() TaskCategory {
	return TaskCategory{Lambda: t.Lambda.Clone(), Nu2: t.Nu2.Clone()}
}

// copyFrom overwrites t's vectors, which must be as long as src's, with
// src's values.
func (t TaskCategory) copyFrom(src TaskCategory) {
	copy(t.Lambda, src.Lambda)
	copy(t.Nu2, src.Nu2)
}
