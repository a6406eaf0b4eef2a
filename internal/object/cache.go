package object

import (
	"container/list"
	"sync"

	"ode/internal/core"
)

// objCache is the decoded-object cache: OID -> decoded current image,
// tagged with the current-version number it was decoded at. It sits in
// front of the heap-fetch-plus-Decode path of Manager.Get, which
// dominates pointer-chase reads.
//
// Correctness protocol (see DESIGN.md "Concurrency architecture"):
//
//   - Fills happen inside Manager.Get while the caller still holds
//     Manager.mu.RLock(); invalidations happen inside Apply under the
//     full write lock. A stale fill therefore cannot land after the
//     invalidation that supersedes it — the filling reader's RLock
//     ordered it entirely before the writer's critical section.
//   - Cached objects are immutable: put stores the result of a
//     core.Object.Copy, which is marked shared, and get hands out
//     another Copy of it. For an object with no set or array slot that
//     is one small header over the same slot vector; the caller's first
//     Set gives its header a private vector, so callers may freely
//     mutate what Deref returns (they do) without corrupting the cache.
//     A hit only reads the entry (core.Object's race rule).
//
// The cache is sharded 16 ways with per-shard LRU so concurrent readers
// of different objects do not serialize on one mutex. Capacity <= 0
// disables the cache (every get misses, put is a no-op).
type objCache struct {
	perShard int // max entries per shard; <= 0 disables
	shards   [objCacheShards]objCacheShard
}

const objCacheShards = 16

type objCacheShard struct {
	mu      sync.Mutex
	entries map[core.OID]*list.Element
	lru     *list.List // of *objCacheEntry; front = most recently used
}

type objCacheEntry struct {
	oid core.OID
	obj *core.Object // immutable once stored
	ver uint32
}

func newObjCache(capacity int) *objCache {
	c := &objCache{perShard: capacity / objCacheShards}
	if capacity > 0 && c.perShard == 0 {
		c.perShard = 1
	}
	for i := range c.shards {
		c.shards[i].entries = make(map[core.OID]*list.Element)
		c.shards[i].lru = list.New()
	}
	return c
}

// shard maps an OID to its shard (Fibonacci hash of the id's low bits).
func (c *objCache) shard(oid core.OID) *objCacheShard {
	h := uint64(oid) * 0x9E3779B97F4A7C15
	return &c.shards[h>>60]
}

// get returns a copy of the cached image (core.Object.Copy: shared
// slots, private header) and its version. The copy runs outside the
// shard lock: the entry's object is immutable, so holding only the
// pointer is safe.
func (c *objCache) get(oid core.OID) (*core.Object, uint32, bool) {
	if c.perShard <= 0 {
		return nil, 0, false
	}
	s := c.shard(oid)
	s.mu.Lock()
	e, ok := s.entries[oid]
	if !ok {
		s.mu.Unlock()
		return nil, 0, false
	}
	s.lru.MoveToFront(e)
	ent := e.Value.(*objCacheEntry)
	s.mu.Unlock()
	return ent.obj.Copy(), ent.ver, true
}

// put stores obj (the result of a core.Object.Copy the caller will never
// touch again) as the image of oid at version ver, and returns how many
// entries the size bound evicted (0 or 1).
func (c *objCache) put(oid core.OID, obj *core.Object, ver uint32) uint64 {
	if c.perShard <= 0 {
		return 0
	}
	s := c.shard(oid)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[oid]; ok {
		e.Value = &objCacheEntry{oid: oid, obj: obj, ver: ver}
		s.lru.MoveToFront(e)
		return 0
	}
	var evicted uint64
	if s.lru.Len() >= c.perShard {
		last := s.lru.Back()
		delete(s.entries, last.Value.(*objCacheEntry).oid)
		s.lru.Remove(last)
		evicted = 1
	}
	s.entries[oid] = s.lru.PushFront(&objCacheEntry{oid: oid, obj: obj, ver: ver})
	return evicted
}

// invalidate drops oid's entry; reports whether one was present.
func (c *objCache) invalidate(oid core.OID) bool {
	if c.perShard <= 0 {
		return false
	}
	s := c.shard(oid)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[oid]
	if !ok {
		return false
	}
	delete(s.entries, oid)
	s.lru.Remove(e)
	return true
}

// reset empties the cache and installs a new per-shard bound.
func (c *objCache) reset(capacity int) {
	per := capacity / objCacheShards
	if capacity > 0 && per == 0 {
		per = 1
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.entries = make(map[core.OID]*list.Element)
		s.lru = list.New()
		s.mu.Unlock()
	}
	c.perShard = per
}

// len counts cached entries (test helper).
func (c *objCache) len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.lru.Len()
		s.mu.Unlock()
	}
	return n
}
