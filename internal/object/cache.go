package object

import (
	"container/list"
	"sync"
	"sync/atomic"

	"ode/internal/core"
)

// objCache is the decoded-object cache: OID -> decoded current image,
// tagged with the current-version number it was decoded at and, once a
// revalidation has asked for it, with the image's content tag. It sits
// in front of the heap-fetch-plus-Decode path of Manager.Get, which
// dominates pointer-chase reads, and lets Manager.Revalidate prove a
// client's copy without copying or encoding anything.
//
// Correctness protocol (see DESIGN.md "Concurrency architecture"):
//
//   - Fills happen inside Manager.Get while the caller still holds
//     Manager.mu.RLock(); invalidations happen inside Apply under the
//     full write lock. A stale fill therefore cannot land after the
//     invalidation that supersedes it — the filling reader's RLock
//     ordered it entirely before the writer's critical section.
//   - Cached objects are immutable: put stores the result of a
//     core.Object.Copy, which is marked shared, and Get hands out
//     another Copy of it. For an object with no set or array slot that
//     is one small header over the same slot vector; the caller's first
//     Set gives its header a private vector, so callers may freely
//     mutate what Deref returns (they do) without corrupting the cache.
//     A hit only reads the entry (core.Object's race rule).
//   - The tag is ImageTag(Encode(obj)) of the entry's own object, never
//     of the heap record it was decoded from: Decode pads a record
//     written before its class grew, so the stored bytes can differ
//     from every image a client was ever sent. It is computed by the
//     first revalidation of the entry, not at fill time, so readers
//     that never revalidate pay nothing for it. It is the only field
//     written after put, and it is written atomically; racing
//     revalidations compute the same value and either store wins. An
//     Apply replaces the whole entry, tag included.
//
// The cache is sharded 16 ways with per-shard LRU so concurrent readers
// of different objects do not serialize on one mutex. Capacity <= 0
// disables the cache (every lookup misses, put is a no-op).
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
	tag atomic.Uint64 // ImageTag(Encode(obj)); 0 until imageTag memoizes it
}

// imageTag returns the content tag of the entry's image, computing and
// memoizing it on first use.
func (e *objCacheEntry) imageTag() uint64 {
	if t := e.tag.Load(); t != 0 {
		return t
	}
	t := ImageTag(Encode(e.obj))
	e.tag.Store(t)
	return t
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

// lookup returns oid's entry and marks it most recently used. The
// caller reads the entry outside the shard lock: its object is
// immutable and its tag atomic.
func (c *objCache) lookup(oid core.OID) *objCacheEntry {
	if c.perShard <= 0 {
		return nil
	}
	s := c.shard(oid)
	s.mu.Lock()
	e, ok := s.entries[oid]
	if !ok {
		s.mu.Unlock()
		return nil
	}
	s.lru.MoveToFront(e)
	ent := e.Value.(*objCacheEntry)
	s.mu.Unlock()
	return ent
}

// put stores obj (the result of a core.Object.Copy the caller will never
// touch again) as the image of oid at version ver, with its content tag
// when the caller has computed it (0 otherwise), and returns how many
// entries the size bound evicted (0 or 1).
func (c *objCache) put(oid core.OID, obj *core.Object, ver uint32, tag uint64) uint64 {
	if c.perShard <= 0 {
		return 0
	}
	ent := &objCacheEntry{oid: oid, obj: obj, ver: ver}
	if tag != 0 {
		ent.tag.Store(tag)
	}
	s := c.shard(oid)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[oid]; ok {
		e.Value = ent
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
	s.entries[oid] = s.lru.PushFront(ent)
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
