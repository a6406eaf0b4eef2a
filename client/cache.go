package client

import (
	"container/list"
	"sync"

	"ode"
)

// objCache is the client-side decoded-object cache: OID -> decoded
// current image, tagged with the 64-bit content hash of the encoded
// image it was decoded from (object.ImageTag). It is the remote twin
// of the engine's decoded-object cache, aimed at the dominant remote
// cost: shipping and decoding a full image per Deref round trip.
//
// Correctness protocol (see docs/SERVER.md "Client object cache"):
//
//   - A cached object is only ever served after the server proves the
//     tag still matches — either directly (CmdDerefCached returned
//     "not modified", for the object asked for or for a neighbour
//     revalidated in the same frame) or transitively (an earlier round
//     trip in the same transaction validated the tag, and the server
//     still holds that transaction's read lock, so the image cannot
//     have changed).
//   - Fills and invalidations can race across connections; a stale
//     fill is harmless because its stale tag fails the next
//     revalidation. The cache trades at worst one extra round trip,
//     never correctness.
//   - Cached objects are immutable: put stores a private copy and get
//     hands out a fresh deep copy, so callers may freely mutate what
//     Deref returns.
//
// The cache is sharded 16 ways with per-shard LRU so concurrent
// transactions on different connections do not serialize on one mutex.
type objCache struct {
	perShard int // max entries per shard
	shards   [objCacheShards]objCacheShard
}

const objCacheShards = 16

type objCacheShard struct {
	mu      sync.Mutex
	entries map[ode.OID]*list.Element
	lru     *list.List // of *objCacheEntry; front = most recently used
}

type objCacheEntry struct {
	oid ode.OID
	obj *ode.Object // immutable once stored
	tag uint64      // object.ImageTag of the encoded image
}

func newObjCache(capacity int) *objCache {
	c := &objCache{perShard: capacity / objCacheShards}
	if capacity > 0 && c.perShard == 0 {
		c.perShard = 1
	}
	for i := range c.shards {
		c.shards[i].entries = make(map[ode.OID]*list.Element)
		c.shards[i].lru = list.New()
	}
	return c
}

// shard maps an OID to its shard (Fibonacci hash of the id's low bits).
func (c *objCache) shard(oid ode.OID) *objCacheShard {
	h := uint64(oid) * 0x9E3779B97F4A7C15
	return &c.shards[h>>60]
}

// get returns a private copy of the cached image and its tag. The deep
// copy runs outside the shard lock: the entry's object is immutable,
// so holding only the pointer is safe.
func (c *objCache) get(oid ode.OID) (*ode.Object, uint64, bool) {
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
	return ent.obj.Copy(), ent.tag, true
}

// peek returns the cached image itself and its tag, without copying it
// or moving it in the LRU order. The object is shared and immutable:
// the caller reads it and must neither change nor hand it out.
func (c *objCache) peek(oid ode.OID) (*ode.Object, uint64, bool) {
	s := c.shard(oid)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[oid]
	if !ok {
		return nil, 0, false
	}
	ent := e.Value.(*objCacheEntry)
	return ent.obj, ent.tag, true
}

// put stores obj (which must be a private copy the caller will never
// touch again) as the image of oid at tag.
func (c *objCache) put(oid ode.OID, obj *ode.Object, tag uint64) {
	s := c.shard(oid)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[oid]; ok {
		e.Value = &objCacheEntry{oid: oid, obj: obj, tag: tag}
		s.lru.MoveToFront(e)
		return
	}
	if s.lru.Len() >= c.perShard {
		last := s.lru.Back()
		delete(s.entries, last.Value.(*objCacheEntry).oid)
		s.lru.Remove(last)
	}
	s.entries[oid] = s.lru.PushFront(&objCacheEntry{oid: oid, obj: obj, tag: tag})
}

// invalidate drops oid's entry; reports whether one was present.
func (c *objCache) invalidate(oid ode.OID) bool {
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

// flush empties the cache, returning how many entries were dropped.
func (c *objCache) flush() uint64 {
	var n uint64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += uint64(s.lru.Len())
		s.entries = make(map[ode.OID]*list.Element)
		s.lru = list.New()
		s.mu.Unlock()
	}
	return n
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
