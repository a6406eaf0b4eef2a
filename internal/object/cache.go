package object

import (
	"sync/atomic"

	"ode/internal/clockmap"
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
//   - Hits take no Manager.mu. A hit that finds the entry before
//     Apply's invalidation reads the image Apply is replacing, as a
//     reader that took RLock just before Apply's Lock would have; one
//     that comes after misses and fills under RLock, after Apply. A
//     hitting transaction holds the object's S lock or its cluster's,
//     which no committing writer of the object can hold beside it, so
//     in practice no Apply of that object runs beside its hit.
//   - Cached objects are immutable: put stores the result of a
//     core.Object.Copy, which is marked shared, and Get hands out
//     another Copy of it. For an object with no set or array slot that
//     is one small header over the same slot vector; otherwise it is a
//     vector of its own whose sets and arrays are new headers over the
//     cached containers' storage. The caller's first write gives its
//     header private storage, so callers may freely mutate what Deref
//     returns (they do) without corrupting the cache. A hit only reads
//     the entry (core.Object's race rule).
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
// The entries live in a clockmap.Map: 16 shards, each evicting by
// CLOCK, so a hit takes its shard's read lock, sets its entry's
// reference bit if it is clear, and moves nothing. A hit takes no
// Manager.mu either (Manager.Get says why that is safe). Capacity <= 0
// disables the cache (every lookup misses, put is a no-op).
type objCache struct {
	clockmap.Map[core.OID, *objCacheEntry]
}

type objCacheEntry struct {
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
	c := &objCache{}
	c.Reset(capacity)
	return c
}

// lookup returns oid's entry, or nil, and marks it referenced. The
// caller reads the entry outside every lock: its object is immutable
// and its tag atomic.
func (c *objCache) lookup(oid core.OID) *objCacheEntry {
	e, _ := c.Get(oid)
	return e
}

// put stores obj (the result of a core.Object.Copy the caller will never
// touch again) as the image of oid at version ver, with its content tag
// when the caller has computed it (0 otherwise), and returns how many
// entries the size bound evicted (0 or 1).
func (c *objCache) put(oid core.OID, obj *core.Object, ver uint32, tag uint64) uint64 {
	ent := &objCacheEntry{obj: obj, ver: ver}
	if tag != 0 {
		ent.tag.Store(tag)
	}
	if c.Put(oid, ent) {
		return 1
	}
	return 0
}
