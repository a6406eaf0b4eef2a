package client

import (
	"ode"
	"ode/internal/clockmap"
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
//   - Cached objects are immutable: put stores the result of an
//     ode.Object Copy, which is marked shared, and get hands out another
//     Copy of it — a small header over the same slots for an object
//     with no set or array slot, whose first Set makes the slots its
//     own — so callers may freely mutate what Deref returns.
//
// The entries live in a clockmap.Map, 16 shards each evicting by
// CLOCK: a hit takes its shard's read lock and sets its entry's
// reference bit if it is clear, so concurrent transactions on
// different connections neither serialize on one mutex nor reorder a
// shared list.
type objCache struct {
	clockmap.Map[ode.OID, objCacheEntry]
}

type objCacheEntry struct {
	obj *ode.Object // immutable once stored
	tag uint64      // object.ImageTag of the encoded image
}

func newObjCache(capacity int) *objCache {
	c := &objCache{}
	c.Reset(capacity)
	return c
}

// get returns a copy of the cached image (ode.Object Copy: shared
// slots or shared container storage, private headers) and its tag, and
// marks the entry referenced. The copy runs outside the shard lock:
// the entry's object is immutable.
func (c *objCache) get(oid ode.OID) (*ode.Object, uint64, bool) {
	e, ok := c.Get(oid)
	if !ok {
		return nil, 0, false
	}
	return e.obj.Copy(), e.tag, true
}

// peek returns the cached image itself and its tag, without copying it
// or marking it referenced. The object is shared and immutable: the
// caller reads it and must neither change nor hand it out.
func (c *objCache) peek(oid ode.OID) (*ode.Object, uint64, bool) {
	e, ok := c.Peek(oid)
	return e.obj, e.tag, ok
}

// put stores obj (the result of an ode.Object Copy the caller will never
// touch again) as the image of oid at tag.
func (c *objCache) put(oid ode.OID, obj *ode.Object, tag uint64) {
	c.Put(oid, objCacheEntry{obj: obj, tag: tag})
}
