package object

import (
	"errors"
	"fmt"

	"ode/internal/btree"
	"ode/internal/core"
	"ode/internal/storage"
	"ode/internal/wal"
)

// Apply executes one logical operation against the store. It is the
// single mutation entry point, shared by committing transactions and by
// WAL replay, and it is idempotent: applying the same op twice leaves
// the same state.
func (m *Manager) Apply(op *wal.Op) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch op.Type {
	case wal.OpPut:
		m.invalidateCached(core.OID(op.OID))
		return m.applyPut(op)
	case wal.OpPutVersion:
		// Frozen versions never alias the cached current image.
		return m.applyPutVersion(op)
	case wal.OpDelete:
		m.invalidateCached(core.OID(op.OID))
		return m.applyDelete(core.OID(op.OID))
	case wal.OpDeleteVersion:
		return m.applyDeleteVersion(core.OID(op.OID), op.Version)
	}
	return fmt.Errorf("object: cannot apply op %s", op.Type)
}

// invalidateCached drops oid's decoded-object cache entry. Called under
// m.mu (write) before the write it precedes: a hit that found the
// entry first reads the old image, and every later reader misses and
// fills, under RLock and so after this writer, with the new one.
func (m *Manager) invalidateCached(oid core.OID) {
	if m.cache.Delete(oid) {
		m.met.CacheInvalidations.Inc()
	}
}

func (m *Manager) applyPut(op *wal.Op) error {
	oid := core.OID(op.OID)
	cid := core.ClassID(op.ClassID)
	newObj, err := Decode(m.schema, op.Image)
	if err != nil {
		return err
	}
	rec := encodeHeapRecord(recCurrent, oid, op.Version, op.Image)
	key := dirKey(oid)
	old, err := m.dir.Get(key)
	switch {
	case err == nil:
		// Existing object: update in place (or relocate).
		oldCID, _, rid, err := decodeDirEntry(old)
		if err != nil {
			return err
		}
		if oldCID != cid {
			return fmt.Errorf("object: put changes class of %d from %d to %d", oid, oldCID, cid)
		}
		oldRec, err := m.heap.Get(rid)
		if err != nil {
			return err
		}
		_, _, _, oldImage, err := DecodeHeapRecord(oldRec)
		if err != nil {
			return err
		}
		oldObj, err := Decode(m.schema, oldImage)
		if err != nil {
			return err
		}
		if err := m.updateIndexEntries(cid, oid, oldObj, newObj); err != nil {
			return err
		}
		nrid, err := m.heap.Update(rid, rec)
		if err != nil {
			return err
		}
		m.met.Updates.Inc()
		return m.dir.Put(key, encodeDirEntry(cid, op.Version, nrid))
	case errors.Is(err, btree.ErrNotFound):
		// New object: a reserved id is refused before anything changes.
		if err := m.NoteOID(oid); err != nil {
			return err
		}
		rid, err := m.heap.Insert(rec)
		if err != nil {
			return err
		}
		if err := m.dir.Put(key, encodeDirEntry(cid, op.Version, rid)); err != nil {
			return err
		}
		if err := m.cluster.Put(clusterKey(cid, oid), nil); err != nil {
			return err
		}
		m.met.Creates.Inc()
		return m.updateIndexEntries(cid, oid, nil, newObj)
	default:
		return err
	}
}

func (m *Manager) applyPutVersion(op *wal.Op) error {
	oid := core.OID(op.OID)
	rec := encodeHeapRecord(recVersion, oid, op.Version, op.Image)
	key := verKey(oid, op.Version)
	old, err := m.ver.Get(key)
	switch {
	case err == nil:
		rid, err := decodeRID(old)
		if err != nil {
			return err
		}
		nrid, err := m.heap.Update(rid, rec)
		if err != nil {
			return err
		}
		return m.ver.Put(key, encodeRID(nrid))
	case errors.Is(err, btree.ErrNotFound):
		rid, err := m.heap.Insert(rec)
		if err != nil {
			return err
		}
		return m.ver.Put(key, encodeRID(rid))
	default:
		return err
	}
}

func (m *Manager) applyDelete(oid core.OID) error {
	key := dirKey(oid)
	entry, err := m.dir.Get(key)
	if errors.Is(err, btree.ErrNotFound) {
		return nil // idempotent
	}
	if err != nil {
		return err
	}
	cid, _, rid, err := decodeDirEntry(entry)
	if err != nil {
		return err
	}
	// Remove index entries for the current image.
	oldRec, err := m.heap.Get(rid)
	if err != nil {
		return err
	}
	_, _, _, oldImage, err := DecodeHeapRecord(oldRec)
	if err != nil {
		return err
	}
	oldObj, err := Decode(m.schema, oldImage)
	if err != nil {
		return err
	}
	if err := m.updateIndexEntries(cid, oid, oldObj, nil); err != nil {
		return err
	}
	if err := m.heap.Delete(rid); err != nil {
		return err
	}
	if err := m.dir.Delete(key); err != nil {
		return err
	}
	if err := m.cluster.Delete(clusterKey(cid, oid)); err != nil && !errors.Is(err, btree.ErrNotFound) {
		return err
	}
	// Drop all frozen versions.
	var vkeys [][]byte
	var vrids []storage.RID
	err = m.ver.ScanPrefix(dirKey(oid), func(k, v []byte) (bool, error) {
		r, err := decodeRID(v)
		if err != nil {
			return false, err
		}
		vkeys = append(vkeys, append([]byte(nil), k...))
		vrids = append(vrids, r)
		return true, nil
	})
	if err != nil {
		return err
	}
	for i, k := range vkeys {
		if err := m.heap.Delete(vrids[i]); err != nil {
			return err
		}
		if err := m.ver.Delete(k); err != nil {
			return err
		}
	}
	m.met.Deletes.Inc()
	return nil
}

func (m *Manager) applyDeleteVersion(oid core.OID, ver uint32) error {
	key := verKey(oid, ver)
	v, err := m.ver.Get(key)
	if errors.Is(err, btree.ErrNotFound) {
		return nil // idempotent
	}
	if err != nil {
		return err
	}
	rid, err := decodeRID(v)
	if err != nil {
		return err
	}
	if err := m.heap.Delete(rid); err != nil {
		return err
	}
	return m.ver.Delete(key)
}

// updateIndexEntries reconciles secondary-index entries for an object
// transitioning from oldObj to newObj (either may be nil for
// insert/delete). Indexes attach to the class the field originates in
// as well as derived classes, so every index on any class along the
// object's linearization that covers the slot applies.
func (m *Manager) updateIndexEntries(cid core.ClassID, oid core.OID, oldObj, newObj *core.Object) error {
	if len(m.indexes) == 0 {
		return nil
	}
	class, ok := m.schema.ClassByID(cid)
	if !ok {
		return fmt.Errorf("object: unknown class id %d", cid)
	}
	for id := range m.indexes {
		idxClass, ok := m.schema.ClassByID(id.class)
		if !ok || !class.IsA(idxClass) {
			continue
		}
		// The slot layout of a derived class keeps base slots at the
		// same positions only for single inheritance chains rooted at
		// the layout prefix; resolve by field name for safety.
		fieldName := idxClass.Layout()[id.slot].Name
		slot := class.SlotIndex(fieldName)
		if slot < 0 {
			continue
		}
		var oldKey, newKey []byte
		var err error
		if oldObj != nil {
			oldKey, err = indexKey(id.class, id.slot, oldObj.Slot(slot), oid)
			if err != nil {
				return err
			}
		}
		if newObj != nil {
			newKey, err = indexKey(id.class, id.slot, newObj.Slot(slot), oid)
			if err != nil {
				return err
			}
		}
		if oldKey != nil && newKey != nil && string(oldKey) == string(newKey) {
			continue
		}
		if oldKey != nil {
			if err := m.index.Delete(oldKey); err != nil && !errors.Is(err, btree.ErrNotFound) {
				return err
			}
			m.met.IndexDeletes.Inc()
		}
		if newKey != nil {
			if err := m.index.Put(newKey, nil); err != nil {
				return err
			}
			m.met.IndexPuts.Inc()
		}
	}
	return nil
}

// Get returns the current image of the object and its current version
// number. The returned object is the caller's to mutate: a hit returns
// a copy-on-write copy of the cached image, a miss the freshly decoded
// image, whose copy is what gets cached (core.Object.Copy). A fill
// leaves the entry's encoded image and content tag to the first
// Revalidate or GetImage hit that asks.
//
// A hit takes no m.mu: the entry is immutable, and every writer under
// m.mu's write lock either replaces no image or invalidates the entry
// first (see the protocol in cache.go). Apply invalidates the object
// it writes before writing it. CompactStep relocates records without
// changing an image or a version number, and CreateCluster,
// DestroyCluster, CreateIndex and DropIndex change the catalog and the
// index trees, never an image. So a hit outside m.mu returns what a
// hit under RLock would: the image as it stood before any Apply still
// running. Only a miss, which reads the trees and fills, takes RLock.
func (m *Manager) Get(oid core.OID) (*core.Object, uint32, error) {
	if e := m.cache.lookup(oid); e != nil {
		m.met.CacheHits.Inc()
		return e.obj.Copy(), e.ver, nil
	}
	o, cur, _, err := m.fill(oid, false)
	return o, cur, err
}

// GetImage is Get for a caller that only reads the object and ships its
// encoded image. A hit returns the cached object itself, not a copy,
// and Encode of it, memoized in the cache entry by the first hit that
// asks (or by Revalidate): both are shared and immutable, and the
// caller must change neither and keep neither past its own read. A miss
// fills the cache as Get does and returns the fresh object with a nil
// image, for the caller to encode where it likes: a row read once and
// evicted before its next read is not worth a memo.
func (m *Manager) GetImage(oid core.OID) (*core.Object, []byte, error) {
	if e := m.cache.lookup(oid); e != nil {
		m.met.CacheHits.Inc()
		return e.obj, e.image().image, nil
	}
	o, _, _, err := m.fill(oid, false)
	return o, nil, err
}

// Revalidate is Get for a reader that already holds a copy of oid whose
// content tag, ImageTag of its encoded image, is tag. It returns nil
// when the current image has that tag, and the current image (the
// caller's, as from Get) when it has another. A hit compares the
// entry's memoized tag and copies nothing; the first revalidation of an
// entry encodes the entry's own object and memoizes the image with its
// tag. A miss fills the cache with the memo made. Either way it counts
// one cache hit or miss, whatever the tag says.
func (m *Manager) Revalidate(oid core.OID, tag uint64) (*core.Object, error) {
	if e := m.cache.lookup(oid); e != nil {
		m.met.CacheHits.Inc()
		if e.image().tag == tag {
			return nil, nil
		}
		return e.obj.Copy(), nil
	}
	o, _, memo, err := m.fill(oid, true)
	if err != nil || memo.tag == tag {
		return nil, err
	}
	return o, nil
}

// fill is the miss of Get, GetImage and Revalidate: under RLock it reads
// oid's current image from the trees, counts the miss and caches a copy
// of it, with its memo made when memoize is set. The returned object is
// the caller's.
func (m *Manager) fill(oid core.OID, memoize bool) (*core.Object, uint32, *imageMemo, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	m.met.CacheMisses.Inc()
	o, cur, err := m.getLocked(oid)
	if err != nil {
		return nil, 0, nil, err
	}
	var memo *imageMemo
	if memoize {
		memo = newImageMemo(Encode(o))
	}
	// Fill while still holding RLock (see cache.go for why).
	m.met.CacheEvictions.Add(m.cache.put(oid, o.Copy(), cur, memo))
	return o, cur, memo, nil
}

func (m *Manager) getLocked(oid core.OID) (*core.Object, uint32, error) {
	entry, err := m.dir.Get(dirKey(oid))
	if errors.Is(err, btree.ErrNotFound) {
		return nil, 0, fmt.Errorf("%w: @%d", ErrNoObject, oid)
	}
	if err != nil {
		return nil, 0, err
	}
	_, cur, rid, err := decodeDirEntry(entry)
	if err != nil {
		return nil, 0, err
	}
	rec, err := m.heap.Get(rid)
	if err != nil {
		return nil, 0, err
	}
	_, _, _, image, err := DecodeHeapRecord(rec)
	if err != nil {
		return nil, 0, err
	}
	o, err := Decode(m.schema, image)
	return o, cur, err
}

// GetVersion returns a specific version's image. Asking for the current
// version number returns the live image. A hit takes no m.mu, as in
// Get.
func (m *Manager) GetVersion(oid core.OID, ver uint32) (*core.Object, error) {
	if e := m.cache.lookup(oid); e != nil && e.ver == ver {
		m.met.CacheHits.Inc()
		return e.obj.Copy(), nil
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	entry, err := m.dir.Get(dirKey(oid))
	if errors.Is(err, btree.ErrNotFound) {
		return nil, fmt.Errorf("%w: @%d", ErrNoObject, oid)
	}
	if err != nil {
		return nil, err
	}
	_, cur, rid, err := decodeDirEntry(entry)
	if err != nil {
		return nil, err
	}
	if ver == cur {
		rec, err := m.heap.Get(rid)
		if err != nil {
			return nil, err
		}
		_, _, _, image, err := DecodeHeapRecord(rec)
		if err != nil {
			return nil, err
		}
		return Decode(m.schema, image)
	}
	v, err := m.ver.Get(verKey(oid, ver))
	if errors.Is(err, btree.ErrNotFound) {
		return nil, fmt.Errorf("%w: @%d version %d", ErrNoVersion, oid, ver)
	}
	if err != nil {
		return nil, err
	}
	vrid, err := decodeRID(v)
	if err != nil {
		return nil, err
	}
	rec, err := m.heap.Get(vrid)
	if err != nil {
		return nil, err
	}
	_, _, _, image, err := DecodeHeapRecord(rec)
	if err != nil {
		return nil, err
	}
	return Decode(m.schema, image)
}

// Exists reports whether oid names a live object.
func (m *Manager) Exists(oid core.OID) (bool, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	ok, err := m.dir.Has(dirKey(oid))
	return ok, err
}

// ClassOf returns the dynamic class of a persistent object.
func (m *Manager) ClassOf(oid core.OID) (*core.Class, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	entry, err := m.dir.Get(dirKey(oid))
	if errors.Is(err, btree.ErrNotFound) {
		return nil, fmt.Errorf("%w: @%d", ErrNoObject, oid)
	}
	if err != nil {
		return nil, err
	}
	cid, _, _, err := decodeDirEntry(entry)
	if err != nil {
		return nil, err
	}
	c, ok := m.schema.ClassByID(cid)
	if !ok {
		return nil, fmt.Errorf("object: unknown class id %d", cid)
	}
	return c, nil
}

// CurrentVersion returns the current version number of an object.
func (m *Manager) CurrentVersion(oid core.OID) (uint32, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	entry, err := m.dir.Get(dirKey(oid))
	if errors.Is(err, btree.ErrNotFound) {
		return 0, fmt.Errorf("%w: @%d", ErrNoObject, oid)
	}
	if err != nil {
		return 0, err
	}
	_, cur, _, err := decodeDirEntry(entry)
	return cur, err
}

// Versions lists the frozen version numbers of an object, ascending
// (the current version is not included).
func (m *Manager) Versions(oid core.OID) ([]uint32, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []uint32
	err := m.ver.ScanPrefix(dirKey(oid), func(k, _ []byte) (bool, error) {
		out = append(out, verFromKey(k))
		return true, nil
	})
	return out, err
}

func verFromKey(k []byte) uint32 {
	return uint32(k[8])<<24 | uint32(k[9])<<16 | uint32(k[10])<<8 | uint32(k[11])
}

// CreateCluster creates the extent for class c. DDL is durable
// immediately (catalog rewrite + checkpoint is the caller's duty via
// CheckpointAfterDDL; the database layer wraps this).
func (m *Manager) CreateCluster(c *core.Class) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.clusters[c.ID()] {
		return fmt.Errorf("%w: %s", ErrClusterExists, c.Name)
	}
	m.clusters[c.ID()] = true
	if err := m.writeCatalog(); err != nil {
		m.clusters[c.ID()] = false
		return err
	}
	return nil
}

// HasCluster reports whether class c's extent exists.
func (m *Manager) HasCluster(c *core.Class) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.clusters[c.ID()]
}

// DestroyCluster removes an empty extent.
func (m *Manager) DestroyCluster(c *core.Class) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.clusters[c.ID()] {
		return fmt.Errorf("%w: %s", ErrNoCluster, c.Name)
	}
	empty := true
	err := m.cluster.ScanPrefix(clusterPrefix(c.ID()), func(_, _ []byte) (bool, error) {
		empty = false
		return false, nil
	})
	if err != nil {
		return err
	}
	if !empty {
		return fmt.Errorf("%w: %s", ErrClusterNotEmpty, c.Name)
	}
	delete(m.clusters, c.ID())
	return m.writeCatalog()
}

// RequireCluster returns ErrNoCluster unless class c's extent exists.
func (m *Manager) RequireCluster(c *core.Class) error {
	if !m.HasCluster(c) {
		return fmt.Errorf("%w: %s (call CreateCluster first)", ErrNoCluster, c.Name)
	}
	return nil
}

// ClusterOIDs snapshots the OIDs in class c's own extent (not
// subclasses), in OID order. The tree walk runs under RLock; callers
// then visit the OIDs unlocked, so callbacks may re-enter Get without
// holding the manager lock across user code.
func (m *Manager) ClusterOIDs(c *core.Class) ([]core.OID, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var oids []core.OID
	err := m.cluster.ScanPrefix(clusterPrefix(c.ID()), func(k, _ []byte) (bool, error) {
		oids = append(oids, oidFromClusterKey(k))
		return true, nil
	})
	return oids, err
}

// ScanCluster visits the OIDs in class c's own extent (not subclasses),
// in OID order.
func (m *Manager) ScanCluster(c *core.Class, fn func(oid core.OID) (bool, error)) error {
	oids, err := m.ClusterOIDs(c)
	if err != nil {
		return err
	}
	for _, oid := range oids {
		cont, err := fn(oid)
		if err != nil {
			return err
		}
		if !cont {
			return nil
		}
	}
	return nil
}

func oidFromClusterKey(k []byte) core.OID {
	var oid uint64
	for _, b := range k[4:12] {
		oid = oid<<8 | uint64(b)
	}
	return core.OID(oid)
}

// ClusterSize counts a cluster's own extent.
func (m *Manager) ClusterSize(c *core.Class) (int, error) {
	n := 0
	err := m.ScanCluster(c, func(core.OID) (bool, error) {
		n++
		return true, nil
	})
	return n, err
}

// CreateIndex builds a secondary index on class.field and backfills it
// from the existing extent (including subclass extents).
func (m *Manager) CreateIndex(c *core.Class, field string) error {
	slot := c.SlotIndex(field)
	if slot < 0 {
		return fmt.Errorf("%w: field %s.%s", core.ErrNoSuchMember, c.Name, field)
	}
	id := indexID{class: c.ID(), slot: slot}
	m.mu.Lock()
	if m.indexes[id] {
		m.mu.Unlock()
		return fmt.Errorf("%w: %s.%s", ErrIndexExists, c.Name, field)
	}
	m.indexes[id] = true
	if err := m.writeCatalog(); err != nil {
		delete(m.indexes, id)
		m.mu.Unlock()
		return err
	}
	m.mu.Unlock()

	// Backfill from every extent in the class hierarchy.
	for _, sub := range m.schema.Hierarchy(c) {
		var oids []core.OID
		if err := m.ScanCluster(sub, func(oid core.OID) (bool, error) {
			oids = append(oids, oid)
			return true, nil
		}); err != nil {
			return err
		}
		for _, oid := range oids {
			m.mu.Lock()
			obj, _, err := m.getLocked(oid)
			if err != nil {
				m.mu.Unlock()
				return err
			}
			key, err := indexKey(id.class, id.slot, obj.Slot(obj.Class().SlotIndex(field)), oid)
			if err != nil {
				m.mu.Unlock()
				return err
			}
			err = m.index.Put(key, nil)
			m.mu.Unlock()
			if err != nil {
				return err
			}
			m.met.IndexPuts.Inc()
		}
	}
	return nil
}

// HasIndex reports whether class.field has an index usable for lookups
// on c (an index declared on c or on a base class of c).
func (m *Manager) HasIndex(c *core.Class, field string) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.findIndexLocked(c, field) != nil
}

func (m *Manager) findIndexLocked(c *core.Class, field string) *indexID {
	for _, anc := range c.Linearization() {
		slot := anc.SlotIndex(field)
		if slot < 0 {
			continue
		}
		id := indexID{class: anc.ID(), slot: slot}
		if m.indexes[id] {
			return &id
		}
	}
	return nil
}

// DropIndex removes an index declared on exactly class c.
func (m *Manager) DropIndex(c *core.Class, field string) error {
	slot := c.SlotIndex(field)
	if slot < 0 {
		return fmt.Errorf("%w: field %s.%s", core.ErrNoSuchMember, c.Name, field)
	}
	id := indexID{class: c.ID(), slot: slot}
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.indexes[id] {
		return fmt.Errorf("%w: %s.%s", ErrNoIndex, c.Name, field)
	}
	// Remove the entries.
	var keys [][]byte
	err := m.index.ScanPrefix(indexPrefix(id.class, id.slot), func(k, _ []byte) (bool, error) {
		keys = append(keys, append([]byte(nil), k...))
		return true, nil
	})
	if err != nil {
		return err
	}
	for _, k := range keys {
		if err := m.index.Delete(k); err != nil {
			return err
		}
	}
	delete(m.indexes, id)
	return m.writeCatalog()
}

// IndexScan visits OIDs whose indexed field value is in [lo, hi] (nil
// bounds are open). The index must exist on c or a base of c; OIDs from
// subclass extents appear because index maintenance covers the whole
// hierarchy. Values come out in field order, then OID order.
func (m *Manager) IndexScan(c *core.Class, field string, lo, hi core.Value, fn func(oid core.OID) (bool, error)) error {
	oids, err := m.IndexOIDs(c, field, lo, hi)
	if err != nil {
		return err
	}
	for _, oid := range oids {
		cont, err := fn(oid)
		if err != nil {
			return err
		}
		if !cont {
			return nil
		}
	}
	return nil
}

// IndexOIDs snapshots the OIDs whose indexed field value is in
// [lo, hi], in field order then OID order. The tree walk runs under
// RLock; as with ClusterOIDs, callers visit the result unlocked.
func (m *Manager) IndexOIDs(c *core.Class, field string, lo, hi core.Value) ([]core.OID, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	id := m.findIndexLocked(c, field)
	if id == nil {
		return nil, fmt.Errorf("%w: %s.%s", ErrNoIndex, c.Name, field)
	}
	prefix := indexPrefix(id.class, id.slot)
	from := prefix
	if !lo.IsNull() {
		var err error
		from, err = EncodeKey(prefix, lo)
		if err != nil {
			return nil, err
		}
	}
	var to []byte
	if !hi.IsNull() {
		k, err := EncodeKey(prefix, hi)
		if err != nil {
			return nil, err
		}
		// Inclusive upper bound: extend with 0xFF past any oid suffix.
		to = append(k, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF)
	} else {
		to = prefixSuccessorBytes(prefix)
	}
	var oids []core.OID
	err := m.index.ScanRange(from, to, func(k, _ []byte) (bool, error) {
		oids = append(oids, oidFromIndexKey(k))
		return true, nil
	})
	return oids, err
}

// prefixSuccessorBytes is btree.prefixSuccessor for our local use.
func prefixSuccessorBytes(prefix []byte) []byte {
	out := append([]byte(nil), prefix...)
	for i := len(out) - 1; i >= 0; i-- {
		if out[i] != 0xFF {
			out[i]++
			return out[:i+1]
		}
	}
	return nil
}

// ScanAllRecords drives the recovery rebuild: it walks every page of
// the file (by page type, ignoring the possibly stale heap chain) and
// yields each live heap record.
func (m *Manager) ScanAllRecords(fn func(kind byte, oid core.OID, ver uint32, image []byte) error) error {
	return ScanAllRecords(m.fs, m.pool, fn)
}

// ScanAllRecords enumerates the live heap records of a database file by
// scanning page types, independent of any directory state.
func ScanAllRecords(fs *storage.FileStore, pool *storage.Pool, fn func(kind byte, oid core.OID, ver uint32, image []byte) error) error {
	n := fs.NumPages()
	for id := storage.PageID(1); uint32(id) < n; id++ {
		p, err := pool.Fetch(id)
		if err != nil {
			return err
		}
		if p.Type() != storage.TypeHeap {
			pool.Unpin(id, false)
			continue
		}
		h := storage.AsHeap(p)
		for s := 0; s < h.NumSlots(); s++ {
			rec, err := h.Get(uint16(s))
			if errors.Is(err, storage.ErrNoRecord) {
				continue
			}
			if err != nil {
				pool.Unpin(id, false)
				return err
			}
			kind, oid, ver, image, err := DecodeHeapRecord(rec)
			if err != nil {
				pool.Unpin(id, false)
				return err
			}
			if err := fn(kind, oid, ver, image); err != nil {
				pool.Unpin(id, false)
				return err
			}
		}
		pool.Unpin(id, false)
	}
	return nil
}
