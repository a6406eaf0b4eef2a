package object

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"ode/internal/btree"
	"ode/internal/core"
	"ode/internal/obs"
	"ode/internal/storage"
)

// Sentinel errors of the manager.
var (
	// ErrNoObject is returned when an OID does not name a live object.
	ErrNoObject = errors.New("object: no such object")
	// ErrNoVersion is returned for a missing version of an object.
	ErrNoVersion = errors.New("object: no such version")
	// ErrNoCluster is returned when creating an object whose class has
	// no cluster: "Before creating a persistent object, the
	// corresponding cluster must exist" (paper, section 2.5).
	ErrNoCluster = errors.New("object: cluster does not exist")
	// ErrClusterExists is returned by CreateCluster for a duplicate.
	ErrClusterExists = errors.New("object: cluster already exists")
	// ErrClusterNotEmpty is returned by DestroyCluster when objects
	// remain.
	ErrClusterNotEmpty = errors.New("object: cluster not empty")
	// ErrSchemaMismatch is returned when a database file's catalog does
	// not match the registered Go schema.
	ErrSchemaMismatch = errors.New("object: schema does not match database catalog")
	// ErrIndexExists is returned for duplicate index creation.
	ErrIndexExists = errors.New("object: index already exists")
	// ErrNoIndex is returned when dropping a missing index.
	ErrNoIndex = errors.New("object: no such index")
	// ErrReservedOID is returned for an object id with
	// core.ReservedOIDBit set: that range keys the lock table's cluster
	// words, so a corrupt or replayed id there is refused instead of
	// colliding with one.
	ErrReservedOID = errors.New("object: object id in the reserved range")
)

// Heap record kinds (first uvarint of every heap record).
const (
	recCurrent = 1 // the current image of an object
	recVersion = 2 // a frozen version image
	recCatalog = 3 // the catalog blob
)

// catalog is the persistent DDL state, stored as a gob blob in the heap
// and rewritten (with a checkpoint) on every DDL operation.
type catalog struct {
	// Fingerprints maps class name to the layout fingerprint recorded
	// when the class first touched this database.
	Fingerprints map[string]string
	// Clusters holds the class ids whose extents have been created.
	Clusters []uint32
	// Indexes holds "className.fieldName" strings of secondary indexes.
	Indexes []string
}

// Manager is the persistent object store: the OID directory, the
// cluster extents, the version index, the secondary indexes, and the
// record heap, glued to a schema.
//
// All mutations go through Apply (a wal.Op), which is idempotent; the
// transaction layer logs the ops before applying them, and recovery
// replays them.
//
// mu is reader/writer: the read methods take RLock, except a
// decoded-object cache hit, which takes none; Apply, compaction and DDL
// take the write lock. Cache fills happen under RLock and
// invalidations under Lock, which is what makes the decoded-object
// cache invalidation-correct (see cache.go and Get).
type Manager struct {
	schema *core.Schema
	fs     *storage.FileStore
	pool   *storage.Pool

	mu      sync.RWMutex
	heap    *storage.RecordFile
	dir     *btree.Tree // oid -> classID, curVersion, RID
	ver     *btree.Tree // (oid, version) -> RID
	cluster *btree.Tree // (classID, oid) -> ()
	index   *btree.Tree // (classID, slot, key-encoded value, oid) -> ()

	// nextOID is atomic, not mu-guarded: AllocOID runs on transaction
	// goroutines while a background checkpoint (persistBoot) snapshots
	// the counter, possibly with mu already held by a DDL caller.
	nextOID    atomic.Uint64
	oidSlot    uint64 // OID stride residue (SetOIDStride); 0 when unsharded
	oidCount   uint64 // OID stride modulus; < 2 disables striding
	clusters   map[core.ClassID]bool
	indexes    map[indexID]bool
	catalogRID storage.RID

	// epoch is the replication fencing epoch: monotonic, bumped on
	// every promotion, adopted from the primary by replicas. epochLSN
	// is the LSN at which the current epoch began (the promotion
	// boundary) — the fence a stale-epoch subscriber is checked
	// against. Both are atomics for the same reason nextOID is, and
	// both persist in the boot record.
	epoch    atomic.Uint64
	epochLSN atomic.Uint64

	cache *objCache          // decoded-object cache; never nil
	met   *obs.ObjectMetrics // never nil; SetMetrics swaps in the DB set
}

// DefaultObjectCacheSize bounds the decoded-object cache when the
// database layer does not choose a size.
const DefaultObjectCacheSize = 4096

type indexID struct {
	class core.ClassID
	slot  int
}

// Boot record layout within storage.BootSize bytes:
//
//	[0:4)   dir root      [4:8)   ver root
//	[8:12)  cluster root  [12:16) index root
//	[16:20) heap head     [20:28) next OID
//	[28:32) catalog page  [32:34) catalog slot
//	[34:35) clean flag
//	[40:48) replication epoch
//	[48:56) epoch start LSN
const (
	bootDir      = 0
	bootVer      = 4
	bootCluster  = 8
	bootIndex    = 12
	bootHeap     = 16
	bootNextOID  = 20
	bootCatPage  = 28
	bootCatSlot  = 32
	bootClean    = 34
	bootEpoch    = 40
	bootEpochLSN = 48
)

// Create initializes a manager over a freshly created file.
func Create(schema *core.Schema, fs *storage.FileStore, pool *storage.Pool) (*Manager, error) {
	m := &Manager{
		schema:   schema,
		fs:       fs,
		pool:     pool,
		heap:     storage.NewRecordFile(pool, storage.InvalidPage),
		dir:      btree.New(pool, storage.InvalidPage),
		ver:      btree.New(pool, storage.InvalidPage),
		cluster:  btree.New(pool, storage.InvalidPage),
		index:    btree.New(pool, storage.InvalidPage),
		clusters: make(map[core.ClassID]bool),
		indexes:  make(map[indexID]bool),
		cache:    newObjCache(DefaultObjectCacheSize),
		met:      &obs.ObjectMetrics{},
	}
	m.nextOID.Store(1)
	if err := m.writeCatalog(); err != nil {
		return nil, err
	}
	if err := m.persistBoot(false); err != nil {
		return nil, err
	}
	return m, nil
}

// Open loads a manager from an existing (consistent) file and verifies
// the registered schema against the catalog.
func Open(schema *core.Schema, fs *storage.FileStore, pool *storage.Pool) (*Manager, error) {
	boot := fs.Boot()
	m := &Manager{
		schema:   schema,
		fs:       fs,
		pool:     pool,
		heap:     storage.NewRecordFile(pool, storage.PageID(binary.LittleEndian.Uint32(boot[bootHeap:]))),
		dir:      btree.New(pool, storage.PageID(binary.LittleEndian.Uint32(boot[bootDir:]))),
		ver:      btree.New(pool, storage.PageID(binary.LittleEndian.Uint32(boot[bootVer:]))),
		cluster:  btree.New(pool, storage.PageID(binary.LittleEndian.Uint32(boot[bootCluster:]))),
		index:    btree.New(pool, storage.PageID(binary.LittleEndian.Uint32(boot[bootIndex:]))),
		clusters: make(map[core.ClassID]bool),
		indexes:  make(map[indexID]bool),
		cache:    newObjCache(DefaultObjectCacheSize),
		met:      &obs.ObjectMetrics{},
		catalogRID: storage.RID{
			Page: storage.PageID(binary.LittleEndian.Uint32(boot[bootCatPage:])),
			Slot: binary.LittleEndian.Uint16(boot[bootCatSlot:]),
		},
	}
	m.nextOID.Store(binary.LittleEndian.Uint64(boot[bootNextOID:]))
	m.epoch.Store(binary.LittleEndian.Uint64(boot[bootEpoch:]))
	m.epochLSN.Store(binary.LittleEndian.Uint64(boot[bootEpochLSN:]))
	if err := m.loadCatalog(); err != nil {
		return nil, err
	}
	return m, nil
}

// Epoch returns the replication fencing epoch (0 until a promotion or
// adoption touches the node).
func (m *Manager) Epoch() uint64 { return m.epoch.Load() }

// EpochStartLSN returns the LSN at which the current epoch began.
func (m *Manager) EpochStartLSN() uint64 { return m.epochLSN.Load() }

// SetEpoch records a new fencing epoch and its start LSN. The caller
// must make it durable (Checkpoint / persistBoot) before relying on it
// for fencing — a promotion that accepts writes before the bumped
// epoch is on disk could resurrect at the old epoch after a crash.
func (m *Manager) SetEpoch(epoch, startLSN uint64) {
	m.epoch.Store(epoch)
	m.epochLSN.Store(startLSN)
}

// WasCleanShutdown reads the clean flag from a file's boot record.
func WasCleanShutdown(fs *storage.FileStore) bool {
	boot := fs.Boot()
	return boot[bootClean] == 1
}

// BootNextOID reads the persisted OID allocator from a file's boot
// record — the value at the last checkpoint. Repair-on-open must
// restore at least this much: objects deleted after that checkpoint
// can leave no trace in either heap or WAL (the delete's tombstone
// flushed, the log truncated), so the maximum surviving oid may sit
// below ids already handed out, and re-minting one would break the
// never-reuse promise (AllocOID) that object identity rests on.
func BootNextOID(fs *storage.FileStore) uint64 {
	boot := fs.Boot()
	return binary.LittleEndian.Uint64(boot[bootNextOID:])
}

// BootEpoch reads the persisted replication epoch and its start LSN
// from a file's boot record. Repair-on-open must carry both into the
// rebuilt file: a rebuild that silently regressed the fencing epoch to
// zero would let a deposed node rejoin a group as if it had never been
// promoted past.
func BootEpoch(fs *storage.FileStore) (epoch, startLSN uint64) {
	boot := fs.Boot()
	return binary.LittleEndian.Uint64(boot[bootEpoch:]), binary.LittleEndian.Uint64(boot[bootEpochLSN:])
}

// persistBoot stores the roots, counters, and clean flag into the boot
// record and syncs the file (which writes the meta page).
func (m *Manager) persistBoot(clean bool) error {
	var boot [storage.BootSize]byte
	binary.LittleEndian.PutUint32(boot[bootDir:], uint32(m.dir.Root()))
	binary.LittleEndian.PutUint32(boot[bootVer:], uint32(m.ver.Root()))
	binary.LittleEndian.PutUint32(boot[bootCluster:], uint32(m.cluster.Root()))
	binary.LittleEndian.PutUint32(boot[bootIndex:], uint32(m.index.Root()))
	binary.LittleEndian.PutUint32(boot[bootHeap:], uint32(m.heap.Head()))
	// The allocator is read atomically: a background checkpoint races
	// transactions calling AllocOID. A concurrently burned id that
	// misses the snapshot is safe — its objects only become durable via
	// a later commit, which lands in the post-truncation WAL where
	// replay re-raises the allocator (NoteOID).
	binary.LittleEndian.PutUint64(boot[bootNextOID:], m.nextOID.Load())
	binary.LittleEndian.PutUint32(boot[bootCatPage:], uint32(m.catalogRID.Page))
	binary.LittleEndian.PutUint16(boot[bootCatSlot:], m.catalogRID.Slot)
	binary.LittleEndian.PutUint64(boot[bootEpoch:], m.epoch.Load())
	binary.LittleEndian.PutUint64(boot[bootEpochLSN:], m.epochLSN.Load())
	if clean {
		boot[bootClean] = 1
	}
	m.fs.SetBoot(boot)
	return m.fs.Sync()
}

// MarkUnclean clears the clean flag durably; called right after a
// successful open so that a crash implies recovery.
func (m *Manager) MarkUnclean() error { return m.persistBoot(false) }

// Checkpoint makes all applied operations durable in the data file:
// flush every dirty page (double-write protected), then persist the
// boot record. After a checkpoint the WAL may be truncated. If clean is
// true the checkpoint also marks a clean shutdown.
func (m *Manager) Checkpoint(clean bool) error {
	if err := m.pool.FlushAll(); err != nil {
		return err
	}
	return m.persistBoot(clean)
}

// writeCatalog serializes the catalog into its heap record (creating or
// updating it) under m.mu or during construction.
func (m *Manager) writeCatalog() error {
	cat := catalog{Fingerprints: make(map[string]string)}
	for _, c := range m.schema.Classes() {
		cat.Fingerprints[c.Name] = m.schema.Fingerprint(c)
	}
	for cid := range m.clusters {
		cat.Clusters = append(cat.Clusters, uint32(cid))
	}
	for id := range m.indexes {
		class, _ := m.schema.ClassByID(id.class)
		cat.Indexes = append(cat.Indexes, fmt.Sprintf("%s.%s", class.Name, class.Layout()[id.slot].Name))
	}
	var blob bytes.Buffer
	blob.WriteByte(recCatalog) // record kind (uvarint(3) == one byte)
	if err := gob.NewEncoder(&blob).Encode(&cat); err != nil {
		return fmt.Errorf("object: encode catalog: %w", err)
	}
	if m.catalogRID.IsNil() {
		rid, err := m.heap.Insert(blob.Bytes())
		if err != nil {
			return err
		}
		m.catalogRID = rid
		return nil
	}
	rid, err := m.heap.Update(m.catalogRID, blob.Bytes())
	if err != nil {
		return err
	}
	if rid != m.catalogRID {
		// The record relocated: persist the new address immediately so
		// a crash after a page eviction cannot leave the boot record
		// pointing at a tombstone.
		m.catalogRID = rid
		return m.persistBoot(false)
	}
	m.catalogRID = rid
	return nil
}

// loadCatalog reads and applies the catalog record: fingerprint checks,
// cluster and index sets.
func (m *Manager) loadCatalog() error {
	rec, err := m.heap.Get(m.catalogRID)
	if err != nil {
		return fmt.Errorf("object: read catalog: %w", err)
	}
	cat, err := decodeCatalog(rec)
	if err != nil {
		return err
	}
	for name, fp := range cat.Fingerprints {
		c, ok := m.schema.ClassNamed(name)
		if !ok {
			// A class recorded in the file but not registered now: only
			// an error if the database actually holds its objects; be
			// conservative and refuse.
			return fmt.Errorf("%w: class %s in catalog is not registered", ErrSchemaMismatch, name)
		}
		if got := m.schema.Fingerprint(c); got != fp {
			return fmt.Errorf("%w: class %s is %s, catalog has %s", ErrSchemaMismatch, name, got, fp)
		}
	}
	for _, cid := range cat.Clusters {
		m.clusters[core.ClassID(cid)] = true
	}
	for _, s := range cat.Indexes {
		dot := bytes.LastIndexByte([]byte(s), '.')
		if dot < 0 {
			return fmt.Errorf("object: bad index entry %q in catalog", s)
		}
		cname, fname := s[:dot], s[dot+1:]
		c, ok := m.schema.ClassNamed(cname)
		if !ok {
			return fmt.Errorf("%w: indexed class %s not registered", ErrSchemaMismatch, cname)
		}
		slot := c.SlotIndex(fname)
		if slot < 0 {
			return fmt.Errorf("%w: indexed field %s.%s not in schema", ErrSchemaMismatch, cname, fname)
		}
		m.indexes[indexID{class: c.ID(), slot: slot}] = true
	}
	return nil
}

// CatalogInfo is the decoded DDL state of a database file, readable
// without constructing a Manager (the recovery rebuild uses it).
type CatalogInfo struct {
	Fingerprints map[string]string
	ClusterIDs   []uint32
	Indexes      []string // "class.field"
}

// ReadCatalogInfo reads the catalog record referenced by the file's
// boot record.
func ReadCatalogInfo(fs *storage.FileStore, pool *storage.Pool) (*CatalogInfo, error) {
	boot := fs.Boot()
	rid := storage.RID{
		Page: storage.PageID(binary.LittleEndian.Uint32(boot[bootCatPage:])),
		Slot: binary.LittleEndian.Uint16(boot[bootCatSlot:]),
	}
	if rid.IsNil() {
		return nil, fmt.Errorf("object: file has no catalog record")
	}
	heap := storage.NewRecordFile(pool, storage.InvalidPage)
	rec, err := heap.Get(rid)
	if err != nil {
		return nil, fmt.Errorf("object: read catalog: %w", err)
	}
	cat, err := decodeCatalog(rec)
	if err != nil {
		return nil, err
	}
	return &CatalogInfo{
		Fingerprints: cat.Fingerprints,
		ClusterIDs:   cat.Clusters,
		Indexes:      cat.Indexes,
	}, nil
}

func decodeCatalog(rec []byte) (*catalog, error) {
	kind, n := binary.Uvarint(rec)
	if n <= 0 || kind != recCatalog {
		return nil, fmt.Errorf("object: catalog record has kind %d", kind)
	}
	var cat catalog
	if err := gob.NewDecoder(bytes.NewReader(rec[n:])).Decode(&cat); err != nil {
		return nil, fmt.Errorf("object: decode catalog: %w", err)
	}
	return &cat, nil
}

// Schema returns the schema the manager was opened with.
func (m *Manager) Schema() *core.Schema { return m.schema }

// SetMetrics attaches the object-manager metric set; om must be
// non-nil.
func (m *Manager) SetMetrics(om *obs.ObjectMetrics) { m.met = om }

// SetObjectCacheSize rebounds the decoded-object cache (clearing it).
// n <= 0 disables the cache. Call at open time, before serving traffic.
func (m *Manager) SetObjectCacheSize(n int) { m.cache.Reset(n) }

// ObjectCacheLen counts currently cached decoded objects (test helper).
func (m *Manager) ObjectCacheLen() int { return m.cache.Len() }

// SetOIDStride constrains the OID allocator to one residue class:
// every id returned by AllocOID satisfies oid % count == slot. A
// sharded deployment gives each shard its own slot so a router can
// map any OID back to its shard with one modulo (docs/SHARDING.md).
// Call at open time, before serving traffic; count < 2 clears the
// stride.
func (m *Manager) SetOIDStride(slot, count int) {
	if count < 2 || slot < 0 || slot >= count {
		count, slot = 0, 0
	}
	m.oidSlot, m.oidCount = uint64(slot), uint64(count)
}

// AllocOID reserves a fresh object id. Ids burned by aborted
// transactions are never reused.
func (m *Manager) AllocOID() (core.OID, error) {
	var oid core.OID
	if m.oidCount < 2 {
		oid = core.OID(m.nextOID.Add(1) - 1)
	} else {
		for {
			cur := m.nextOID.Load()
			next := cur
			if r := next % m.oidCount; r != m.oidSlot {
				next += (m.oidSlot + m.oidCount - r) % m.oidCount
			}
			if m.nextOID.CompareAndSwap(cur, next+1) {
				oid = core.OID(next)
				break
			}
		}
	}
	if oid&core.ReservedOIDBit != 0 {
		return core.NilOID, fmt.Errorf("%w: allocator reached @%d", ErrReservedOID, oid)
	}
	return oid, nil
}

// NoteOID raises the OID allocator above oid; used during WAL replay.
func (m *Manager) NoteOID(oid core.OID) error {
	if oid&core.ReservedOIDBit != 0 {
		return fmt.Errorf("%w: @%d", ErrReservedOID, oid)
	}
	want := uint64(oid) + 1
	for {
		cur := m.nextOID.Load()
		if cur >= want || m.nextOID.CompareAndSwap(cur, want) {
			return nil
		}
	}
}

// heap record framing: kind uvarint, oid uvarint, ver uvarint, image.
func encodeHeapRecord(kind byte, oid core.OID, ver uint32, image []byte) []byte {
	buf := make([]byte, 0, len(image)+12)
	buf = append(buf, kind)
	buf = binary.AppendUvarint(buf, uint64(oid))
	buf = binary.AppendUvarint(buf, uint64(ver))
	return append(buf, image...)
}

// DecodeHeapRecord splits a heap record into its header and image. Used
// by recovery's full-file scan and by the inspector.
func DecodeHeapRecord(rec []byte) (kind byte, oid core.OID, ver uint32, image []byte, err error) {
	if len(rec) == 0 {
		return 0, 0, 0, nil, fmt.Errorf("%w: empty heap record", ErrCodec)
	}
	kind = rec[0]
	rest := rec[1:]
	if kind == recCatalog {
		return kind, 0, 0, rest, nil
	}
	o, n := binary.Uvarint(rest)
	if n <= 0 {
		return 0, 0, 0, nil, fmt.Errorf("%w: heap record oid", ErrCodec)
	}
	rest = rest[n:]
	v, n := binary.Uvarint(rest)
	if n <= 0 {
		return 0, 0, 0, nil, fmt.Errorf("%w: heap record version", ErrCodec)
	}
	return kind, core.OID(o), uint32(v), rest[n:], nil
}

// Record kind exports for the recovery scan.
const (
	RecCurrent = recCurrent
	RecVersion = recVersion
	RecCatalog = recCatalog
)

// directory entry value: classID(4) curVersion(4) page(4) slot(2).
func encodeDirEntry(cid core.ClassID, cur uint32, rid storage.RID) []byte {
	var b [14]byte
	binary.BigEndian.PutUint32(b[0:], uint32(cid))
	binary.BigEndian.PutUint32(b[4:], cur)
	binary.BigEndian.PutUint32(b[8:], uint32(rid.Page))
	binary.BigEndian.PutUint16(b[12:], rid.Slot)
	return b[:]
}

func decodeDirEntry(b []byte) (cid core.ClassID, cur uint32, rid storage.RID, err error) {
	if len(b) != 14 {
		return 0, 0, storage.NilRID, fmt.Errorf("%w: directory entry of %d bytes", ErrCodec, len(b))
	}
	cid = core.ClassID(binary.BigEndian.Uint32(b[0:]))
	cur = binary.BigEndian.Uint32(b[4:])
	rid = storage.RID{
		Page: storage.PageID(binary.BigEndian.Uint32(b[8:])),
		Slot: binary.BigEndian.Uint16(b[12:]),
	}
	return cid, cur, rid, nil
}

func encodeRID(rid storage.RID) []byte {
	var b [6]byte
	binary.BigEndian.PutUint32(b[0:], uint32(rid.Page))
	binary.BigEndian.PutUint16(b[4:], rid.Slot)
	return b[:]
}

func decodeRID(b []byte) (storage.RID, error) {
	if len(b) != 6 {
		return storage.NilRID, fmt.Errorf("%w: RID value of %d bytes", ErrCodec, len(b))
	}
	return storage.RID{
		Page: storage.PageID(binary.BigEndian.Uint32(b[0:])),
		Slot: binary.BigEndian.Uint16(b[4:]),
	}, nil
}
