package object

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"ode/internal/core"
	"ode/internal/storage"
	"ode/internal/wal"
)

// newTestManager builds a manager over a fresh file with the part/widget
// schema and clusters created.
func newTestManager(t testing.TB) (*Manager, *core.Schema, *core.Class, *core.Class) {
	t.Helper()
	schema, part, widget := testSchema(t)
	path := filepath.Join(t.TempDir(), "m.odb")
	fs, err := storage.CreateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	pool := storage.NewPool(fs, 128, nil, nil)
	m, err := Create(schema, fs, pool)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CreateCluster(part); err != nil {
		t.Fatal(err)
	}
	if err := m.CreateCluster(widget); err != nil {
		t.Fatal(err)
	}
	return m, schema, part, widget
}

// putOp builds the OpPut for an object.
func putOp(m *Manager, oid core.OID, o *core.Object, ver uint32) *wal.Op {
	return &wal.Op{
		Type:    wal.OpPut,
		OID:     uint64(oid),
		Version: ver,
		ClassID: uint32(o.Class().ID()),
		Image:   Encode(o),
	}
}

// alloc is AllocOID for tests, failing t on an error.
func alloc(t testing.TB, m *Manager) core.OID {
	t.Helper()
	oid, err := m.AllocOID()
	if err != nil {
		t.Fatal(err)
	}
	return oid
}

func mkPart(t testing.TB, c *core.Class, name string, qty int64) *core.Object {
	t.Helper()
	o := core.NewObject(c)
	o.MustSet("name", core.Str(name))
	o.MustSet("qty", core.Int(qty))
	return o
}

func TestInsertGetUpdateDelete(t *testing.T) {
	m, _, part, _ := newTestManager(t)
	oid := alloc(t, m)
	o := mkPart(t, part, "bolt", 100)
	if err := m.Apply(putOp(m, oid, o, 0)); err != nil {
		t.Fatal(err)
	}
	got, cur, err := m.Get(oid)
	if err != nil || cur != 0 {
		t.Fatalf("Get = %v, cur %d", err, cur)
	}
	if got.MustGet("name").Str() != "bolt" {
		t.Error("wrong state")
	}
	// Update.
	o.MustSet("qty", core.Int(50))
	if err := m.Apply(putOp(m, oid, o, 0)); err != nil {
		t.Fatal(err)
	}
	got, _, _ = m.Get(oid)
	if got.MustGet("qty").Int() != 50 {
		t.Error("update lost")
	}
	// Delete.
	if err := m.Apply(&wal.Op{Type: wal.OpDelete, OID: uint64(oid)}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Get(oid); !errors.Is(err, ErrNoObject) {
		t.Errorf("Get after delete = %v", err)
	}
	if ok, _ := m.Exists(oid); ok {
		t.Error("Exists after delete")
	}
	// Idempotent redo of the delete.
	if err := m.Apply(&wal.Op{Type: wal.OpDelete, OID: uint64(oid)}); err != nil {
		t.Errorf("replayed delete: %v", err)
	}
}

func TestApplyIsIdempotent(t *testing.T) {
	m, _, part, _ := newTestManager(t)
	oid := alloc(t, m)
	op := putOp(m, oid, mkPart(t, part, "nut", 5), 0)
	if err := m.Apply(op); err != nil {
		t.Fatal(err)
	}
	if err := m.Apply(op); err != nil {
		t.Fatalf("second apply: %v", err)
	}
	if n, _ := m.ClusterSize(part); n != 1 {
		t.Errorf("cluster size = %d after double apply", n)
	}
}

func TestClusterMembershipByDynamicClass(t *testing.T) {
	m, _, part, widget := newTestManager(t)
	po := alloc(t, m)
	wo := alloc(t, m)
	m.Apply(putOp(m, po, mkPart(t, part, "p", 1), 0))
	m.Apply(putOp(m, wo, mkPart(t, widget, "w", 1), 0))

	if n, _ := m.ClusterSize(part); n != 1 {
		t.Errorf("part extent = %d, want 1 (widget goes to its own extent)", n)
	}
	if n, _ := m.ClusterSize(widget); n != 1 {
		t.Errorf("widget extent = %d", n)
	}
	var seen []core.OID
	m.ScanCluster(widget, func(oid core.OID) (bool, error) {
		seen = append(seen, oid)
		return true, nil
	})
	if len(seen) != 1 || seen[0] != wo {
		t.Errorf("widget scan = %v", seen)
	}
	if c, err := m.ClassOf(wo); err != nil || c != widget {
		t.Errorf("ClassOf = %v, %v", c, err)
	}
}

func TestVersioning(t *testing.T) {
	m, _, part, _ := newTestManager(t)
	oid := alloc(t, m)
	v0 := mkPart(t, part, "gear", 10)
	m.Apply(putOp(m, oid, v0, 0))

	// newversion: freeze current as version 0, bump current to 1.
	m.Apply(&wal.Op{Type: wal.OpPutVersion, OID: uint64(oid), Version: 0, ClassID: uint32(part.ID()), Image: Encode(v0)})
	v1 := mkPart(t, part, "gear", 20)
	m.Apply(putOp(m, oid, v1, 1))

	if cur, _ := m.CurrentVersion(oid); cur != 1 {
		t.Errorf("current version = %d", cur)
	}
	old, err := m.GetVersion(oid, 0)
	if err != nil || old.MustGet("qty").Int() != 10 {
		t.Fatalf("version 0: %v", err)
	}
	cur, err := m.GetVersion(oid, 1)
	if err != nil || cur.MustGet("qty").Int() != 20 {
		t.Fatalf("version 1 (current): %v", err)
	}
	if _, err := m.GetVersion(oid, 9); !errors.Is(err, ErrNoVersion) {
		t.Errorf("missing version err = %v", err)
	}
	vs, _ := m.Versions(oid)
	if len(vs) != 1 || vs[0] != 0 {
		t.Errorf("Versions = %v", vs)
	}
	// Delete one version.
	m.Apply(&wal.Op{Type: wal.OpDeleteVersion, OID: uint64(oid), Version: 0})
	if _, err := m.GetVersion(oid, 0); !errors.Is(err, ErrNoVersion) {
		t.Errorf("deleted version err = %v", err)
	}
	// Deleting the object removes the remaining state.
	m.Apply(&wal.Op{Type: wal.OpDelete, OID: uint64(oid)})
	if vs, _ := m.Versions(oid); len(vs) != 0 {
		t.Errorf("versions after object delete: %v", vs)
	}
}

func TestDeleteRemovesAllVersions(t *testing.T) {
	m, _, part, _ := newTestManager(t)
	oid := alloc(t, m)
	o := mkPart(t, part, "x", 1)
	m.Apply(putOp(m, oid, o, 0))
	for v := uint32(0); v < 5; v++ {
		m.Apply(&wal.Op{Type: wal.OpPutVersion, OID: uint64(oid), Version: v, ClassID: uint32(part.ID()), Image: Encode(o)})
	}
	m.Apply(&wal.Op{Type: wal.OpDelete, OID: uint64(oid)})
	if vs, _ := m.Versions(oid); len(vs) != 0 {
		t.Errorf("versions survive delete: %v", vs)
	}
}

func TestClusterLifecycle(t *testing.T) {
	m, schema, part, _ := newTestManager(t)
	gadget := core.NewClass("gadget").Field("g", core.TInt).Register(schema)
	if m.HasCluster(gadget) {
		t.Fatal("cluster should not exist yet")
	}
	if err := m.RequireCluster(gadget); !errors.Is(err, ErrNoCluster) {
		t.Errorf("RequireCluster = %v", err)
	}
	if err := m.CreateCluster(gadget); err != nil {
		t.Fatal(err)
	}
	if err := m.CreateCluster(gadget); !errors.Is(err, ErrClusterExists) {
		t.Errorf("duplicate create = %v", err)
	}
	oid := alloc(t, m)
	m.Apply(putOp(m, oid, core.NewObject(gadget), 0))
	if err := m.DestroyCluster(gadget); !errors.Is(err, ErrClusterNotEmpty) {
		t.Errorf("destroy non-empty = %v", err)
	}
	m.Apply(&wal.Op{Type: wal.OpDelete, OID: uint64(oid)})
	if err := m.DestroyCluster(gadget); err != nil {
		t.Fatal(err)
	}
	if m.HasCluster(gadget) {
		t.Error("cluster survives destroy")
	}
	_ = part
}

func TestSecondaryIndexMaintenance(t *testing.T) {
	m, _, part, widget := newTestManager(t)
	if err := m.CreateIndex(part, "qty"); err != nil {
		t.Fatal(err)
	}
	if err := m.CreateIndex(part, "qty"); !errors.Is(err, ErrIndexExists) {
		t.Errorf("duplicate index = %v", err)
	}
	var oids []core.OID
	for i := 0; i < 20; i++ {
		oid := alloc(t, m)
		c := part
		if i%2 == 0 {
			c = widget // subclass objects must be indexed too
		}
		m.Apply(putOp(m, oid, mkPart(t, c, fmt.Sprintf("p%d", i), int64(i)), 0))
		oids = append(oids, oid)
	}
	// Range [5, 9].
	var got []core.OID
	err := m.IndexScan(part, "qty", core.Int(5), core.Int(9), func(oid core.OID) (bool, error) {
		got = append(got, oid)
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("index range returned %d oids, want 5: %v", len(got), got)
	}
	// Update moves an object out of the range.
	o, _, _ := m.Get(oids[5])
	o.MustSet("qty", core.Int(100))
	m.Apply(putOp(m, oids[5], o, 0))
	got = nil
	m.IndexScan(part, "qty", core.Int(5), core.Int(9), func(oid core.OID) (bool, error) {
		got = append(got, oid)
		return true, nil
	})
	if len(got) != 4 {
		t.Fatalf("after update: %d oids, want 4", len(got))
	}
	// Delete removes entries.
	m.Apply(&wal.Op{Type: wal.OpDelete, OID: uint64(oids[6])})
	got = nil
	m.IndexScan(part, "qty", core.Int(5), core.Int(9), func(oid core.OID) (bool, error) {
		got = append(got, oid)
		return true, nil
	})
	if len(got) != 3 {
		t.Fatalf("after delete: %d oids, want 3", len(got))
	}
	// Index lookups through the subclass resolve the base index.
	if !m.HasIndex(widget, "qty") {
		t.Error("widget should see the inherited qty index")
	}
	got = nil
	if err := m.IndexScan(widget, "qty", core.Int(0), core.Int(100), func(oid core.OID) (bool, error) {
		got = append(got, oid)
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Error("scan through subclass found nothing")
	}
}

func TestCreateIndexBackfillsExistingObjects(t *testing.T) {
	m, _, part, widget := newTestManager(t)
	for i := 0; i < 10; i++ {
		c := part
		if i >= 5 {
			c = widget
		}
		m.Apply(putOp(m, alloc(t, m), mkPart(t, c, fmt.Sprintf("p%d", i), int64(i)), 0))
	}
	if err := m.CreateIndex(part, "qty"); err != nil {
		t.Fatal(err)
	}
	n := 0
	m.IndexScan(part, "qty", core.Null, core.Null, func(core.OID) (bool, error) {
		n++
		return true, nil
	})
	if n != 10 {
		t.Fatalf("backfill indexed %d objects, want 10 (both extents)", n)
	}
	if err := m.DropIndex(part, "qty"); err != nil {
		t.Fatal(err)
	}
	if err := m.IndexScan(part, "qty", core.Null, core.Null, func(core.OID) (bool, error) { return true, nil }); !errors.Is(err, ErrNoIndex) {
		t.Errorf("scan after drop = %v", err)
	}
}

func TestPersistAcrossReopen(t *testing.T) {
	schema, part, widget := testSchema(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "db.odb")
	fs, err := storage.CreateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pool := storage.NewPool(fs, 64, nil, nil)
	m, err := Create(schema, fs, pool)
	if err != nil {
		t.Fatal(err)
	}
	m.CreateCluster(part)
	m.CreateCluster(widget)
	m.CreateIndex(part, "qty")
	var oids []core.OID
	for i := 0; i < 50; i++ {
		oid := alloc(t, m)
		m.Apply(putOp(m, oid, mkPart(t, part, fmt.Sprintf("p%d", i), int64(i)), 0))
		oids = append(oids, oid)
	}
	if err := m.Checkpoint(true); err != nil {
		t.Fatal(err)
	}
	fs.Close()

	// Reopen with an identically built schema.
	schema2, part2, widget2 := testSchema(t)
	fs2, err := storage.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	if !WasCleanShutdown(fs2) {
		t.Fatal("clean flag lost")
	}
	pool2 := storage.NewPool(fs2, 64, nil, nil)
	m2, err := Open(schema2, fs2, pool2)
	if err != nil {
		t.Fatal(err)
	}
	if !m2.HasCluster(part2) || !m2.HasCluster(widget2) {
		t.Error("clusters lost across reopen")
	}
	if !m2.HasIndex(part2, "qty") {
		t.Error("index lost across reopen")
	}
	for i, oid := range oids {
		o, _, err := m2.Get(oid)
		if err != nil {
			t.Fatalf("Get(%d) after reopen: %v", oid, err)
		}
		if o.MustGet("qty").Int() != int64(i) {
			t.Fatalf("object %d state wrong", oid)
		}
	}
	// OID allocation continues past the persisted counter.
	if newOID := alloc(t, m2); newOID <= oids[len(oids)-1] {
		t.Errorf("AllocOID after reopen = %d, must exceed %d", newOID, oids[len(oids)-1])
	}
	if n, _ := m2.ClusterSize(part2); n != 50 {
		t.Errorf("extent size after reopen = %d", n)
	}
}

func TestSchemaMismatchDetected(t *testing.T) {
	schema, part, widget := testSchema(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "db.odb")
	fs, _ := storage.CreateFile(path)
	pool := storage.NewPool(fs, 64, nil, nil)
	m, err := Create(schema, fs, pool)
	if err != nil {
		t.Fatal(err)
	}
	_ = widget
	m.CreateCluster(part)
	m.Checkpoint(true)
	fs.Close()

	// A different schema: the class "part" has a different layout.
	bad := core.NewSchema()
	core.NewClass("part").Field("name", core.TInt).Register(bad)
	fs2, err := storage.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	if _, err := Open(bad, fs2, storage.NewPool(fs2, 64, nil, nil)); !errors.Is(err, ErrSchemaMismatch) {
		t.Errorf("Open with wrong schema = %v", err)
	}
}

func TestScanAllRecordsSeesEverything(t *testing.T) {
	m, _, part, _ := newTestManager(t)
	oid := alloc(t, m)
	o := mkPart(t, part, "x", 1)
	m.Apply(putOp(m, oid, o, 0))
	m.Apply(&wal.Op{Type: wal.OpPutVersion, OID: uint64(oid), Version: 0, ClassID: uint32(part.ID()), Image: Encode(o)})

	counts := map[byte]int{}
	err := m.ScanAllRecords(func(kind byte, _ core.OID, _ uint32, _ []byte) error {
		counts[kind]++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if counts[RecCurrent] != 1 || counts[RecVersion] != 1 || counts[RecCatalog] != 1 {
		t.Errorf("record counts = %v", counts)
	}
}

func TestNoteOID(t *testing.T) {
	m, _, _, _ := newTestManager(t)
	if err := m.NoteOID(100); err != nil {
		t.Fatal(err)
	}
	if oid := alloc(t, m); oid != 101 {
		t.Errorf("AllocOID after NoteOID(100) = %d", oid)
	}
	if err := m.NoteOID(50); err != nil { // lower: no effect
		t.Fatal(err)
	}
	if oid := alloc(t, m); oid != 102 {
		t.Errorf("AllocOID = %d", oid)
	}
}

// TestReservedOIDRefused holds the cluster-word key space: an id with
// the top bit set is refused by NoteOID, by a replayed put and by the
// allocator that reaches it, and nothing is stored.
func TestReservedOIDRefused(t *testing.T) {
	m, _, part, _ := newTestManager(t)
	if err := m.NoteOID(core.ReservedOIDBit | 7); !errors.Is(err, ErrReservedOID) {
		t.Errorf("NoteOID(reserved) = %v, want ErrReservedOID", err)
	}
	bad := core.ReservedOIDBit | 9
	if err := m.Apply(putOp(m, bad, mkPart(t, part, "bad", 1), 0)); !errors.Is(err, ErrReservedOID) {
		t.Errorf("Apply(put of reserved @%d) = %v, want ErrReservedOID", bad, err)
	}
	if ok, err := m.Exists(bad); err != nil || ok {
		t.Errorf("refused put left @%d behind (exists %v, err %v)", bad, ok, err)
	}
	if n, err := m.ClusterSize(part); err != nil || n != 0 {
		t.Errorf("refused put left the extent at %d (err %v)", n, err)
	}
	// The last id below the reserved range is still an object id.
	if err := m.NoteOID(core.ReservedOIDBit - 2); err != nil {
		t.Fatal(err)
	}
	if oid := alloc(t, m); oid != core.ReservedOIDBit-1 {
		t.Errorf("AllocOID = %d, want %d", oid, core.ReservedOIDBit-1)
	}
	if oid, err := m.AllocOID(); !errors.Is(err, ErrReservedOID) {
		t.Errorf("AllocOID past the range = (%d, %v), want ErrReservedOID", oid, err)
	}
}
