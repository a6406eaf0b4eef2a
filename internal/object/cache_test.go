package object

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ode/internal/core"
	"ode/internal/storage"
	"ode/internal/wal"
)

func TestCacheHitAfterGet(t *testing.T) {
	m, _, part, _ := newTestManager(t)
	oid := alloc(t, m)
	if err := m.Apply(putOp(m, oid, mkPart(t, part, "bolt", 4), 0)); err != nil {
		t.Fatal(err)
	}
	if got := m.met.CacheHits.Load(); got != 0 {
		t.Fatalf("cache hits before any Get = %d", got)
	}
	o1, _, err := m.Get(oid)
	if err != nil {
		t.Fatal(err)
	}
	if m.met.CacheMisses.Load() != 1 {
		t.Fatalf("first Get should miss, misses = %d", m.met.CacheMisses.Load())
	}
	o2, _, err := m.Get(oid)
	if err != nil {
		t.Fatal(err)
	}
	if m.met.CacheHits.Load() != 1 {
		t.Fatalf("second Get should hit, hits = %d", m.met.CacheHits.Load())
	}
	if !o1.EqualState(o2) {
		t.Fatal("cached image differs from decoded image")
	}
	// The hit must be a private copy: mutating it cannot poison the
	// cache.
	o2.MustSet("qty", core.Int(999))
	o3, _, err := m.Get(oid)
	if err != nil {
		t.Fatal(err)
	}
	if o3.MustGet("qty").Int() != 4 {
		t.Fatalf("cache returned a shared mutable image, qty = %d", o3.MustGet("qty").Int())
	}
}

func TestCacheInvalidatedOnPut(t *testing.T) {
	m, _, part, _ := newTestManager(t)
	oid := alloc(t, m)
	if err := m.Apply(putOp(m, oid, mkPart(t, part, "bolt", 4), 0)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Get(oid); err != nil {
		t.Fatal(err)
	}
	if err := m.Apply(putOp(m, oid, mkPart(t, part, "bolt", 5), 1)); err != nil {
		t.Fatal(err)
	}
	if m.met.CacheInvalidations.Load() != 1 {
		t.Fatalf("update should invalidate, invalidations = %d", m.met.CacheInvalidations.Load())
	}
	o, ver, err := m.Get(oid)
	if err != nil {
		t.Fatal(err)
	}
	if q := o.MustGet("qty").Int(); q != 5 || ver != 1 {
		t.Fatalf("Get after update = qty %d ver %d, want 5/1", q, ver)
	}
}

func TestCacheInvalidatedOnDelete(t *testing.T) {
	m, _, part, _ := newTestManager(t)
	oid := alloc(t, m)
	if err := m.Apply(putOp(m, oid, mkPart(t, part, "bolt", 4), 0)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Get(oid); err != nil {
		t.Fatal(err)
	}
	if err := m.Apply(&wal.Op{Type: wal.OpDelete, OID: uint64(oid)}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Get(oid); !errors.Is(err, ErrNoObject) {
		t.Fatalf("Get after delete = %v, want ErrNoObject", err)
	}
	if m.ObjectCacheLen() != 0 {
		t.Fatalf("cache still holds %d entries after delete", m.ObjectCacheLen())
	}
}

func TestCacheSizeBound(t *testing.T) {
	m, _, part, _ := newTestManager(t)
	const bound = 32
	m.SetObjectCacheSize(bound)
	const n = 4 * bound
	oids := make([]core.OID, n)
	for i := range oids {
		oids[i] = alloc(t, m)
		if err := m.Apply(putOp(m, oids[i], mkPart(t, part, "p", int64(i)), 0)); err != nil {
			t.Fatal(err)
		}
	}
	for _, oid := range oids {
		if _, _, err := m.Get(oid); err != nil {
			t.Fatal(err)
		}
	}
	got := m.ObjectCacheLen()
	if got > bound {
		t.Fatalf("cache holds %d entries, bound %d", got, bound)
	}
	if ev := m.met.CacheEvictions.Load(); ev != uint64(n-got) {
		t.Fatalf("%d fills left %d entries and counted %d evictions, want %d", n, got, ev, n-got)
	}
}

// A hit takes no Manager.mu: Get, Revalidate and GetVersion of a
// cached object return while another goroutine holds the write lock.
func TestCacheHitTakesNoManagerLock(t *testing.T) {
	m, _, part, _ := newTestManager(t)
	oid := alloc(t, m)
	o := mkPart(t, part, "bolt", 4)
	if err := m.Apply(putOp(m, oid, o, 0)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Get(oid); err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	done := make(chan error, 1)
	go func() {
		if _, _, err := m.Get(oid); err != nil {
			done <- err
			return
		}
		if got, err := m.Revalidate(oid, tagOf(o)); err != nil || got != nil {
			done <- fmt.Errorf("revalidate = %v, %v; want proven", got, err)
			return
		}
		_, err := m.GetVersion(oid, 0)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a cache hit waited for Manager.mu")
	}
	if h := m.met.CacheHits.Load(); h != 3 {
		t.Fatalf("hits = %d, want 3", h)
	}
}

// Hits outside Manager.mu race Apply of the same object and of others
// (run under -race): every image a reader gets is one a writer wrote
// whole, at the version it was written at, and once the writers are
// done every read is of the last image.
func TestCacheHitsBesideApply(t *testing.T) {
	m, _, part, _ := newTestManager(t)
	oids := []core.OID{alloc(t, m), alloc(t, m), alloc(t, m)}
	img := func(oid core.OID, i int) *core.Object {
		o := mkPart(t, part, "v", int64(i))
		for k := 0; k < i%4; k++ {
			o.MustGet("subparts").Set().Insert(core.Ref(oid + core.OID(k)))
		}
		return o
	}
	for _, oid := range oids {
		if err := m.Apply(putOp(m, oid, img(oid, 0), 0)); err != nil {
			t.Fatal(err)
		}
	}
	const rounds = 200
	check := func(oid core.OID, o *core.Object, ver uint32) error {
		qty := o.MustGet("qty").Int()
		if qty != int64(ver) || o.MustGet("subparts").Set().Len() != int(qty%4) {
			return fmt.Errorf("torn image of @%d: %s at version %d", oid, o, ver)
		}
		// The reader owns what it got: writing it reaches no cache entry.
		o.MustGet("subparts").Set().Insert(core.Ref(999))
		return nil
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for _, oid := range oids[:2] { // oids[2] is only read
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= rounds; i++ {
				if err := m.Apply(putOp(m, oid, img(oid, i), uint32(i))); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	for r := 0; r < 6; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				oid := oids[(r+i)%len(oids)]
				o, ver, err := m.Get(oid)
				if err == nil {
					err = check(oid, o, ver)
				}
				if err == nil {
					var p *core.Object
					if p, err = m.Revalidate(oid, 0); err == nil && p == nil {
						err = fmt.Errorf("tag 0 proved @%d", oid)
					}
				}
				if err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	for k, oid := range oids {
		want := rounds
		if k == 2 {
			want = 0
		}
		o, ver, err := m.Get(oid)
		if err != nil {
			t.Fatal(err)
		}
		if ver != uint32(want) || !o.EqualState(img(oid, want)) {
			t.Fatalf("after the writers, @%d reads %s at version %d, want version %d", oid, o, ver, want)
		}
	}
}

func TestCacheDisabled(t *testing.T) {
	m, _, part, _ := newTestManager(t)
	m.SetObjectCacheSize(-1)
	oid := alloc(t, m)
	if err := m.Apply(putOp(m, oid, mkPart(t, part, "bolt", 4), 0)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := m.Get(oid); err != nil {
			t.Fatal(err)
		}
	}
	if m.met.CacheHits.Load() != 0 {
		t.Fatalf("disabled cache recorded %d hits", m.met.CacheHits.Load())
	}
	if m.ObjectCacheLen() != 0 {
		t.Fatal("disabled cache holds entries")
	}
}

// TestCacheConcurrentReadersSeeFreshImages hammers one object with
// readers while a writer applies updates; every image a reader observes
// must be one the writer actually wrote (monotonicity is not promised,
// staleness past the lock release is what Apply's invalidation
// prevents; here we check internal consistency: name and qty are
// written together and must be read together).
func TestCacheConcurrentReadersSeeFreshImages(t *testing.T) {
	m, _, part, _ := newTestManager(t)
	oid := alloc(t, m)
	if err := m.Apply(putOp(m, oid, mkPart(t, part, "v0", 0), 0)); err != nil {
		t.Fatal(err)
	}
	const rounds = 200
	var wg sync.WaitGroup
	errCh := make(chan error, 9)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= rounds; i++ {
			o := mkPart(t, part, "v", int64(i))
			if err := m.Apply(putOp(m, oid, o, uint32(i))); err != nil {
				errCh <- err
				return
			}
		}
	}()
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := int64(-1)
			for i := 0; i < rounds; i++ {
				o, ver, err := m.Get(oid)
				if err != nil {
					errCh <- err
					return
				}
				qty := o.MustGet("qty").Int()
				if qty != int64(ver) {
					errCh <- fmt.Errorf("torn image: qty %d at version %d", qty, ver)
					return
				}
				_ = last
				last = qty
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}

// tagOf is the content tag a client holds for o: the tag of the image
// it was sent.
func tagOf(o *core.Object) uint64 { return ImageTag(Encode(o)) }

// revalidate is Manager.Revalidate for tests, failing t on an error.
func revalidate(t *testing.T, m *Manager, oid core.OID, tag uint64) *core.Object {
	t.Helper()
	o, err := m.Revalidate(oid, tag)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// A revalidation proves a copy whose tag is the current image's and
// answers any other with the current image; after Apply the entry's
// memoized tag is the new image's, and each revalidation is one cache
// hit or miss whatever the tag says.
func TestRevalidateTagFollowsApply(t *testing.T) {
	m, _, part, _ := newTestManager(t)
	oid := alloc(t, m)
	old, now := mkPart(t, part, "bolt", 4), mkPart(t, part, "bolt", 5)
	if err := m.Apply(putOp(m, oid, old, 0)); err != nil {
		t.Fatal(err)
	}
	if o := revalidate(t, m, oid, tagOf(old)); o != nil { // miss: fills with the tag
		t.Fatalf("revalidating the current image answered %v, want proven", o)
	}
	if o := revalidate(t, m, oid, tagOf(old)); o != nil { // hit: compares the memoized tag
		t.Fatalf("revalidating the current image again answered %v, want proven", o)
	}
	if err := m.Apply(putOp(m, oid, now, 1)); err != nil {
		t.Fatal(err)
	}
	o := revalidate(t, m, oid, tagOf(old))
	if o == nil || !o.EqualState(now) {
		t.Fatalf("revalidating the superseded image answered %v, want the new image", o)
	}
	if o := revalidate(t, m, oid, tagOf(now)); o != nil {
		t.Fatalf("revalidating the new image answered %v, want proven", o)
	}
	if e := m.cache.lookup(oid); e == nil || memoTag(e) != tagOf(now) {
		t.Fatal("the entry does not carry the new image's tag")
	}
	if h, ms := m.met.CacheHits.Load(), m.met.CacheMisses.Load(); h != 2 || ms != 2 {
		t.Fatalf("four revalidations counted %d hits and %d misses, want 2 and 2", h, ms)
	}
}

// A record written before its class grew decodes padded, so the image
// a reader is sent is not the stored record. A revalidation proves the
// tag of what Get returns, whether the entry was filled by Get or by
// the revalidation itself, and never the tag of the stored bytes.
func TestRevalidateShortRecordProvesDecodedImage(t *testing.T) {
	m, _, part, _ := newTestManager(t)
	oid := alloc(t, m)
	// The class's first slot only: what an older, one-field part wrote.
	stored := binary.AppendUvarint(nil, uint64(part.ID()))
	stored = binary.AppendUvarint(stored, 1)
	stored = appendValue(stored, core.Str("washer"))
	if err := m.Apply(&wal.Op{Type: wal.OpPut, OID: uint64(oid), ClassID: uint32(part.ID()), Image: stored}); err != nil {
		t.Fatal(err)
	}
	for _, fill := range []string{"Get", "Revalidate", "GetImage"} {
		m.SetObjectCacheSize(DefaultObjectCacheSize) // empty
		switch fill {
		case "Get":
			if _, _, err := m.Get(oid); err != nil {
				t.Fatal(err)
			}
		case "Revalidate":
			if o := revalidate(t, m, oid, ImageTag(stored)); o == nil {
				t.Fatalf("%s fill: the stored record's tag proved a padded image", fill)
			}
		default:
			if _, image, err := m.GetImage(oid); err != nil || image != nil {
				t.Fatalf("%s fill: the miss returned image %x (%v), want none", fill, image, err)
			}
			o, image, err := m.GetImage(oid) // hit: makes the memo
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(image, Encode(o)) || bytes.Equal(image, stored) {
				t.Fatalf("%s fill: image %x, want the padded image's encoding, not the record %x", fill, image, stored)
			}
		}
		got, _, err := m.Get(oid)
		if err != nil {
			t.Fatal(err)
		}
		if tagOf(got) == ImageTag(stored) {
			t.Fatal("the padded image encodes to the stored record")
		}
		if o := revalidate(t, m, oid, tagOf(got)); o != nil {
			t.Fatalf("%s fill: the tag of the image Get returns answered %v, want proven", fill, o)
		}
		if o := revalidate(t, m, oid, ImageTag(stored)); o == nil {
			t.Fatalf("%s fill: the stored record's tag proved", fill)
		}
	}
}

// GetImage hands out the cache entry's own object and memoized bytes:
// a hit copies and encodes nothing once the memo is made, whichever
// reader made it, and an Apply replaces object and memo together. A
// miss fills without a memo and hands out no image.
func TestGetImageHandsOutTheMemo(t *testing.T) {
	m, _, part, _ := newTestManager(t)
	oid := alloc(t, m)
	old, now := mkPart(t, part, "gear", 1), mkPart(t, part, "gear", 2)
	if err := m.Apply(putOp(m, oid, old, 0)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Get(oid); err != nil { // fills, no memo
		t.Fatal(err)
	}
	o1, img1, err := m.GetImage(oid) // hit: makes the memo
	if err != nil {
		t.Fatal(err)
	}
	e := m.cache.lookup(oid)
	if e == nil || o1 != e.obj || memoTag(e) != ImageTag(img1) || !bytes.Equal(img1, Encode(old)) {
		t.Fatal("GetImage did not hand out the entry's object and its memoized encoding")
	}
	o2, img2, err := m.GetImage(oid)
	if err != nil {
		t.Fatal(err)
	}
	if o2 != o1 || &img2[0] != &img1[0] {
		t.Fatal("a second GetImage copied or encoded again")
	}
	if n := testing.AllocsPerRun(100, func() { m.GetImage(oid) }); n != 0 {
		t.Fatalf("a warm GetImage allocates %v times, want 0", n)
	}
	if err := m.Apply(putOp(m, oid, now, 1)); err != nil {
		t.Fatal(err)
	}
	o3, img3, err := m.GetImage(oid) // miss: fills, no memo
	if err != nil {
		t.Fatal(err)
	}
	if !o3.EqualState(now) || img3 != nil || m.cache.lookup(oid).memo.Load() != nil {
		t.Fatal("after Apply, the GetImage miss does not hand out the new object alone")
	}
	o4, img4, err := m.GetImage(oid) // hit: makes the memo
	if err != nil {
		t.Fatal(err)
	}
	if !o4.EqualState(now) || !bytes.Equal(img4, Encode(now)) || memoTag(m.cache.lookup(oid)) != tagOf(now) {
		t.Fatal("after Apply, GetImage does not hand out the new image and memo")
	}
	if h, ms := m.met.CacheHits.Load(), m.met.CacheMisses.Load(); h != 2+100+1+1 || ms != 2 {
		t.Fatalf("counted %d hits and %d misses, want 104 and 2", h, ms)
	}
}

// memoTag is the content tag an entry has memoized, 0 when it has none.
func memoTag(e *objCacheEntry) uint64 {
	if m := e.memo.Load(); m != nil {
		return m.tag
	}
	return 0
}

// Eight revalidations of one freshly filled entry race to memoize its
// tag; -race holds the field to its rule (written only atomically), and
// every one of them proves.
func TestRevalidateConcurrentTagMemo(t *testing.T) {
	m, _, part, _ := newTestManager(t)
	oid := alloc(t, m)
	o := mkPart(t, part, "nut", 9)
	o.MustGet("subparts").Set().Insert(core.Ref(oid))
	if err := m.Apply(putOp(m, oid, o, 0)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Get(oid); err != nil { // fills, tag not yet computed
		t.Fatal(err)
	}
	if e := m.cache.lookup(oid); e == nil || e.memo.Load() != nil {
		t.Fatal("a Get fill computed the tag")
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got, err := m.Revalidate(oid, tagOf(o)); err != nil || got != nil {
				errs <- fmt.Errorf("revalidate = %v, %v; want proven", got, err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if e := m.cache.lookup(oid); e == nil || memoTag(e) != tagOf(o) {
		t.Fatal("the entry's tag is not the image's")
	}
}

// CompactStep relocates records under Manager.mu's write lock without
// invalidating a cache entry: it changes no image and no version. Hits
// that run beside a whole compaction pass (under -race) read the
// images they read before it, and once the cache is emptied the
// relocated records decode to the same images.
func TestCacheHitsBesideCompaction(t *testing.T) {
	m, _, part, _ := newTestManager(t)
	img := func(i int) *core.Object {
		o := mkPart(t, part, fmt.Sprintf("part-%03d-%0200d", i, i), int64(i))
		o.MustGet("subparts").Set().Insert(core.Ref(core.OID(i)))
		return o
	}
	var all, live []core.OID
	for i := 0; i < 160; i++ {
		oid := alloc(t, m)
		if err := m.Apply(putOp(m, oid, img(i), 0)); err != nil {
			t.Fatal(err)
		}
		all = append(all, oid)
	}
	for i, oid := range all {
		if i%4 == 0 {
			live = append(live, oid)
		} else if err := m.Apply(&wal.Op{Type: wal.OpDelete, OID: uint64(oid)}); err != nil {
			t.Fatal(err)
		}
	}
	check := func(k int, o *core.Object, err error) error {
		if err != nil {
			return err
		}
		if !o.EqualState(img(4 * k)) {
			return fmt.Errorf("@%d reads %s", live[k], o)
		}
		return nil
	}
	for k, oid := range live {
		o, _, err := m.Get(oid)
		if err := check(k, o, err); err != nil {
			t.Fatal(err)
		}
	}
	misses := m.met.CacheMisses.Load()

	stop := make(chan struct{})
	errCh := make(chan error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				for k, oid := range live {
					o, _, err := m.Get(oid)
					if err := check(k, o, err); err != nil {
						errCh <- err
						return
					}
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	moved := 0
	cursor := storage.InvalidPage
	for first := true; first || cursor != storage.InvalidPage; first = false {
		res, err := m.CompactStep(cursor, 4, func([]wal.Op) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		moved += res.RecordsMoved
		cursor = res.Next
	}
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("the pass moved no record")
	}
	if got := m.met.CacheMisses.Load(); got != misses {
		t.Fatalf("hits beside compaction missed %d times", got-misses)
	}
	m.SetObjectCacheSize(DefaultObjectCacheSize) // empty
	for k, oid := range live {
		o, _, err := m.Get(oid)
		if err := check(k, o, err); err != nil {
			t.Fatalf("after the pass, from the relocated record: %v", err)
		}
	}
}
