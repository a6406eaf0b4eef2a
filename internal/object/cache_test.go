package object

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"ode/internal/core"
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
	if got := m.ObjectCacheLen(); got > bound {
		t.Fatalf("cache holds %d entries, bound %d", got, bound)
	}
	if m.met.CacheEvictions.Load() == 0 {
		t.Fatal("filling past the bound recorded no evictions")
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
