package client_test

import (
	"context"
	"path/filepath"
	"sync"
	"testing"

	"ode"
	"ode/client"
	"ode/internal/server"
)

// startCacheServer serves a fresh database and returns its address,
// so tests can dial several clients (reader/writer pairs) with their
// own cache options.
func startCacheServer(t *testing.T) (string, *ode.Class) {
	t.Helper()
	schema, gadget := gadgetSchema()
	db, err := ode.Open(filepath.Join(t.TempDir(), "c.odb"), schema, &ode.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateCluster(gadget); err != nil {
		t.Fatal(err)
	}
	srv := server.New(db, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(nil)
	t.Cleanup(func() {
		srv.Close()
		db.Close()
	})
	return addr.String(), gadget
}

func dialCache(t *testing.T, addr string, opts *client.Options) *client.Client {
	t.Helper()
	schema, _ := gadgetSchema()
	c, err := client.Dial(addr, schema, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestClientCacheHitPaths walks the three deref paths: cold miss,
// same-transaction local hit (no round trip), and cross-transaction
// revalidation hit (round trip, no image shipped).
func TestClientCacheHitPaths(t *testing.T) {
	addr, cls := startCacheServer(t)
	c := dialCache(t, addr, nil)
	ctx := context.Background()

	var oid ode.OID
	if err := c.RunTx(ctx, func(tx *client.Tx) error {
		var err error
		oid, err = tx.PNew(cls, gadget(cls, "widget", 3))
		return err
	}); err != nil {
		t.Fatal(err)
	}

	met := c.CacheMetrics()
	err := c.View(ctx, func(tx *client.Tx) error {
		o1, err := tx.Deref(oid) // cold: full image
		if err != nil {
			return err
		}
		o2, err := tx.Deref(oid) // proven this tx: local
		if err != nil {
			return err
		}
		if o1 == o2 {
			t.Error("deref returned a shared object; cache must hand out private copies")
		}
		// Mutating a returned copy must not leak into the cache.
		o2.MustSet("qty", ode.Int(999))
		o3, err := tx.Deref(oid)
		if err != nil {
			return err
		}
		if got := o3.MustGet("qty").Int(); got != 3 {
			t.Errorf("cached object corrupted by caller mutation: qty=%d", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if h, m := met.Hits.Load(), met.Misses.Load(); h != 2 || m != 1 {
		t.Fatalf("after one tx: hits=%d misses=%d, want 2/1", h, m)
	}

	// A fresh transaction no longer holds the lock: the next deref must
	// revalidate — a hit (the image is unchanged), not a local serve.
	err = c.View(ctx, func(tx *client.Tx) error {
		o, err := tx.Deref(oid)
		if err != nil {
			return err
		}
		if got := o.MustGet("qty").Int(); got != 3 {
			t.Errorf("revalidated deref: qty=%d, want 3", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if h, m := met.Hits.Load(), met.Misses.Load(); h != 3 || m != 1 {
		t.Fatalf("after revalidation: hits=%d misses=%d, want 3/1", h, m)
	}

	// A write invalidates; the next deref is a full fetch of the new
	// image.
	if err := c.RunTx(ctx, func(tx *client.Tx) error {
		return tx.Update(oid, gadget(cls, "widget", 7))
	}); err != nil {
		t.Fatal(err)
	}
	if inv := met.Invalidations.Load(); inv == 0 {
		t.Error("update did not invalidate the cached object")
	}
	err = c.View(ctx, func(tx *client.Tx) error {
		o, err := tx.Deref(oid)
		if err != nil {
			return err
		}
		if got := o.MustGet("qty").Int(); got != 7 {
			t.Errorf("deref after update: qty=%d, want 7", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if m := met.Misses.Load(); m != 2 {
		t.Fatalf("deref after invalidation should miss: misses=%d, want 2", m)
	}
}

// TestClientCacheStaleRevalidation covers the cross-client case: a
// second client updates the object, so the first client's cached tag
// is stale and revalidation must ship the fresh image.
func TestClientCacheStaleRevalidation(t *testing.T) {
	addr, cls := startCacheServer(t)
	reader := dialCache(t, addr, nil)
	writer := dialCache(t, addr, &client.Options{CacheSize: -1})
	ctx := context.Background()

	var oid ode.OID
	if err := writer.RunTx(ctx, func(tx *client.Tx) error {
		var err error
		oid, err = tx.PNew(cls, gadget(cls, "widget", 1))
		return err
	}); err != nil {
		t.Fatal(err)
	}

	// Warm the reader's cache, then update behind its back.
	if err := reader.View(ctx, func(tx *client.Tx) error {
		_, err := tx.Deref(oid)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := writer.RunTx(ctx, func(tx *client.Tx) error {
		return tx.Update(oid, gadget(cls, "widget", 2))
	}); err != nil {
		t.Fatal(err)
	}

	err := reader.View(ctx, func(tx *client.Tx) error {
		o, err := tx.Deref(oid)
		if err != nil {
			return err
		}
		if got := o.MustGet("qty").Int(); got != 2 {
			t.Errorf("stale cache served: qty=%d, want 2", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The stale tag must have forced a full fetch, not a hit.
	if m := reader.CacheMetrics().Misses.Load(); m != 2 {
		t.Errorf("stale revalidation: misses=%d, want 2", m)
	}
}

// TestClientCacheDisabled pins the CacheSize<0 escape hatch: derefs
// work and the counters stay silent.
func TestClientCacheDisabled(t *testing.T) {
	addr, cls := startCacheServer(t)
	c := dialCache(t, addr, &client.Options{CacheSize: -1})
	ctx := context.Background()

	var oid ode.OID
	if err := c.RunTx(ctx, func(tx *client.Tx) error {
		var err error
		oid, err = tx.PNew(cls, gadget(cls, "widget", 5))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	err := c.View(ctx, func(tx *client.Tx) error {
		for i := 0; i < 3; i++ {
			o, err := tx.Deref(oid)
			if err != nil {
				return err
			}
			if got := o.MustGet("qty").Int(); got != 5 {
				t.Errorf("qty=%d, want 5", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	met := c.CacheMetrics()
	if h, m, inv := met.Hits.Load(), met.Misses.Load(), met.Invalidations.Load(); h+m+inv != 0 {
		t.Errorf("disabled cache counted hits=%d misses=%d invalidations=%d", h, m, inv)
	}
}

// TestClientCacheScanNeverEvicts pins the forall fill rule: a scanned
// row fills only a free position, so a scan many times the cache's size
// leaves what a deref cached in place, and the next deref of it is a
// revalidation hit, not a full fetch. The rows the scan could place are
// scan hits the next time.
func TestClientCacheScanNeverEvicts(t *testing.T) {
	addr, cls := startCacheServer(t)
	c := dialCache(t, addr, &client.Options{CacheSize: 16}) // one entry a shard
	ctx := context.Background()
	const rows = 200
	var oids []ode.OID
	if err := c.RunTx(ctx, func(tx *client.Tx) error {
		oids = oids[:0]
		for i := 0; i < rows; i++ {
			oid, err := tx.PNew(cls, gadget(cls, "g", int64(i)))
			if err != nil {
				return err
			}
			oids = append(oids, oid)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	deref := func() {
		t.Helper()
		if err := c.View(ctx, func(tx *client.Tx) error {
			_, err := tx.Deref(oids[0])
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	scan := func() {
		t.Helper()
		if err := c.View(ctx, func(tx *client.Tx) error {
			n, err := tx.Forall(&ode.Scan{Class: cls}, func(oid ode.OID, o *ode.Object) (bool, error) { return true, nil })
			if err == nil && n != rows {
				t.Errorf("forall delivered %d rows, want %d", n, rows)
			}
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	met := c.CacheMetrics()
	deref() // cold: fills oids[0]'s shard
	scan()
	deref()
	if h, m := met.Hits.Load(), met.Misses.Load(); h != 1 || m != 1 {
		t.Errorf("deref after a scan of %d rows into a cache of 16: hits=%d misses=%d, want 1/1", rows, h, m)
	}
	before := met.ScanHits.Load()
	scan()
	if got := met.ScanHits.Load() - before; got < 1 || got > 16 {
		t.Errorf("second scan: %d scan hits, want the 1 to 16 rows the cache could hold", got)
	}
}

// TestClientCacheCoherenceConcurrentWriter is the coherence stress
// test: a writer advances a counter one committed transaction at a
// time while cached readers poll it. Reads within one transaction must
// be repeatable, and across transactions each reader must observe a
// non-decreasing counter — a cached serve of an older committed image
// after a newer one was observed would be a coherence bug. Run under
// -race this also exercises the sharded cache and shared metrics.
func TestClientCacheCoherenceConcurrentWriter(t *testing.T) {
	addr, cls := startCacheServer(t)
	writer := dialCache(t, addr, nil)
	ctx := context.Background()

	var oid ode.OID
	if err := writer.RunTx(ctx, func(tx *client.Tx) error {
		var err error
		oid, err = tx.PNew(cls, gadget(cls, "counter", 0))
		return err
	}); err != nil {
		t.Fatal(err)
	}

	const (
		increments = 30
		readers    = 2
	)
	reader := dialCache(t, addr, nil)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := int64(-1)
			for {
				select {
				case <-done:
					return
				default:
				}
				err := reader.View(ctx, func(tx *client.Tx) error {
					o1, err := tx.Deref(oid)
					if err != nil {
						return err
					}
					o2, err := tx.Deref(oid) // local hit path
					if err != nil {
						return err
					}
					v1, v2 := o1.MustGet("qty").Int(), o2.MustGet("qty").Int()
					if v1 != v2 {
						t.Errorf("non-repeatable read within tx: %d then %d", v1, v2)
					}
					if v1 < last {
						t.Errorf("coherence violation: observed %d after %d", v1, last)
					}
					if v1 > last {
						last = v1
					}
					return nil
				})
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
			}
		}()
	}

	for i := 1; i <= increments; i++ {
		if err := writer.RunTx(ctx, func(tx *client.Tx) error {
			return tx.Update(oid, gadget(cls, "counter", int64(i)))
		}); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()

	// Every reader must be able to see the final value once the writer
	// is done.
	err := reader.View(ctx, func(tx *client.Tx) error {
		o, err := tx.Deref(oid)
		if err != nil {
			return err
		}
		if got := o.MustGet("qty").Int(); got != increments {
			t.Errorf("final read: qty=%d, want %d", got, increments)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
