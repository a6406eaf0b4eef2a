package ode

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentReadWriteStress shares one DB between reader
// transactions (Deref through the decoded-object cache) and writer
// transactions (updates that invalidate it). The invariant: every
// object's qty and price are always updated together (price mirrors
// qty), so a reader observing price != qty caught a torn or stale
// cached image. Run with -race.
func TestConcurrentReadWriteStress(t *testing.T) {
	db, stock := openTestDB(t, nil)
	const objects = 16
	oids := make([]OID, objects)
	for i := range oids {
		oids[i] = addItem(t, db, stock, fmt.Sprintf("item-%d", i), 0, 0)
	}

	const (
		readers = 6
		writers = 2
		rounds  = 150
	)
	var wg sync.WaitGroup
	var failed atomic.Bool
	fail := func(format string, args ...any) {
		if failed.CompareAndSwap(false, true) {
			t.Errorf(format, args...)
		}
	}

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				oid := oids[(w+r*writers)%objects]
				err := db.RunTx(func(tx *Tx) error {
					o, err := tx.Deref(oid)
					if err != nil {
						return err
					}
					q := o.MustGet("qty").Int() + 1
					o.MustSet("qty", Int(q))
					o.MustSet("price", Float(float64(q)))
					return tx.Update(oid, o)
				})
				if err != nil {
					fail("writer: %v", err)
					return
				}
			}
		}(w)
	}
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				oid := oids[(rd+r)%objects]
				err := db.View(func(tx *Tx) error {
					o, err := tx.Deref(oid)
					if err != nil {
						return err
					}
					q := o.MustGet("qty").Int()
					p := o.MustGet("price").Float()
					if float64(q) != p {
						fail("torn read: qty %d, price %g", q, p)
					}
					return nil
				})
				if err != nil {
					fail("reader: %v", err)
					return
				}
			}
		}(rd)
	}
	wg.Wait()

	// The cache must be warm and the counters coherent.
	st := db.Stats()
	if st.Object.CacheHits == 0 {
		t.Error("stress run never hit the decoded-object cache")
	}
	if st.Object.CacheInvalidations == 0 {
		t.Error("updates never invalidated the cache")
	}
	// Every committed increment must be visible.
	var total int64
	err := db.View(func(tx *Tx) error {
		for _, oid := range oids {
			o, err := tx.Deref(oid)
			if err != nil {
				return err
			}
			total += o.MustGet("qty").Int()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(writers * rounds); total != want {
		t.Errorf("committed increments = %d, want %d", total, want)
	}
}

// TestCacheInvalidationNoStaleDeref is the pointed version of the
// stress test: one object, an update, then concurrent Derefs — none may
// observe the pre-update image once Commit returned.
func TestCacheInvalidationNoStaleDeref(t *testing.T) {
	db, stock := openTestDB(t, nil)
	oid := addItem(t, db, stock, "widget", 1, 1)

	// Warm the cache with the old image.
	if err := db.View(func(tx *Tx) error {
		_, err := tx.Deref(oid)
		return err
	}); err != nil {
		t.Fatal(err)
	}

	for round := int64(2); round <= 50; round++ {
		err := db.RunTx(func(tx *Tx) error {
			o, err := tx.Deref(oid)
			if err != nil {
				return err
			}
			o.MustSet("qty", Int(round))
			return tx.Update(oid, o)
		})
		if err != nil {
			t.Fatal(err)
		}
		// Commit returned: the update is applied and its locks are
		// released. Every reader from here on must see the new value.
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				err := db.View(func(tx *Tx) error {
					o, err := tx.Deref(oid)
					if err != nil {
						return err
					}
					if got := o.MustGet("qty").Int(); got != round {
						t.Errorf("stale Deref: qty = %d, want %d", got, round)
					}
					return nil
				})
				if err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	if db.Stats().Object.CacheInvalidations == 0 {
		t.Error("no invalidations recorded")
	}
}

// TestParallelQueryOnSharedDB runs parallel foralls from multiple
// goroutines while the pool and cache serve them concurrently.
func TestParallelQueryOnSharedDB(t *testing.T) {
	db, stock := openTestDB(t, nil)
	const n = 300
	for i := 0; i < n; i++ {
		addItem(t, db, stock, fmt.Sprintf("item-%d", i), int64(i), float64(i))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := db.View(func(tx *Tx) error {
				got, err := Forall(tx, stock).
					SuchThat(Field("qty").Ge(Int(100))).
					Parallel(4).Count()
				if err != nil {
					return err
				}
				if got != n-100 {
					return fmt.Errorf("parallel count = %d, want %d", got, n-100)
				}
				return nil
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if db.Stats().Query.ParallelForalls == 0 {
		t.Error("no parallel foralls recorded")
	}
}

// TestForallRacingDelete scans an extent while another transaction
// creates and deletes rows in it. A scan lists OIDs before it locks
// them, so a listed row can be deleted and committed before the scan's
// Deref reaches it; that row is gone, not an error. The permanent rows
// must all be counted every time.
func TestForallRacingDelete(t *testing.T) {
	db, stock := openTestDB(t, &Options{NoSync: true})
	const permanent = 32
	for i := 0; i < permanent; i++ {
		addItem(t, db, stock, fmt.Sprintf("keep-%d", i), int64(i), 0)
	}
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var oid OID
			err := db.RunTx(func(tx *Tx) (err error) {
				oid, err = tx.PNew(stock, NewObject(stock))
				return err
			})
			if err == nil {
				err = db.RunTx(func(tx *Tx) error { return tx.PDelete(oid) })
			}
			if err != nil {
				t.Errorf("churn: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 500; i++ {
		err := db.View(func(tx *Tx) error {
			got, err := Forall(tx, stock).Count()
			if err == nil && (got < permanent || got > permanent+1) {
				err = fmt.Errorf("counted %d rows, want %d or %d", got, permanent, permanent+1)
			}
			return err
		})
		if err != nil {
			t.Errorf("scan %d: %v", i, err)
			break
		}
	}
	close(stop)
	churn.Wait()
}
