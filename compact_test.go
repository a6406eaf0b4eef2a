package ode

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"ode/internal/failpoint"
)

// compactChurn inserts n stock items and deletes every oid where
// keep(i) is false, returning the survivors as oid -> expected qty.
func compactChurn(t *testing.T, db *DB, stock *Class, n int, keep func(i int) bool) map[OID]int64 {
	t.Helper()
	oids := make([]OID, n)
	for i := 0; i < n; i++ {
		oids[i] = addItem(t, db, stock, fmt.Sprintf("item-%04d", i), int64(i), 1.0)
	}
	survivors := make(map[OID]int64)
	for i, oid := range oids {
		if keep(i) {
			survivors[oid] = int64(i)
			continue
		}
		oid := oid
		if err := db.RunTx(func(tx *Tx) error { return tx.PDelete(oid) }); err != nil {
			t.Fatal(err)
		}
	}
	return survivors
}

func checkSurvivors(t *testing.T, db *DB, survivors map[OID]int64) {
	t.Helper()
	if err := db.RunTx(func(tx *Tx) error {
		for oid, qty := range survivors {
			o, err := tx.Deref(oid)
			if err != nil {
				return fmt.Errorf("deref %d: %w", oid, err)
			}
			if got := o.MustGet("qty").Int(); got != qty {
				return fmt.Errorf("oid %d: qty %d, want %d", oid, got, qty)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestCompactReclaimsPages(t *testing.T) {
	db, stock := openTestDB(t, nil)
	// 9 of 10 records deleted leaves most heap pages nearly empty.
	survivors := compactChurn(t, db, stock, 2000, func(i int) bool { return i%10 == 0 })
	// Pin a few frozen versions so the version index is exercised too.
	var versioned []VRef
	for oid := range survivors {
		oid := oid
		var ref VRef
		if err := db.RunTx(func(tx *Tx) error {
			var err error
			ref, err = tx.NewVersion(oid)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		versioned = append(versioned, ref)
		if len(versioned) >= 20 {
			break
		}
	}

	pagesBefore := db.Pages()
	stats, err := db.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if stats.PagesReclaimed == 0 {
		t.Fatalf("Compact reclaimed no pages after 90%% deletes: %+v", stats)
	}
	if stats.RecordsMoved == 0 {
		t.Fatalf("Compact moved no records: %+v", stats)
	}
	sm := &db.Metrics().Storage
	if got := sm.PagesReclaimed.Load(); got != uint64(stats.PagesReclaimed) {
		t.Fatalf("storage.pages_reclaimed = %d, want %d", got, stats.PagesReclaimed)
	}
	if got := sm.Compactions.Load(); got != 1 {
		t.Fatalf("storage.compactions = %d, want 1", got)
	}
	checkSurvivors(t, db, survivors)
	for _, ref := range versioned {
		if err := db.RunTx(func(tx *Tx) error {
			_, err := tx.DerefVersion(ref)
			return err
		}); err != nil {
			t.Fatalf("version %v after compact: %v", ref, err)
		}
	}

	// The freed pages must be reusable: inserting a fresh batch of the
	// same volume should grow the file far less than the batch would
	// cost from fresh pages.
	pagesAfterCompact := db.Pages()
	for i := 0; i < 1800; i++ {
		addItem(t, db, stock, fmt.Sprintf("refill-%04d", i), int64(i), 2.0)
	}
	growth := int(db.Pages()) - int(pagesAfterCompact)
	if growth > stats.PagesReclaimed/2 {
		t.Fatalf("refill grew file by %d pages despite %d reclaimed (before compact: %d pages)",
			growth, stats.PagesReclaimed, pagesBefore)
	}

	// Everything must survive a clean reopen.
	path := db.path
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	schema, _ := inventorySchema()
	db2, err := Open(path, schema, nil)
	if err != nil {
		t.Fatalf("reopen after compact: %v", err)
	}
	defer db2.Close()
	checkSurvivors(t, db2, survivors)
}

// TestCompactLargerThanPool is the larger-than-RAM acceptance test: a
// dataset many times the buffer pool survives mass delete, online
// compaction, a read of every survivor through the too-small pool, a
// refill into the reclaimed pages and a second compaction.
func TestCompactLargerThanPool(t *testing.T) {
	const pool = 32
	db, stock := openTestDB(t, &Options{NoSync: true, PoolPages: pool})
	// Names padded to 96 bytes put about 40 records on a 4 KiB page, so
	// 400 per pool frame is about ten times the pool.
	const n = pool * 400
	insert := func(count int) []OID { // qty = position
		oids := make([]OID, 0, count)
		for start := 0; start < count; start += 500 {
			if err := db.RunTx(func(tx *Tx) error {
				oids = oids[:start]
				for i := start; i < min(start+500, count); i++ {
					o := NewObject(stock)
					o.MustSet("name", Str(fmt.Sprintf("%-96s", fmt.Sprintf("item-%07d", i))))
					o.MustSet("qty", Int(int64(i)))
					o.MustSet("price", Float(1))
					oid, err := tx.PNew(stock, o)
					if err != nil {
						return err
					}
					oids = append(oids, oid)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		return oids
	}
	oids := insert(n)
	if pages := db.Pages(); int(pages) < 5*pool {
		t.Fatalf("dataset is not larger than the pool: %d pages vs %d frames", pages, pool)
	}

	// Delete a seeded 85 %, which leaves every heap page sparse.
	order := rand.New(rand.NewSource(1)).Perm(n)
	doomed, kept := order[:n*85/100], order[n*85/100:]
	for start := 0; start < len(doomed); start += 500 {
		if err := db.RunTx(func(tx *Tx) error {
			for _, i := range doomed[start:min(start+500, len(doomed))] {
				if err := tx.PDelete(oids[i]); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	survivors := make(map[OID]int64, len(kept))
	for _, i := range kept {
		survivors[oids[i]] = int64(i)
	}
	checkSurvivors(t, db, survivors)

	insert(n / 4)
	if _, err := db.Compact(); err != nil {
		t.Fatalf("second Compact: %v", err)
	}
	checkSurvivors(t, db, survivors)
	sm := &db.Metrics().Storage
	if sm.Compactions.Load() != 2 || sm.PagesReclaimed.Load() == 0 {
		t.Fatalf("storage.compactions = %d, storage.pages_reclaimed = %d; want 2 and > 0", sm.Compactions.Load(), sm.PagesReclaimed.Load())
	}
}

func TestCompactEmptyAndIdempotent(t *testing.T) {
	db, stock := openTestDB(t, nil)
	if _, err := db.Compact(); err != nil {
		t.Fatalf("Compact on near-empty db: %v", err)
	}
	survivors := compactChurn(t, db, stock, 300, func(i int) bool { return i%3 == 0 })
	s1, err := db.Compact()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := db.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if s2.PagesReclaimed > s1.PagesReclaimed {
		t.Fatalf("second pass reclaimed more than first: %+v then %+v", s1, s2)
	}
	checkSurvivors(t, db, survivors)
}

func TestCompactRefusedOnReplica(t *testing.T) {
	db, _ := openTestDB(t, nil)
	db.engine.SetReadOnly(true)
	defer db.engine.SetReadOnly(false)
	if _, err := db.Compact(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Compact on read-only engine = %v, want ErrReadOnly", err)
	}
}

// TestCompactCrash kills the process mid-compaction at each failpoint
// site and verifies recovery: survivors readable with correct state,
// and a follow-up pass still reclaims the space.
func TestCompactCrash(t *testing.T) {
	for _, site := range []string{"storage.compact_move", "storage.compact_free"} {
		site := site
		t.Run(site, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "crash.odb")
			schema, stock := inventorySchema()
			db, err := Open(path, schema, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := db.CreateCluster(stock); err != nil {
				t.Fatal(err)
			}
			survivors := compactChurn(t, db, stock, 1200, func(i int) bool { return i%8 == 0 })

			// Fire on a mid-pass hit so some moves are already on disk.
			if err := failpoint.Arm(site, failpoint.Spec{
				Action: failpoint.ActError, AfterN: 7, OneShot: true,
			}); err != nil {
				t.Fatal(err)
			}
			_, err = db.Compact()
			failpoint.DisarmAll()
			if !errors.Is(err, failpoint.ErrInjected) {
				t.Fatalf("Compact with armed %s = %v, want injected fault", site, err)
			}
			db.CrashForTesting()

			db2, err := Open(path, schema, nil)
			if err != nil {
				t.Fatalf("reopen after crashed compaction: %v", err)
			}
			defer db2.Close()
			checkSurvivors(t, db2, survivors)
			if _, err := db2.Compact(); err != nil {
				t.Fatalf("compact after recovery: %v", err)
			}
			checkSurvivors(t, db2, survivors)
		})
	}
}

// TestCompactConcurrent races a compaction pass against live write
// traffic; run under -race it checks the locking story, and the final
// scan checks no record was lost or duplicated.
func TestCompactConcurrent(t *testing.T) {
	db, stock := openTestDB(t, nil)
	survivors := compactChurn(t, db, stock, 1500, func(i int) bool { return i%6 == 0 })

	const workers = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var mine []OID
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch {
				case len(mine) > 0 && rng.Intn(3) == 0:
					oid := mine[len(mine)-1]
					mine = mine[:len(mine)-1]
					if err := db.RunTx(func(tx *Tx) error { return tx.PDelete(oid) }); err != nil {
						errs <- err
						return
					}
				default:
					var oid OID
					err := db.RunTx(func(tx *Tx) error {
						o := NewObject(stock)
						o.MustSet("name", Str(fmt.Sprintf("w%d-%d", w, i)))
						o.MustSet("qty", Int(int64(i)))
						o.MustSet("price", Float(1))
						var err error
						oid, err = tx.PNew(stock, o)
						return err
					})
					if err != nil {
						errs <- err
						return
					}
					mine = append(mine, oid)
				}
			}
		}(w)
	}
	for pass := 0; pass < 3; pass++ {
		if _, err := db.Compact(); err != nil {
			close(stop)
			wg.Wait()
			t.Fatalf("Compact under traffic: %v", err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("worker: %v", err)
	}
	checkSurvivors(t, db, survivors)
}
