package ode

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ode/internal/failpoint"
)

// The shared crashAfter/reopen helpers live in crashtest_test.go.

func TestRecoveryReplaysCommittedTransactions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crash.odb")
	var oids []OID
	crashAfter(t, path, func(db *DB, stock *Class) {
		for i := 0; i < 25; i++ {
			oids = append(oids, addItem(t, db, stock, fmt.Sprintf("c%d", i), int64(i), float64(i)))
		}
	})
	db, _ := reopen(t, path)
	err := db.View(func(tx *Tx) error {
		for i, oid := range oids {
			o, err := tx.Deref(oid)
			if err != nil {
				return fmt.Errorf("object %d lost: %w", i, err)
			}
			if o.MustGet("qty").Int() != int64(i) {
				return fmt.Errorf("object %d state wrong", i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryAfterUpdatesAndDeletes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crash.odb")
	var keep, gone OID
	crashAfter(t, path, func(db *DB, stock *Class) {
		keep = addItem(t, db, stock, "keep", 1, 1)
		gone = addItem(t, db, stock, "gone", 2, 2)
		db.RunTx(func(tx *Tx) error {
			o, _ := tx.Deref(keep)
			o.MustSet("qty", Int(99))
			return tx.Update(keep, o)
		})
		db.RunTx(func(tx *Tx) error { return tx.PDelete(gone) })
	})
	db, stock := reopen(t, path)
	db.View(func(tx *Tx) error {
		o, err := tx.Deref(keep)
		if err != nil {
			t.Fatalf("keep lost: %v", err)
		}
		if o.MustGet("qty").Int() != 99 {
			t.Errorf("update lost: qty=%d", o.MustGet("qty").Int())
		}
		if _, err := tx.Deref(gone); err == nil {
			t.Error("deleted object resurrected")
		}
		n, _ := Forall(tx, stock).Count()
		if n != 1 {
			t.Errorf("extent = %d, want 1", n)
		}
		return nil
	})
}

func TestRecoveryPreservesVersions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crash.odb")
	var oid OID
	var ref VRef
	crashAfter(t, path, func(db *DB, stock *Class) {
		oid = addItem(t, db, stock, "v", 1, 1)
		db.RunTx(func(tx *Tx) error {
			var err error
			ref, err = tx.NewVersion(oid)
			if err != nil {
				return err
			}
			o, _ := tx.Deref(oid)
			o.MustSet("qty", Int(2))
			return tx.Update(oid, o)
		})
	})
	db, _ := reopen(t, path)
	db.View(func(tx *Tx) error {
		old, err := tx.DerefVersion(ref)
		if err != nil {
			t.Fatalf("version lost: %v", err)
		}
		if old.MustGet("qty").Int() != 1 {
			t.Error("version state wrong")
		}
		cur, _ := tx.Deref(oid)
		if cur.MustGet("qty").Int() != 2 {
			t.Error("current state wrong")
		}
		return nil
	})
}

func TestRecoveryAfterCheckpointPlusTail(t *testing.T) {
	// Work before a checkpoint (durable in pages) plus work after it
	// (only in the WAL): recovery must merge both.
	path := filepath.Join(t.TempDir(), "crash.odb")
	var early, late OID
	crashAfter(t, path, func(db *DB, stock *Class) {
		early = addItem(t, db, stock, "early", 10, 1)
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		late = addItem(t, db, stock, "late", 20, 2)
		// Also update the early object post-checkpoint.
		db.RunTx(func(tx *Tx) error {
			o, _ := tx.Deref(early)
			o.MustSet("qty", Int(11))
			return tx.Update(early, o)
		})
	})
	db, stock := reopen(t, path)
	db.View(func(tx *Tx) error {
		eo, err := tx.Deref(early)
		if err != nil {
			t.Fatalf("early lost: %v", err)
		}
		if eo.MustGet("qty").Int() != 11 {
			t.Errorf("early qty = %d, want 11", eo.MustGet("qty").Int())
		}
		lo, err := tx.Deref(late)
		if err != nil {
			t.Fatalf("late lost: %v", err)
		}
		if lo.MustGet("qty").Int() != 20 {
			t.Error("late state wrong")
		}
		n, _ := Forall(tx, stock).Count()
		if n != 2 {
			t.Errorf("extent = %d", n)
		}
		return nil
	})
}

func TestRecoveryRebuildsIndexes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crash.odb")
	crashAfter(t, path, func(db *DB, stock *Class) {
		if err := db.CreateIndex(stock, "qty"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 30; i++ {
			addItem(t, db, stock, fmt.Sprintf("i%d", i), int64(i), 1)
		}
	})
	db, stock := reopen(t, path)
	db.View(func(tx *Tx) error {
		q := Forall(tx, stock).SuchThat(Field("qty").Ge(Int(25)))
		n, err := q.Count()
		if err != nil {
			t.Fatal(err)
		}
		if n != 5 {
			t.Errorf("indexed query after recovery = %d, want 5", n)
		}
		if q.Plan() == "" || q.Plan()[0] != 'i' {
			t.Errorf("plan = %q, want index scan (index rebuilt)", q.Plan())
		}
		return nil
	})
}

func TestRecoveryOIDAllocatorAdvances(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crash.odb")
	var last OID
	crashAfter(t, path, func(db *DB, stock *Class) {
		for i := 0; i < 5; i++ {
			last = addItem(t, db, stock, fmt.Sprintf("o%d", i), 1, 1)
		}
	})
	db, stock := reopen(t, path)
	fresh := addItem(t, db, stock, "fresh", 1, 1)
	if fresh <= last {
		t.Fatalf("OID %d reused after recovery (last was %d)", fresh, last)
	}
}

func TestRecoveryActivationsSurvive(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crash.odb")
	var oid OID
	crashAfter(t, path, func(db *DB, stock *Class) {
		oid = addItem(t, db, stock, "armed", 100, 1)
		err := db.RunTx(func(tx *Tx) error {
			_, err := db.Triggers().Activate(tx, oid, "reorder", Int(10), Int(100))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	db, _ := reopen(t, path)
	if n := len(db.Triggers().ActiveOn(oid)); n != 1 {
		t.Fatalf("activations after recovery = %d, want 1", n)
	}
}

func TestCleanShutdownSkipsRebuild(t *testing.T) {
	path := filepath.Join(t.TempDir(), "clean.odb")
	db, stock := openInventory(t, path)
	addItem(t, db, stock, "x", 1, 1)
	db.Close()
	// No rebuild artifacts should exist and the WAL must be empty.
	if _, err := os.Stat(path + ".rebuild"); !os.IsNotExist(err) {
		t.Error("rebuild artifact left behind")
	}
	// A truncated WAL is not zero bytes: it keeps the replication base
	// record (LSN + replication id), and nothing else.
	fi, err := os.Stat(path + ".wal")
	if err != nil || fi.Size() == 0 || fi.Size() >= 128 {
		t.Errorf("wal size = %v after clean close, want only the base record", fi)
	}
	// The clean file reopens with its row.
	db2, stock2 := openInventory(t, path)
	if err := db2.View(func(tx *Tx) error {
		n, err := Forall(tx, stock2).Count()
		if err == nil && n != 1 {
			err = fmt.Errorf("reopened clean file holds %d stockitems, want 1", n)
		}
		return err
	}); err != nil {
		t.Error(err)
	}
}

func TestRepeatedCrashesConverge(t *testing.T) {
	path := filepath.Join(t.TempDir(), "multi.odb")
	total := 0
	for round := 0; round < 4; round++ {
		crashAfter(t, path, func(db *DB, stock *Class) {
			for i := 0; i < 10; i++ {
				addItem(t, db, stock, fmt.Sprintf("r%d-%d", round, i), int64(i), 1)
				total++
			}
		})
	}
	db, stock := reopen(t, path)
	db.View(func(tx *Tx) error {
		n, err := Forall(tx, stock).Count()
		if err != nil {
			t.Fatal(err)
		}
		if n != total {
			t.Errorf("extent = %d after %d crashes, want %d", n, 4, total)
		}
		return nil
	})
}

// RemoveFiles owns the list of files a database consists of: after a
// crash whose recovery rebuild is itself interrupted — the state with
// the most files on disk, scratch file included — it leaves the
// directory empty.
func TestRemoveFilesAfterInterruptedRebuild(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "gone.odb")
	crashAfter(t, path, func(db *DB, stock *Class) {
		for i := 0; i < 20; i++ {
			addItem(t, db, stock, fmt.Sprintf("item-%d", i), int64(i), 1)
		}
	})
	// Kill the rebuild while it writes the fresh file.
	if err := failpoint.Arm("storage.page_write", failpoint.Spec{Action: failpoint.ActError, OneShot: true}); err != nil {
		t.Fatal(err)
	}
	schema, _ := inventorySchema()
	db, err := Open(path, schema, nil)
	failpoint.DisarmAll()
	if err == nil {
		db.Close()
		t.Fatal("Open survived a fault armed inside the recovery rebuild")
	}
	if _, err := os.Stat(path + ".rebuild"); err != nil {
		t.Fatalf("interrupted rebuild left no scratch file: %v", err)
	}
	if err := RemoveFiles(path); err != nil {
		t.Fatal(err)
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("RemoveFiles left %s behind", e.Name())
	}
	if err := RemoveFiles(path); err != nil {
		t.Errorf("RemoveFiles on an already removed database: %v", err)
	}
}
