package txn

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ode/internal/core"
	"ode/internal/object"
	"ode/internal/storage"
	"ode/internal/wal"
)

// newTestEngine builds an engine over a fresh database with a small
// schema: item(name string, qty int >= 0).
func newTestEngine(t testing.TB) (*Engine, *core.Class) {
	t.Helper()
	schema := core.NewSchema()
	item := core.NewClass("item").
		Field("name", core.TString).
		Field("qty", core.TInt).
		Constraint("nonneg", "qty >= 0", func(_ core.Store, o *core.Object) (bool, error) {
			return o.MustGet("qty").Int() >= 0, nil
		}).
		Register(schema)

	dir := t.TempDir()
	fs, err := storage.CreateFile(filepath.Join(dir, "db.odb"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	pool := storage.NewPool(fs, 128, nil, nil)
	mgr, err := object.Create(schema, fs, pool)
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.CreateCluster(item); err != nil {
		t.Fatal(err)
	}
	log, err := wal.Open(filepath.Join(dir, "db.wal"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	return NewEngine(mgr, log), item
}

func newItem(c *core.Class, name string, qty int64) *core.Object {
	o := core.NewObject(c)
	o.MustSet("name", core.Str(name))
	o.MustSet("qty", core.Int(qty))
	return o
}

func TestCommitMakesWritesVisible(t *testing.T) {
	e, item := newTestEngine(t)
	tx := e.Begin()
	oid, err := tx.PNew(item, newItem(item, "bolt", 10))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2 := e.Begin()
	defer tx2.Abort()
	o, err := tx2.Deref(oid)
	if err != nil {
		t.Fatal(err)
	}
	if o.MustGet("qty").Int() != 10 {
		t.Error("committed state wrong")
	}
}

func TestAbortDiscardsWrites(t *testing.T) {
	e, item := newTestEngine(t)
	tx := e.Begin()
	oid, _ := tx.PNew(item, newItem(item, "bolt", 10))
	tx.Abort()
	tx2 := e.Begin()
	defer tx2.Abort()
	if _, err := tx2.Deref(oid); !errors.Is(err, object.ErrNoObject) {
		t.Errorf("aborted object visible: %v", err)
	}
	if n, _ := e.Manager().ClusterSize(item); n != 0 {
		t.Errorf("extent size %d after abort", n)
	}
}

func TestUncommittedInvisibleToOthers(t *testing.T) {
	// Under strict 2PL another transaction that touches an uncommitted
	// object's id blocks on the creator's X-lock; it observes either
	// "does not exist" (after abort) or the committed state — never the
	// uncommitted one.
	e, item := newTestEngine(t)
	tx := e.Begin()
	oid, _ := tx.PNew(item, newItem(item, "bolt", 10))
	got := make(chan error, 1)
	go func() {
		tx2 := e.Begin()
		defer tx2.Abort()
		_, err := tx2.Deref(oid)
		got <- err
	}()
	select {
	case err := <-got:
		t.Fatalf("reader did not block on the creator's lock: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	tx.Abort()
	if err := <-got; !errors.Is(err, object.ErrNoObject) {
		t.Errorf("after abort, reader saw: %v", err)
	}
}

func TestReadYourOwnWrites(t *testing.T) {
	e, item := newTestEngine(t)
	tx := e.Begin()
	defer tx.Abort()
	oid, _ := tx.PNew(item, newItem(item, "bolt", 10))
	o, err := tx.Deref(oid)
	if err != nil {
		t.Fatal(err)
	}
	o.MustSet("qty", core.Int(99))
	if err := tx.Update(oid, o); err != nil {
		t.Fatal(err)
	}
	o2, _ := tx.Deref(oid)
	if o2.MustGet("qty").Int() != 99 {
		t.Error("own write not visible")
	}
}

func TestDerefReturnsPrivateCopy(t *testing.T) {
	e, item := newTestEngine(t)
	tx := e.Begin()
	oid, _ := tx.PNew(item, newItem(item, "bolt", 10))
	tx.Commit()

	tx2 := e.Begin()
	defer tx2.Abort()
	o, _ := tx2.Deref(oid)
	o.MustSet("qty", core.Int(777)) // mutate without Update
	o2, _ := tx2.Deref(oid)
	if o2.MustGet("qty").Int() == 777 {
		t.Error("unpublished mutation leaked into the transaction view")
	}
}

func TestConstraintViolationAbortsCommit(t *testing.T) {
	e, item := newTestEngine(t)
	tx := e.Begin()
	oid, err := tx.PNew(item, newItem(item, "bolt", 5))
	if err != nil {
		t.Fatal(err)
	}
	o, _ := tx.Deref(oid)
	o.MustSet("qty", core.Int(-1))
	if err := tx.Update(oid, o); err != nil {
		t.Fatal(err)
	}
	err = tx.Commit()
	if !errors.Is(err, ErrConstraintViolation) {
		t.Fatalf("Commit = %v, want constraint violation", err)
	}
	if tx.Active() || tx.Committed() {
		t.Error("transaction should be aborted")
	}
	// Nothing persisted.
	tx2 := e.Begin()
	defer tx2.Abort()
	if _, err := tx2.Deref(oid); !errors.Is(err, object.ErrNoObject) {
		t.Error("constraint-violating object persisted")
	}
}

func TestPDeleteAndCreateDeleteInSameTx(t *testing.T) {
	e, item := newTestEngine(t)
	tx := e.Begin()
	oid, _ := tx.PNew(item, newItem(item, "a", 1))
	tx.Commit()

	// Delete committed object.
	tx2 := e.Begin()
	if err := tx2.PDelete(oid); err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Deref(oid); !errors.Is(err, object.ErrNoObject) {
		t.Error("deleted object visible in same tx")
	}
	tx2.Commit()
	tx3 := e.Begin()
	if _, err := tx3.Deref(oid); !errors.Is(err, object.ErrNoObject) {
		t.Error("delete did not commit")
	}
	// Create + delete in one tx leaves nothing.
	oid2, _ := tx3.PNew(item, newItem(item, "b", 1))
	if err := tx3.PDelete(oid2); err != nil {
		t.Fatal(err)
	}
	tx3.Commit()
	if n, _ := e.Manager().ClusterSize(item); n != 0 {
		t.Errorf("extent = %d, want 0", n)
	}
}

func TestPNewRequiresCluster(t *testing.T) {
	e, _ := newTestEngine(t)
	other := core.NewClass("orphan").Field("x", core.TInt).Register(e.Manager().Schema())
	tx := e.Begin()
	defer tx.Abort()
	if _, err := tx.PNew(other, nil); !errors.Is(err, object.ErrNoCluster) {
		t.Errorf("PNew without cluster = %v", err)
	}
}

func TestTxDoneErrors(t *testing.T) {
	e, item := newTestEngine(t)
	tx := e.Begin()
	tx.Commit()
	if _, err := tx.PNew(item, nil); !errors.Is(err, ErrTxDone) {
		t.Errorf("PNew on done tx = %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Errorf("double commit = %v", err)
	}
	tx.Abort() // no-op, no panic
}

func TestVersioningInTx(t *testing.T) {
	e, item := newTestEngine(t)
	tx := e.Begin()
	oid, _ := tx.PNew(item, newItem(item, "gear", 1))
	tx.Commit()

	tx2 := e.Begin()
	ref, err := tx2.NewVersion(oid)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Version != 0 {
		t.Errorf("first frozen version = %d, want 0", ref.Version)
	}
	o, _ := tx2.Deref(oid)
	o.MustSet("qty", core.Int(2))
	tx2.Update(oid, o)
	// Within the tx: the frozen version shows the old state.
	old, err := tx2.DerefVersion(ref)
	if err != nil {
		t.Fatal(err)
	}
	if old.MustGet("qty").Int() != 1 {
		t.Error("frozen version shows new state")
	}
	if cur, _ := tx2.CurrentVersion(oid); cur != 1 {
		t.Errorf("current = %d, want 1", cur)
	}
	tx2.Commit()

	// After commit: both versions durable.
	tx3 := e.Begin()
	defer tx3.Abort()
	old, err = tx3.DerefVersion(core.VRef{OID: oid, Version: 0})
	if err != nil || old.MustGet("qty").Int() != 1 {
		t.Fatalf("version 0 after commit: %v", err)
	}
	cur, _ := tx3.Deref(oid)
	if cur.MustGet("qty").Int() != 2 {
		t.Error("current state wrong")
	}
	vs, _ := tx3.Versions(oid)
	if len(vs) != 1 || vs[0] != 0 {
		t.Errorf("Versions = %v", vs)
	}
}

func TestVersionAbortDiscardsSnapshot(t *testing.T) {
	e, item := newTestEngine(t)
	tx := e.Begin()
	oid, _ := tx.PNew(item, newItem(item, "gear", 1))
	tx.Commit()

	tx2 := e.Begin()
	tx2.NewVersion(oid)
	tx2.Abort()

	tx3 := e.Begin()
	defer tx3.Abort()
	if vs, _ := tx3.Versions(oid); len(vs) != 0 {
		t.Errorf("aborted snapshot persisted: %v", vs)
	}
	if cur, _ := tx3.CurrentVersion(oid); cur != 0 {
		t.Errorf("current = %d after aborted newversion", cur)
	}
}

func TestDeleteVersionInTx(t *testing.T) {
	e, item := newTestEngine(t)
	tx := e.Begin()
	oid, _ := tx.PNew(item, newItem(item, "gear", 1))
	tx.Commit()
	tx2 := e.Begin()
	ref, _ := tx2.NewVersion(oid)
	tx2.Commit()

	tx3 := e.Begin()
	if err := tx3.DeleteVersion(ref); err != nil {
		t.Fatal(err)
	}
	if vs, _ := tx3.Versions(oid); len(vs) != 0 {
		t.Errorf("version visible after buffered delete: %v", vs)
	}
	tx3.Commit()
	tx4 := e.Begin()
	defer tx4.Abort()
	if _, err := tx4.DerefVersion(ref); !errors.Is(err, object.ErrNoVersion) {
		t.Errorf("DerefVersion after delete = %v", err)
	}
}

func TestWriteWriteConflictBlocksUntilCommit(t *testing.T) {
	e, item := newTestEngine(t)
	tx := e.Begin()
	oid, _ := tx.PNew(item, newItem(item, "x", 1))
	tx.Commit()

	tx1 := e.Begin()
	o, _ := tx1.Deref(oid)
	o.MustSet("qty", core.Int(2))
	if err := tx1.Update(oid, o); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		tx2 := e.Begin()
		o2, err := tx2.Deref(oid) // S-lock blocks on tx1's X-lock
		if err != nil {
			done <- err
			return
		}
		if got := o2.MustGet("qty").Int(); got != 2 {
			done <- fmt.Errorf("tx2 saw qty=%d, want 2 (committed value)", got)
			return
		}
		tx2.Abort()
		done <- nil
	}()

	select {
	case err := <-done:
		t.Fatalf("reader did not block on writer: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	tx1.Commit()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e, item := newTestEngine(t)
	tx := e.Begin()
	a, _ := tx.PNew(item, newItem(item, "a", 1))
	b, _ := tx.PNew(item, newItem(item, "b", 1))
	tx.Commit()

	tx1 := e.Begin()
	tx2 := e.Begin()
	// tx1 X-locks a, tx2 X-locks b.
	oa, _ := tx1.Deref(a)
	if err := tx1.Update(a, oa); err != nil {
		t.Fatal(err)
	}
	ob, _ := tx2.Deref(b)
	if err := tx2.Update(b, ob); err != nil {
		t.Fatal(err)
	}
	// tx1 waits for b while tx2 asks for a: deadlock.
	var wg sync.WaitGroup
	wg.Add(1)
	errs := make(chan error, 2)
	go func() {
		defer wg.Done()
		if _, err := tx1.Deref(b); err != nil {
			errs <- err
			tx1.Abort()
			return
		}
		errs <- tx1.Commit()
	}()
	time.Sleep(20 * time.Millisecond) // let tx1 block
	if _, err := tx2.Deref(a); err != nil {
		errs <- err
		tx2.Abort()
	} else {
		errs <- tx2.Commit()
	}
	wg.Wait()
	close(errs)
	deadlocks := 0
	for err := range errs {
		if errors.Is(err, ErrDeadlock) {
			deadlocks++
		} else if err != nil {
			t.Errorf("unexpected error: %v", err)
		}
	}
	if deadlocks == 0 {
		t.Fatal("no deadlock detected")
	}
}

func TestConcurrentCounterIncrements(t *testing.T) {
	e, item := newTestEngine(t)
	tx := e.Begin()
	oid, _ := tx.PNew(item, newItem(item, "ctr", 0))
	tx.Commit()

	// Every worker reads then upgrades, so all but one attempt in a
	// round of contenders is a deadlock victim. Retrying at once keeps
	// the victims in lockstep (on one CPU under -race, for minutes), so
	// back off as ode.RetryBackoff does — capped exponential envelope,
	// jittered — and give up after a bounded number of attempts.
	const workers, rounds, maxAttempts = 8, 25, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for r := 0; r < rounds; r++ {
				done := false
				for attempt := 0; attempt < maxAttempts && !done; attempt++ {
					if attempt > 0 {
						envelope := 100 * time.Microsecond << min(attempt, 6)
						time.Sleep(envelope/2 + time.Duration(rng.Int63n(int64(envelope/2))))
					}
					tx := e.Begin()
					o, err := tx.Deref(oid)
					if err != nil {
						tx.Abort()
						continue
					}
					o.MustSet("qty", core.Int(o.MustGet("qty").Int()+1))
					if err := tx.Update(oid, o); err != nil {
						tx.Abort()
						if errors.Is(err, ErrDeadlock) {
							continue
						}
						t.Error(err)
						return
					}
					done = tx.Commit() == nil
				}
				if !done {
					t.Errorf("worker %d round %d: no commit in %d attempts", w, r, maxAttempts)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	tx2 := e.Begin()
	defer tx2.Abort()
	o, err := tx2.Deref(oid)
	if err != nil {
		t.Fatal(err)
	}
	if got := o.MustGet("qty").Int(); got != workers*rounds {
		t.Fatalf("counter = %d, want %d (lost updates)", got, workers*rounds)
	}
}

func TestCommitsSurviveReplay(t *testing.T) {
	// Simulate a crash: commit transactions, then rebuild a fresh
	// manager and replay the WAL into it.
	schema := core.NewSchema()
	item := core.NewClass("item").
		Field("name", core.TString).
		Field("qty", core.TInt).
		Register(schema)
	dir := t.TempDir()
	fs, _ := storage.CreateFile(filepath.Join(dir, "db.odb"))
	pool := storage.NewPool(fs, 128, nil, nil)
	mgr, _ := object.Create(schema, fs, pool)
	mgr.CreateCluster(item)
	log, _ := wal.Open(filepath.Join(dir, "db.wal"))
	e := NewEngine(mgr, log)

	tx := e.Begin()
	oid, _ := tx.PNew(item, newItem(item, "x", 42))
	tx.Commit()
	tx2 := e.Begin()
	o, _ := tx2.Deref(oid)
	o.MustSet("qty", core.Int(43))
	tx2.Update(oid, o)
	tx2.Commit()
	// Crash: drop the manager without checkpoint; build a fresh store
	// and replay.
	fs.Close()
	log.Close()

	fs2, _ := storage.CreateFile(filepath.Join(dir, "db2.odb"))
	defer fs2.Close()
	pool2 := storage.NewPool(fs2, 128, nil, nil)
	schema2 := core.NewSchema()
	item2 := core.NewClass("item").
		Field("name", core.TString).
		Field("qty", core.TInt).
		Register(schema2)
	mgr2, _ := object.Create(schema2, fs2, pool2)
	mgr2.CreateCluster(item2)
	log2, err := wal.Open(filepath.Join(dir, "db.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	if err := log2.Replay(func(op *wal.Op) error {
		if op.OID != 0 {
			if err := mgr2.NoteOID(core.OID(op.OID)); err != nil {
				return err
			}
		}
		return mgr2.Apply(op)
	}); err != nil {
		t.Fatal(err)
	}
	got, _, err := mgr2.Get(oid)
	if err != nil {
		t.Fatal(err)
	}
	if got.MustGet("qty").Int() != 43 {
		t.Errorf("replayed qty = %d, want 43", got.MustGet("qty").Int())
	}
	if next, err := mgr2.AllocOID(); err != nil || next <= oid {
		t.Errorf("OID allocator not advanced by replay: %d (%v)", next, err)
	}
}

func TestLockUpgradeSharedToExclusive(t *testing.T) {
	e, item := newTestEngine(t)
	tx := e.Begin()
	oid, _ := tx.PNew(item, newItem(item, "u", 1))
	tx.Commit()

	// Two concurrent readers, then one upgrades: the upgrade must wait
	// for the other reader, not deadlock against it.
	tx1 := e.Begin()
	tx2 := e.Begin()
	if _, err := tx1.Deref(oid); err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Deref(oid); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		o, _ := tx1.Deref(oid)
		o.MustSet("qty", core.Int(9))
		if err := tx1.Update(oid, o); err != nil { // S -> X upgrade
			done <- err
			tx1.Abort()
			return
		}
		done <- tx1.Commit()
	}()
	select {
	case err := <-done:
		t.Fatalf("upgrade did not wait for the other reader: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	tx2.Abort() // release the S lock; the upgrade proceeds
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	tx3 := e.Begin()
	defer tx3.Abort()
	o, _ := tx3.Deref(oid)
	if o.MustGet("qty").Int() != 9 {
		t.Error("upgraded write lost")
	}
}

func TestUpgradeDeadlockDetected(t *testing.T) {
	e, item := newTestEngine(t)
	tx := e.Begin()
	oid, _ := tx.PNew(item, newItem(item, "ud", 1))
	tx.Commit()

	// Both transactions hold S and both try to upgrade: a classic
	// deadlock one of them must lose.
	tx1 := e.Begin()
	tx2 := e.Begin()
	tx1.Deref(oid)
	tx2.Deref(oid)
	errs := make(chan error, 2)
	upgrade := func(tx *Tx) {
		o, err := tx.Deref(oid)
		if err != nil {
			errs <- err
			tx.Abort()
			return
		}
		o.MustSet("qty", core.Int(2))
		if err := tx.Update(oid, o); err != nil {
			errs <- err
			tx.Abort()
			return
		}
		errs <- tx.Commit()
	}
	go upgrade(tx1)
	time.Sleep(20 * time.Millisecond)
	go upgrade(tx2)
	var deadlocks, oks int
	for i := 0; i < 2; i++ {
		switch err := <-errs; {
		case err == nil:
			oks++
		case errors.Is(err, ErrDeadlock):
			deadlocks++
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if deadlocks < 1 || oks < 1 {
		t.Fatalf("deadlocks=%d oks=%d, want at least one of each", deadlocks, oks)
	}
}
