package ode

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"ode/internal/failpoint"
	"ode/internal/txn"
)

// txStatus is db.TxStatus(gid) for a gid that has a status.
func txStatus(t testing.TB, db *DB, gid string) string {
	t.Helper()
	st, err := db.TxStatus(gid)
	if err != nil {
		t.Fatalf("TxStatus(%q): %v", gid, err)
	}
	return st
}

// prepItem opens a transaction that creates one item and prepares it
// under gid, returning the new OID.
func prepItem(t testing.TB, db *DB, stock *Class, gid, name string) OID {
	t.Helper()
	tx := db.Begin()
	o := NewObject(stock)
	o.MustSet("name", Str(name))
	o.MustSet("qty", Int(1))
	o.MustSet("price", Float(1))
	oid, err := tx.PNew(stock, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.PrepareTx(tx, gid); err != nil {
		t.Fatal(err)
	}
	return oid
}

func TestPrepareCommitPrepared(t *testing.T) {
	db, stock := openTestDB(t, nil)
	oid := prepItem(t, db, stock, "g-commit", "widget")

	// Prepared: in-doubt, lock-protected, listed. A reader blocks on
	// the prepared write lock rather than observing either outcome.
	if st := txStatus(t, db, "g-commit"); st != TxStatusPrepared {
		t.Fatalf("status = %q, want prepared", st)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	if err := db.ViewCtx(ctx, func(tx *Tx) error {
		_, err := tx.Deref(oid)
		return err
	}); err == nil {
		t.Fatal("prepared write visible before decision")
	}
	cancel()
	list := db.PreparedTxs()
	if len(list) != 1 || list[0].GID != "g-commit" || list[0].Ops != 1 || list[0].Recovered {
		t.Fatalf("PreparedTxs = %+v", list)
	}

	lsn, err := db.CommitPrepared("g-commit")
	if err != nil {
		t.Fatal(err)
	}
	if lsn == 0 {
		t.Fatal("commit LSN = 0 for a write batch")
	}
	if st := txStatus(t, db, "g-commit"); st != TxStatusCommitted {
		t.Fatalf("status = %q, want committed", st)
	}
	// Redelivery is idempotent and answers with the original LSN.
	again, err := db.CommitPrepared("g-commit")
	if err != nil || again != lsn {
		t.Fatalf("redelivery = (%d, %v), want (%d, nil)", again, err, lsn)
	}
	// Applied and unlocked.
	if err := db.RunTx(func(tx *Tx) error {
		o, err := tx.Deref(oid)
		if err != nil {
			return err
		}
		o.MustSet("qty", Int(2))
		return tx.Update(oid, o)
	}); err != nil {
		t.Fatal(err)
	}
}

func TestPrepareAbortPrepared(t *testing.T) {
	db, stock := openTestDB(t, nil)
	oid := prepItem(t, db, stock, "g-abort", "widget")

	if err := db.AbortPrepared("g-abort"); err != nil {
		t.Fatal(err)
	}
	if st := txStatus(t, db, "g-abort"); st != TxStatusAborted {
		t.Fatalf("status = %q, want aborted", st)
	}
	if err := db.View(func(tx *Tx) error {
		_, err := tx.Deref(oid)
		return err
	}); err == nil {
		t.Fatal("aborted prepared write applied")
	}
	// Unknown gids: abort succeeds (presumed abort), commit refuses.
	if err := db.AbortPrepared("never-prepared"); err != nil {
		t.Fatalf("abort unknown gid: %v", err)
	}
	if _, err := db.CommitPrepared("never-prepared"); !errors.Is(err, ErrNoPrepared) {
		t.Fatalf("commit unknown gid = %v, want ErrNoPrepared", err)
	}
	// Commit after abort refuses too: the decision is already made.
	if _, err := db.CommitPrepared("g-abort"); !errors.Is(err, ErrNoPrepared) {
		t.Fatalf("commit after abort = %v, want ErrNoPrepared", err)
	}
}

// TestPreparedHoldsLocks checks the 2PL half of the protocol: a
// prepared transaction's write locks survive until the decision.
func TestPreparedHoldsLocks(t *testing.T) {
	db, stock := openTestDB(t, nil)
	oid := addItem(t, db, stock, "locked", 5, 1)

	tx := db.Begin()
	o, err := tx.Deref(oid)
	if err != nil {
		t.Fatal(err)
	}
	o.MustSet("qty", Int(6))
	if err := tx.Update(oid, o); err != nil {
		t.Fatal(err)
	}
	if err := db.PrepareTx(tx, "g-locks"); err != nil {
		t.Fatal(err)
	}

	// A second writer must block on the prepared lock and time out.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	err = db.RunTxCtx(ctx, func(tx *Tx) error {
		o, err := tx.Deref(oid)
		if err != nil {
			return err
		}
		o.MustSet("qty", Int(9))
		return tx.Update(oid, o)
	})
	cancel()
	if err == nil {
		t.Fatal("conflicting write succeeded while transaction was prepared")
	}

	if _, err := db.CommitPrepared("g-locks"); err != nil {
		t.Fatal(err)
	}
	// Decision released the locks.
	if err := db.View(func(tx *Tx) error {
		o, err := tx.Deref(oid)
		if err != nil {
			return err
		}
		if got := o.MustGet("qty").Int(); got != 6 {
			t.Fatalf("qty = %d, want 6", got)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestPreparedSurvivesCrash is the heart of the participant contract:
// a yes vote, once given, survives a crash — the transaction comes
// back in-doubt with its locks held and its OIDs fenced, and the
// coordinator's decision still lands.
func TestPreparedSurvivesCrash(t *testing.T) {
	path := filepath.Join(t.TempDir(), "prep.odb")
	var oid OID
	crashAfter(t, path, func(db *DB, stock *Class) {
		oid = prepItem(t, db, stock, "s9-crash-1", "phoenix")
	})

	db, stock := reopen(t, path)
	list := db.PreparedTxs()
	if len(list) != 1 || list[0].GID != "s9-crash-1" || !list[0].Recovered {
		t.Fatalf("PreparedTxs after crash = %+v", list)
	}
	if st := txStatus(t, db, "s9-crash-1"); st != TxStatusPrepared {
		t.Fatalf("status = %q, want prepared", st)
	}
	// The recovered in-doubt OID must be fenced against reuse.
	other := addItem(t, db, stock, "bystander", 1, 1)
	if other == oid {
		t.Fatalf("allocator reused in-doubt oid %d", oid)
	}
	if _, err := db.CommitPrepared("s9-crash-1"); err != nil {
		t.Fatal(err)
	}
	if err := db.View(func(tx *Tx) error {
		o, err := tx.Deref(oid)
		if err != nil {
			return err
		}
		if o.MustGet("name").Str() != "phoenix" {
			t.Fatalf("wrong object recovered: %v", o)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveredPreparedBlocksClusterScan: a recovered in-doubt
// transaction holds IX on the cluster it writes, as its live self did,
// so a count over that cluster waits for the decision — it cannot read
// around the in-doubt insert — and then sees the decided state.
func TestRecoveredPreparedBlocksClusterScan(t *testing.T) {
	for _, commit := range []bool{true, false} {
		name := map[bool]string{true: "commit", false: "abort"}[commit]
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "prep.odb")
			crashAfter(t, path, func(db *DB, stock *Class) {
				addItem(t, db, stock, "settled", 1, 1)
				prepItem(t, db, stock, "g-scan", "in-doubt")
			})
			db, stock := reopen(t, path)
			counted := make(chan int, 1)
			go func() {
				n := -1
				if err := db.View(func(tx *Tx) (err error) {
					n, err = Forall(tx, stock).Count()
					return err
				}); err != nil {
					t.Error(err)
				}
				counted <- n
			}()
			key := txn.ClusterLockOID(stock.ID())
			for deadline := time.Now().Add(5 * time.Second); db.engine.Locks().Waiting(key) == 0; {
				if time.Now().After(deadline) {
					t.Fatal("the count did not wait on the recovered transaction's cluster")
				}
				time.Sleep(100 * time.Microsecond)
			}
			select {
			case n := <-counted:
				t.Fatalf("the count finished (%d) while the transaction was in doubt", n)
			default:
			}
			want := 1
			if commit {
				want = 2
				if _, err := db.CommitPrepared("g-scan"); err != nil {
					t.Fatal(err)
				}
			} else if err := db.AbortPrepared("g-scan"); err != nil {
				t.Fatal(err)
			}
			if n := <-counted; n != want {
				t.Fatalf("count after %s = %d, want %d", name, n, want)
			}
		})
	}
}

// TestPreparedSurvivesCleanClose: a clean shutdown does not resolve a
// distributed vote — the prepared record must outlive Close's final
// checkpoint and truncation.
func TestPreparedSurvivesCleanClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "prep.odb")
	schema, stock := inventorySchema()
	db, err := Open(path, schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateCluster(stock); err != nil {
		t.Fatal(err)
	}
	oid := prepItem(t, db, stock, "s9-clean-1", "sleeper")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, _ := reopen(t, path)
	if st := txStatus(t, db2, "s9-clean-1"); st != TxStatusPrepared {
		t.Fatalf("status after clean close = %q, want prepared", st)
	}
	if err := db2.AbortPrepared("s9-clean-1"); err != nil {
		t.Fatal(err)
	}
	if err := db2.View(func(tx *Tx) error {
		if _, err := tx.Deref(oid); err == nil {
			t.Fatal("aborted prepared write applied after clean-close recovery")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestPreparedSurvivesCheckpoint: checkpoints must not truncate away a
// vote, and a committed decision must survive later crashes.
func TestPreparedSurvivesCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "prep.odb")
	var oid OID
	crashAfter(t, path, func(db *DB, stock *Class) {
		oid = prepItem(t, db, stock, "s9-ckpt-1", "durable")
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	})
	db, _ := reopen(t, path)
	if st := txStatus(t, db, "s9-ckpt-1"); st != TxStatusPrepared {
		t.Fatalf("status = %q, want prepared (checkpoint ate the vote?)", st)
	}
	if _, err := db.CommitPrepared("s9-ckpt-1"); err != nil {
		t.Fatal(err)
	}
	if err := db.View(func(tx *Tx) error {
		_, err := tx.Deref(oid)
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

// TestPrepareTimeoutCoordinatorOnly: the orphan timeout may only fire
// on the gid's coordinator shard — a participant holding a foreign
// vote waits for resolution no matter how stale it gets.
func TestPrepareTimeoutCoordinatorOnly(t *testing.T) {
	db, stock := openTestDB(t, &Options{
		ShardCount:     2,
		ShardSlot:      0,
		PrepareTimeout: 50 * time.Millisecond,
	})
	// Coordinator gid (s0- matches our slot): presumed abort fires.
	prepItem(t, db, stock, "s0-own-1", "timed")
	deadline := time.Now().Add(5 * time.Second)
	for txStatus(t, db, "s0-own-1") != TxStatusAborted {
		if time.Now().After(deadline) {
			t.Fatalf("coordinator prepare never timed out; status %q", txStatus(t, db, "s0-own-1"))
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Participant gid (s1- names another coordinator): must stay
	// in-doubt well past the timeout.
	prepItem(t, db, stock, "s1-other-1", "patient")
	time.Sleep(250 * time.Millisecond)
	if st := txStatus(t, db, "s1-other-1"); st != TxStatusPrepared {
		t.Fatalf("participant presumed abort on its own: status %q", st)
	}
	if err := db.AbortPrepared("s1-other-1"); err != nil {
		t.Fatal(err)
	}
}

// TestShardOIDStriding: a sharded node only allocates OIDs that route
// back to it.
func TestShardOIDStriding(t *testing.T) {
	db, stock := openTestDB(t, &Options{ShardCount: 3, ShardSlot: 1})
	for i := 0; i < 10; i++ {
		oid := addItem(t, db, stock, "striped", int64(i), 1)
		if uint64(oid)%3 != 1 {
			t.Fatalf("oid %d does not route to slot 1 of 3", oid)
		}
	}
}

// TestReadOnlyPreparedDecisionSurvivesCrash: the decide record, not
// the batch, is the global commit point — a committed decision for a
// prepared transaction with an empty write set must survive a crash
// (a read-only coordinator is routine: the router picks the lowest
// touched shard, written or not), or in-doubt writer participants
// would later be presumed aborted against an acked commit.
func TestReadOnlyPreparedDecisionSurvivesCrash(t *testing.T) {
	path := filepath.Join(t.TempDir(), "prep.odb")
	crashAfter(t, path, func(db *DB, stock *Class) {
		oid := addItem(t, db, stock, "read", 1, 1)
		tx := db.Begin()
		if _, err := tx.Deref(oid); err != nil {
			t.Fatal(err)
		}
		if err := db.PrepareTx(tx, "s0-ro-crash-1"); err != nil {
			t.Fatal(err)
		}
		lsn, err := db.CommitPrepared("s0-ro-crash-1")
		if err != nil {
			t.Fatal(err)
		}
		if lsn != 0 {
			t.Fatalf("read-only prepared commit LSN = %d, want 0", lsn)
		}
	})
	db, _ := reopen(t, path)
	if st := txStatus(t, db, "s0-ro-crash-1"); st != TxStatusCommitted {
		t.Fatalf("status after crash = %q, want committed", st)
	}
}

// TestPreparedEmptyTx: preparing a read-only transaction votes yes
// with nothing to make durable; both decisions are trivial.
func TestPreparedEmptyTx(t *testing.T) {
	db, stock := openTestDB(t, nil)
	oid := addItem(t, db, stock, "read", 1, 1)

	tx := db.Begin()
	if _, err := tx.Deref(oid); err != nil {
		t.Fatal(err)
	}
	if err := db.PrepareTx(tx, "g-empty"); err != nil {
		t.Fatal(err)
	}
	lsn, err := db.CommitPrepared("g-empty")
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 0 {
		t.Fatalf("read-only prepared commit LSN = %d, want 0", lsn)
	}
}

// TestStagedDecisionIsNotPresumedAborted: once a coordinator's decide
// record is in the log file, a failed fsync leaves the decision's fate
// to recovery, so until the database is reopened it must answer no
// question about the gid with anything a resolver reads as abort
// (ErrNoPrepared, unknown, aborted or prepared). After the crash the
// log answers: the record survived, the transaction committed.
func TestStagedDecisionIsNotPresumedAborted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "staged.odb")
	const gid = "s0-staged-1"
	var oid OID
	crashAfter(t, path, func(db *DB, stock *Class) {
		oid = prepItem(t, db, stock, gid, "staged")
		if err := failpoint.Arm("wal.fsync", failpoint.Spec{Action: failpoint.ActError, OneShot: true}); err != nil {
			t.Fatal(err)
		}
		defer failpoint.DisarmAll()
		if _, err := db.CommitPrepared(gid); !errors.Is(err, ErrUnknownOutcome) {
			t.Fatalf("CommitPrepared with a failing fsync: %v, want ErrUnknownOutcome", err)
		}
		if _, err := db.CommitPrepared(gid); !errors.Is(err, ErrUnknownOutcome) {
			t.Fatalf("redelivered CommitPrepared: %v, want ErrUnknownOutcome", err)
		}
		if err := db.AbortPrepared(gid); !errors.Is(err, ErrUnknownOutcome) {
			t.Fatalf("AbortPrepared: %v, want ErrUnknownOutcome", err)
		}
		if st, err := db.TxStatus(gid); !errors.Is(err, ErrUnknownOutcome) {
			t.Fatalf("TxStatus = %q, %v; want ErrUnknownOutcome", st, err)
		}
	})
	db, _ := reopen(t, path)
	if st := txStatus(t, db, gid); st != TxStatusCommitted {
		t.Fatalf("status after reopen = %q, want committed", st)
	}
	if err := db.View(func(tx *Tx) error { _, err := tx.Deref(oid); return err }); err != nil {
		t.Fatalf("the committed write is missing after reopen: %v", err)
	}
}
