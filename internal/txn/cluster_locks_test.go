package txn

import (
	"context"
	"errors"
	"testing"

	"ode/internal/core"
	"ode/internal/object"
)

// Cluster words: the S/IX/X matrix, same-transaction upgrades (no
// SIX), the grant counter, and which Tx operations take what.

func TestClusterModeMatrix(t *testing.T) {
	modes := []LockMode{Shared, IntentExclusive, Exclusive}
	grantable := map[[2]LockMode]bool{
		{Shared, Shared}:                   true,
		{IntentExclusive, IntentExclusive}: true,
	}
	key := ClusterLockOID(3)
	for _, held := range modes {
		for _, req := range modes {
			lm := NewLockManager()
			if err := lm.Acquire(context.Background(), 1, key, held); err != nil {
				t.Fatal(err)
			}
			if got, want := lm.TryAcquire(2, key, req), grantable[[2]LockMode{held, req}]; got != want {
				t.Errorf("%s held, %s requested by another tx: granted %v, want %v", held, req, got, want)
			}
		}
	}
}

// A transaction holding one of S and IX that asks for the other gets X
// when it is the sole holder — there is no SIX — and waits otherwise.
func TestClusterUpgradeIsExclusive(t *testing.T) {
	bg := context.Background()
	key := ClusterLockOID(3)
	for _, pair := range [][2]LockMode{{Shared, IntentExclusive}, {IntentExclusive, Shared}} {
		lm := NewLockManager()
		if err := lm.Acquire(bg, 1, key, pair[0]); err != nil {
			t.Fatal(err)
		}
		if err := lm.Acquire(bg, 1, key, pair[1]); err != nil {
			t.Fatal(err)
		}
		if got := lm.HeldLocks(1)[key]; got != Exclusive {
			t.Errorf("%s then %s by the sole holder: holds %s, want X", pair[0], pair[1], got)
		}
	}

	lm := NewLockManager()
	for _, txid := range []uint64{1, 2} {
		if err := lm.Acquire(bg, txid, key, Shared); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- lm.Acquire(bg, 1, key, IntentExclusive) }()
	lockWaitUntil(t, func() bool { return lm.Waiting(key) == 1 })
	lm.ReleaseAll(2)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := lm.HeldLocks(1)[key]; got != Exclusive {
		t.Errorf("upgrade after the other scanner left: holds %s, want X", got)
	}
}

// txn.lock_grants counts fresh grants once, at release: re-acquires
// and upgrades add nothing, and granting adds nothing until then.
func TestLockGrantsCountedAtRelease(t *testing.T) {
	lm := NewLockManager()
	bg := context.Background()
	for _, r := range []struct {
		oid  core.OID
		mode LockMode
	}{{1, Shared}, {2, Exclusive}, {1, Shared}, {1, Exclusive}, {ClusterLockOID(1), IntentExclusive}} {
		if err := lm.Acquire(bg, 9, r.oid, r.mode); err != nil {
			t.Fatal(err)
		}
	}
	if got := lm.met.LockGrants.Load(); got != 0 {
		t.Fatalf("lock_grants before release = %d, want 0", got)
	}
	lm.ReleaseAll(9)
	if got := lm.met.LockGrants.Load(); got != 3 {
		t.Fatalf("lock_grants after release = %d, want 3 (two rows, one cluster)", got)
	}
}

// Every writer but DeleteVersion takes IX on the object's cluster, once
// per transaction; point reads take no cluster word at all.
func TestWritersTakeClusterIXOnce(t *testing.T) {
	e, item := newTestEngine(t)
	seed := e.Begin()
	a, err := seed.PNew(item, newItem(item, "a", 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seed.NewVersion(a); err != nil {
		t.Fatal(err)
	}
	b, _ := seed.PNew(item, newItem(item, "b", 2))
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	key := ClusterLockOID(item.ID())

	reader := e.Begin()
	if _, err := reader.Deref(a); err != nil {
		t.Fatal(err)
	}
	if _, err := reader.Versions(a); err != nil {
		t.Fatal(err)
	}
	if _, held := e.Locks().HeldLocks(reader.ID())[key]; held {
		t.Error("a point reader holds the cluster word")
	}
	reader.Abort()

	dropper := e.Begin()
	if err := dropper.DeleteVersion(core.VRef{OID: a, Version: 0}); err != nil {
		t.Fatal(err)
	}
	if _, held := e.Locks().HeldLocks(dropper.ID())[key]; held {
		t.Error("DeleteVersion took the cluster word")
	}
	dropper.Abort()

	writer := e.Begin()
	before := e.Metrics().Txn.LockGrants.Load()
	if _, err := writer.PNew(item, newItem(item, "c", 3)); err != nil {
		t.Fatal(err)
	}
	o, err := writer.Deref(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := writer.Update(a, o); err != nil {
		t.Fatal(err)
	}
	if _, err := writer.NewVersion(a); err != nil {
		t.Fatal(err)
	}
	if err := writer.PDelete(b); err != nil {
		t.Fatal(err)
	}
	if got := e.Locks().HeldLocks(writer.ID())[key]; got != IntentExclusive {
		t.Errorf("writer holds the cluster in %s, want IX", got)
	}
	if err := writer.Commit(); err != nil {
		t.Fatal(err)
	}
	// Rows: the create, a (S then X: one grant) and b; one cluster word.
	if got := e.Metrics().Txn.LockGrants.Load() - before; got != 4 {
		t.Errorf("writer's lock_grants = %d, want 4", got)
	}
}

// A covered read needs its cluster held S or X by the transaction: it
// never reads around a writer.
func TestDerefCoveredNeedsClusterS(t *testing.T) {
	e, item := newTestEngine(t)
	seed := e.Begin()
	a, _ := seed.PNew(item, newItem(item, "a", 1))
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	tx := e.Begin()
	defer tx.Abort()
	if _, err := tx.DerefCovered(a); err == nil {
		t.Fatal("covered read without a cluster lock succeeded")
	}
	if covered, err := tx.LockCluster(item); err != nil || !covered {
		t.Fatalf("LockCluster = %v, %v", covered, err)
	}
	o, err := tx.DerefCovered(a)
	if err != nil || o.MustGet("name").Str() != "a" {
		t.Fatalf("covered read = %v, %v", o, err)
	}
	if _, held := e.Locks().HeldLocks(tx.ID())[a]; held {
		t.Error("a covered read locked its row")
	}
	if _, err := tx.DerefCovered(core.OID(999)); !errors.Is(err, object.ErrNoObject) {
		t.Errorf("covered read of a missing row = %v, want ErrNoObject", err)
	}
}

// On one shard of a group a scan's cluster S could close a cycle with
// a cross-shard writer that no shard's detector sees, so LockCluster
// takes nothing there and reports that the rows need their own locks.
func TestShardLockClusterDeclines(t *testing.T) {
	e, item := newTestEngine(t)
	e.SetShardSlot(0)
	tx := e.Begin()
	defer tx.Abort()
	if covered, err := tx.LockCluster(item); err != nil || covered {
		t.Fatalf("LockCluster on a shard = %v, %v; want false, nil", covered, err)
	}
	if held := e.Locks().HeldLocks(tx.ID()); len(held) != 0 {
		t.Fatalf("LockCluster on a shard took %v", held)
	}
}

// PDelete checks that its object exists under the row's X; a delete
// that commits while it waits for the row must make it fail, not buffer
// a second delete of an object that is gone.
func TestPDeleteAfterConcurrentDelete(t *testing.T) {
	e, item := newTestEngine(t)
	seed := e.Begin()
	a, _ := seed.PNew(item, newItem(item, "a", 1))
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	first := e.Begin()
	if err := first.PDelete(a); err != nil {
		t.Fatal(err)
	}
	second := e.Begin()
	defer second.Abort()
	done := make(chan error, 1)
	go func() { done <- second.PDelete(a) }()
	lockWaitUntil(t, func() bool { return e.Locks().Waiting(a) == 1 })
	if err := first.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, object.ErrNoObject) {
		t.Fatalf("second PDelete after the first committed = %v, want ErrNoObject", err)
	}
}
