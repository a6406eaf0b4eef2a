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
			if err := lm.Acquire(context.Background(), newHeld(1), key, held); err != nil {
				t.Fatal(err)
			}
			if got, want := lm.TryAcquire(newHeld(2), key, req), grantable[[2]LockMode{held, req}]; got != want {
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
		lm, h1 := NewLockManager(), newHeld(1)
		if err := lm.Acquire(bg, h1, key, pair[0]); err != nil {
			t.Fatal(err)
		}
		if err := lm.Acquire(bg, h1, key, pair[1]); err != nil {
			t.Fatal(err)
		}
		if got := lm.HeldLocks(h1)[key]; got != Exclusive {
			t.Errorf("%s then %s by the sole holder: holds %s, want X", pair[0], pair[1], got)
		}
	}

	lm, h1, h2 := NewLockManager(), newHeld(1), newHeld(2)
	for _, hl := range []*heldList{h1, h2} {
		if err := lm.Acquire(bg, hl, key, Shared); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- lm.Acquire(bg, h1, key, IntentExclusive) }()
	lockWaitUntil(t, func() bool { return lm.Waiting(key) == 1 })
	lm.ReleaseAll(h2)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := lm.HeldLocks(h1)[key]; got != Exclusive {
		t.Errorf("upgrade after the other scanner left: holds %s, want X", got)
	}
}

// txn.lock_grants counts fresh grants once, at release: re-acquires
// and upgrades add nothing, and granting adds nothing until then. Each
// OID ends with one word, held once and released once.
func TestLockGrantsCountedAtRelease(t *testing.T) {
	type req struct {
		oid  core.OID
		mode LockMode
	}
	// Overlapping runs: most OIDs of 1..1000 are requested three times,
	// some of them as an upgrade.
	var overlap []req
	for run := 0; run < 8; run++ {
		for i := 0; i < 400; i++ {
			overlap = append(overlap, req{core.OID(1 + (run*400/3+i)%1000), LockMode(i % 2)})
		}
	}
	for _, c := range []struct {
		name   string
		reqs   []req
		grants int
	}{
		{"two rows and a cluster", []req{{1, Shared}, {2, Exclusive}, {1, Shared}, {1, Exclusive}, {ClusterLockOID(1), IntentExclusive}}, 3},
		{"re-acquires and upgrades", overlap, 1000},
	} {
		lm, hl := NewLockManager(), newHeld(9)
		for _, r := range c.reqs {
			if err := lm.Acquire(context.Background(), hl, r.oid, r.mode); err != nil {
				t.Fatal(err)
			}
		}
		if got := lm.met.LockGrants.Load(); got != 0 {
			t.Fatalf("%s: lock_grants before release = %d, want 0", c.name, got)
		}
		if held, busy := len(lm.HeldLocks(hl)), busyWords(t, lm); held != c.grants || busy != c.grants {
			t.Fatalf("%s: HeldLocks reports %d OIDs, the table %d busy words; want %d", c.name, held, busy, c.grants)
		}
		if visited := lm.releaseAll(hl); visited != c.grants {
			t.Fatalf("%s: release visited %d lock words, want one per OID (%d)", c.name, visited, c.grants)
		}
		if n := busyWords(t, lm); n != 0 {
			t.Fatalf("%s: lock table holds %d busy words after release, want 0", c.name, n)
		}
		if got := lm.met.LockGrants.Load(); got != uint64(c.grants) {
			t.Fatalf("%s: lock_grants after release = %d, want %d", c.name, got, c.grants)
		}
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
	if _, held := reader.HeldLocks()[key]; held {
		t.Error("a point reader holds the cluster word")
	}
	reader.Abort()

	dropper := e.Begin()
	if err := dropper.DeleteVersion(core.VRef{OID: a, Version: 0}); err != nil {
		t.Fatal(err)
	}
	if _, held := dropper.HeldLocks()[key]; held {
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
	if got := writer.HeldLocks()[key]; got != IntentExclusive {
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
// never reads around a writer. A covered Borrow is held to the same
// rule and takes the same locks.
func TestDerefCoveredNeedsClusterS(t *testing.T) {
	e, item := newTestEngine(t)
	seed := e.Begin()
	a, _ := seed.PNew(item, newItem(item, "a", 1))
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	reads := map[string]func(tx *Tx, oid core.OID) (*core.Object, error){
		"DerefCovered": (*Tx).DerefCovered,
		"Borrow": func(tx *Tx, oid core.OID) (*core.Object, error) {
			o, _, err := tx.Borrow(oid, true)
			return o, err
		},
	}
	for name, read := range reads {
		tx := e.Begin()
		if _, err := read(tx, a); err == nil {
			t.Fatalf("%s without a cluster lock succeeded", name)
		}
		if covered, err := tx.LockCluster(item); err != nil || !covered {
			t.Fatalf("LockCluster = %v, %v", covered, err)
		}
		o, err := read(tx, a)
		if err != nil || o.MustGet("name").Str() != "a" {
			t.Fatalf("%s = %v, %v", name, o, err)
		}
		if _, held := tx.HeldLocks()[a]; held {
			t.Errorf("%s locked its row", name)
		}
		if _, err := read(tx, core.OID(999)); !errors.Is(err, object.ErrNoObject) {
			t.Errorf("%s of a missing row = %v, want ErrNoObject", name, err)
		}
		tx.Abort()
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
	if held := tx.HeldLocks(); len(held) != 0 {
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
