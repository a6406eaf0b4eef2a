package txn

import (
	"context"
	"errors"
	"testing"
	"time"

	"ode/internal/core"
	"ode/internal/obs"
)

// Edge paths of the lock manager: upgrades racing upgrades, victim
// selection with bystander waiters, and the accounting left behind by
// abandoned (canceled / timed-out) waits. Run with -race.

func lockWaitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 2s")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// Two transactions both hold S and both request the upgrade to X. One
// must lose the deadlock (each waits on the other); after the victim
// releases, the survivor's upgrade completes.
func TestUpgradeRaceConcurrentUpgraders(t *testing.T) {
	lm := NewLockManager()
	bg := context.Background()
	const oid = core.OID(7)
	if err := lm.Acquire(bg, 1, oid, Shared); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(bg, 2, oid, Shared); err != nil {
		t.Fatal(err)
	}

	first := make(chan error, 1)
	go func() { first <- lm.Acquire(bg, 1, oid, Exclusive) }()
	lockWaitUntil(t, func() bool { return lm.Waiting(oid) == 1 })

	// The second upgrader closes the cycle and is the victim.
	err := lm.Acquire(bg, 2, oid, Exclusive)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("second upgrader = %v, want ErrDeadlock", err)
	}
	lm.ReleaseAll(2) // victim aborts

	if err := <-first; err != nil {
		t.Fatalf("surviving upgrader = %v, want nil", err)
	}
	if got := lm.HeldLocks(1)[oid]; got != Exclusive {
		t.Fatalf("survivor holds %v, want X", got)
	}
	lm.ReleaseAll(1)
	if n := lm.TableSize(); n != 0 {
		t.Fatalf("lock table holds %d entries after all releases, want 0", n)
	}
}

// Victim selection must not disturb bystanders: tx3 is queued on a
// lock involved in a tx1/tx2 cycle. tx2 (the requester that closes the
// cycle) is the victim; tx1 and tx3 both complete.
func TestDeadlockVictimSparesQueuedBystander(t *testing.T) {
	lm := NewLockManager()
	bg := context.Background()
	const a, b = core.OID(1), core.OID(2)
	if err := lm.Acquire(bg, 1, a, Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(bg, 2, b, Exclusive); err != nil {
		t.Fatal(err)
	}

	// tx3: bystander queued on a, blocked by tx1.
	bystander := make(chan error, 1)
	go func() { bystander <- lm.Acquire(bg, 3, a, Shared) }()
	lockWaitUntil(t, func() bool { return lm.Waiting(a) == 1 })

	// tx1 blocks on b (held by tx2)...
	cross := make(chan error, 1)
	go func() { cross <- lm.Acquire(bg, 1, b, Exclusive) }()
	lockWaitUntil(t, func() bool { return lm.Waiting(b) == 1 })

	// ...and tx2 requesting a closes the cycle tx2 -> tx1 -> tx2.
	err := lm.Acquire(bg, 2, a, Exclusive)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("cycle-closing request = %v, want ErrDeadlock", err)
	}
	lm.ReleaseAll(2)

	if err := <-cross; err != nil {
		t.Fatalf("tx1 after victim released = %v, want nil", err)
	}
	lm.ReleaseAll(1)
	if err := <-bystander; err != nil {
		t.Fatalf("bystander = %v, want nil", err)
	}
	if got := lm.HeldLocks(3)[a]; got != Shared {
		t.Fatalf("bystander holds %v, want S", got)
	}
	lm.ReleaseAll(3)
	if n := lm.TableSize(); n != 0 {
		t.Fatalf("lock table holds %d entries after all releases, want 0", n)
	}
}

// A canceled wait must roll its bookkeeping back: the waiting counter
// returns to zero, the waiter holds nothing, and once the holder
// releases, the table entry is gone.
func TestCanceledWaitAccounting(t *testing.T) {
	lm := NewLockManager()
	bg := context.Background()
	const oid = core.OID(9)
	if err := lm.Acquire(bg, 1, oid, Exclusive); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(bg)
	waiter := make(chan error, 1)
	go func() { waiter <- lm.Acquire(ctx, 2, oid, Shared) }()
	lockWaitUntil(t, func() bool { return lm.Waiting(oid) == 1 })

	cancel()
	err := <-waiter
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled wait = %v, want ErrCanceled", err)
	}
	if n := lm.Waiting(oid); n != 0 {
		t.Fatalf("Waiting = %d after canceled wait, want 0", n)
	}
	if held := lm.HeldLocks(2); len(held) != 0 {
		t.Fatalf("canceled waiter holds %v, want nothing", held)
	}
	if n := lm.TableSize(); n != 1 {
		t.Fatalf("lock table holds %d entries (holder still live), want 1", n)
	}
	lm.ReleaseAll(1)
	if n := lm.TableSize(); n != 0 {
		t.Fatalf("lock table holds %d entries after holder released, want 0", n)
	}
}

// A wait that times out on the deadline returns ErrTxTimeout and the
// lock stays acquirable by others.
func TestTimedOutWaitReturnsTimeout(t *testing.T) {
	lm := NewLockManager()
	bg := context.Background()
	const oid = core.OID(3)
	if err := lm.Acquire(bg, 1, oid, Exclusive); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(bg, 20*time.Millisecond)
	defer cancel()
	if err := lm.Acquire(ctx, 2, oid, Shared); !errors.Is(err, ErrTxTimeout) {
		t.Fatalf("timed-out wait = %v, want ErrTxTimeout", err)
	}
	lm.ReleaseAll(1)
	// The object is free again.
	if err := lm.Acquire(bg, 3, oid, Exclusive); err != nil {
		t.Fatal(err)
	}
	lm.ReleaseAll(3)
}

// An already-dead context fast-fails before sleeping and must not leak
// waits-for edges or waiting counts.
func TestDeadContextFastFails(t *testing.T) {
	lm := NewLockManager()
	bg := context.Background()
	const oid = core.OID(4)
	if err := lm.Acquire(bg, 1, oid, Exclusive); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(bg)
	cancel()
	start := time.Now()
	if err := lm.Acquire(ctx, 2, oid, Shared); !errors.Is(err, ErrCanceled) {
		t.Fatalf("dead-context acquire = %v, want ErrCanceled", err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("dead-context acquire slept %v, want immediate return", elapsed)
	}
	if n := lm.Waiting(oid); n != 0 {
		t.Fatalf("Waiting = %d, want 0", n)
	}
	lm.ReleaseAll(1)
	if n := lm.TableSize(); n != 0 {
		t.Fatalf("lock table holds %d entries, want 0", n)
	}
}

// --- Governor ----------------------------------------------------------

func TestGovernorSlotsQueueReject(t *testing.T) {
	met := &obs.TxnMetrics{}
	g := NewGovernor(2, 1, met)
	bg := context.Background()
	if got := g.Capacity(); got != 2 {
		t.Fatalf("Capacity = %d, want 2", got)
	}
	if err := g.Acquire(bg); err != nil {
		t.Fatal(err)
	}
	if err := g.Acquire(bg); err != nil {
		t.Fatal(err)
	}
	if got := g.Active(); got != 2 {
		t.Fatalf("Active = %d, want 2", got)
	}

	// Third caller queues...
	queued := make(chan error, 1)
	go func() { queued <- g.Acquire(bg) }()
	lockWaitUntil(t, func() bool { return met.AdmissionQueued.Load() == 1 })

	// ...fourth overflows the queue and is rejected immediately.
	if err := g.Acquire(bg); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-queue acquire = %v, want ErrOverloaded", err)
	}
	if got := met.AdmissionRejects.Load(); got != 1 {
		t.Fatalf("AdmissionRejects = %d, want 1", got)
	}

	// A release admits the queued caller.
	g.Release()
	if err := <-queued; err != nil {
		t.Fatalf("queued acquire = %v, want nil", err)
	}
	if got := met.AdmissionQueued.Load(); got != 0 {
		t.Fatalf("AdmissionQueued = %d after admit, want 0", got)
	}
	g.Release()
	g.Release()
	if got := g.Active(); got != 0 {
		t.Fatalf("Active = %d after releases, want 0", got)
	}
	if got := met.AdmissionActive.Load(); got != 0 {
		t.Fatalf("AdmissionActive gauge = %d, want 0", got)
	}
}

func TestGovernorNoQueueRejectsImmediately(t *testing.T) {
	g := NewGovernor(1, 0, nil)
	bg := context.Background()
	if err := g.Acquire(bg); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := g.Acquire(bg); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("no-queue acquire = %v, want ErrOverloaded", err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("rejection took %v, want immediate", elapsed)
	}
	g.Release()
}

func TestGovernorCancelWhileQueued(t *testing.T) {
	met := &obs.TxnMetrics{}
	g := NewGovernor(1, 4, met)
	bg := context.Background()
	if err := g.Acquire(bg); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(bg)
	queued := make(chan error, 1)
	go func() { queued <- g.Acquire(ctx) }()
	lockWaitUntil(t, func() bool { return met.AdmissionQueued.Load() == 1 })
	cancel()
	if err := <-queued; !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled queued acquire = %v, want ErrCanceled", err)
	}
	if got := met.AdmissionQueued.Load(); got != 0 {
		t.Fatalf("AdmissionQueued = %d after canceled wait, want 0", got)
	}

	// The abandoned queue spot is reusable: a fresh waiter queues and is
	// admitted on release.
	again := make(chan error, 1)
	go func() { again <- g.Acquire(bg) }()
	lockWaitUntil(t, func() bool { return met.AdmissionQueued.Load() == 1 })
	g.Release()
	if err := <-again; err != nil {
		t.Fatalf("requeued acquire = %v, want nil", err)
	}
	g.Release()
}

func TestGovernorDeadlineWhileQueued(t *testing.T) {
	g := NewGovernor(1, 4, nil)
	bg := context.Background()
	if err := g.Acquire(bg); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(bg, 20*time.Millisecond)
	defer cancel()
	if err := g.Acquire(ctx); !errors.Is(err, ErrTxTimeout) {
		t.Fatalf("queued-past-deadline acquire = %v, want ErrTxTimeout", err)
	}
	g.Release()
}

// TryAcquire never waits: against an X holder it refuses at once,
// leaving no waits-for edge, no lock_waits count and nothing held; a
// word somebody is queued on is busy too, so a speculative reader does
// not jump a waiting writer; a grant is an ordinary lock, released by
// ReleaseAll.
func TestTryAcquireNeverWaits(t *testing.T) {
	lm := NewLockManager()
	bg := context.Background()
	const oid, free = core.OID(11), core.OID(12)
	if err := lm.Acquire(bg, 1, oid, Exclusive); err != nil {
		t.Fatal(err)
	}
	done := make(chan bool, 1)
	go func() { done <- lm.TryAcquire(2, oid, Shared) }()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("TryAcquire granted S against an X holder")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("TryAcquire blocked")
	}
	lm.graphMu.Lock()
	edges := len(lm.waitsFor)
	lm.graphMu.Unlock()
	if edges != 0 || lm.met.LockWaits.Load() != 0 || len(lm.HeldLocks(2)) != 0 {
		t.Fatalf("a refused TryAcquire left %d waits-for edges, %d lock waits, holds %v; want none",
			edges, lm.met.LockWaits.Load(), lm.HeldLocks(2))
	}
	lm.ReleaseAll(1)

	// tx 3 holds S, tx 4 queues for X: the word is busy for a speculative S.
	if err := lm.Acquire(bg, 3, oid, Shared); err != nil {
		t.Fatal(err)
	}
	writer := make(chan error, 1)
	go func() { writer <- lm.Acquire(bg, 4, oid, Exclusive) }()
	lockWaitUntil(t, func() bool { return lm.Waiting(oid) == 1 })
	if lm.TryAcquire(5, oid, Shared) {
		t.Fatal("TryAcquire granted S ahead of a queued writer")
	}
	lm.ReleaseAll(3)
	if err := <-writer; err != nil {
		t.Fatal(err)
	}
	lm.ReleaseAll(4)

	if !lm.TryAcquire(6, free, Shared) || !lm.TryAcquire(7, free, Shared) {
		t.Fatal("TryAcquire refused a free or shared word")
	}
	if got := lm.HeldLocks(6)[free]; got != Shared {
		t.Fatalf("granted TryAcquire holds %v, want S", got)
	}
	lm.ReleaseAll(6)
	lm.ReleaseAll(7)
	if n := lm.TableSize(); n != 0 {
		t.Fatalf("lock table holds %d entries after all releases, want 0", n)
	}
}

// TryDeref is Deref that declines instead of waiting: ErrLockBusy on a
// row another transaction writes, the row itself on a free one — and
// the reader's later Deref of the busy row waits as it always has.
func TestTryDerefDeclinesBusyRow(t *testing.T) {
	e, item := newTestEngine(t)
	setup := e.Begin()
	a, _ := setup.PNew(item, newItem(item, "a", 1))
	b, _ := setup.PNew(item, newItem(item, "b", 2))
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	writer := e.Begin()
	if err := writer.Update(a, newItem(item, "a", 10)); err != nil {
		t.Fatal(err)
	}
	reader := e.Begin()
	defer reader.Abort()
	if _, err := reader.TryDeref(a); !errors.Is(err, ErrLockBusy) {
		t.Fatalf("TryDeref of a written row = %v, want ErrLockBusy", err)
	}
	if o, err := reader.TryDeref(b); err != nil || o.MustGet("qty").Int() != 2 {
		t.Fatalf("TryDeref of a free row = %v, %v", o, err)
	}
	if n := e.Metrics().Txn.LockWaits.Load(); n != 0 {
		t.Fatalf("txn.lock_waits = %d after TryDeref, want 0", n)
	}
	got := make(chan int64, 1)
	go func() {
		o, err := reader.Deref(a)
		if err != nil {
			t.Error(err)
		}
		got <- o.MustGet("qty").Int()
	}()
	lockWaitUntil(t, func() bool { return e.Locks().Waiting(a) == 1 })
	if err := writer.Commit(); err != nil {
		t.Fatal(err)
	}
	if qty := <-got; qty != 10 {
		t.Fatalf("Deref after the writer committed = %d, want 10", qty)
	}
}
