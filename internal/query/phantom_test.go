package query

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ode/internal/core"
	"ode/internal/txn"
)

// An extent scan holds S on each cluster it lists until its
// transaction ends, so a writer into a counted cluster waits for the
// scanner instead of slipping a phantom between two counts.

// waitUntil polls cond for up to five seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not within 5s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// phantomRace counts with count in tx A, starts writer in tx B, and
// requires B to wait on cluster c's word while A counts again and gets
// the same number; once A ends, B commits and a fresh count is after.
func phantomRace(t *testing.T, u *university, c *core.Class, count func(*txn.Tx) (int, error), writer func(*txn.Tx) error, after int) {
	t.Helper()
	a := u.engine.Begin()
	defer a.Abort()
	first, err := count(a)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		b := u.engine.Begin()
		if err := writer(b); err != nil {
			b.Abort()
			done <- err
			return
		}
		done <- b.Commit()
	}()
	key := txn.ClusterLockOID(c.ID())
	waitUntil(t, "the writer waiting on the counted cluster", func() bool { return u.engine.Locks().Waiting(key) == 1 })
	select {
	case err := <-done:
		t.Fatalf("the writer finished (err %v) while the scanner held its cluster", err)
	default:
	}
	second, err := count(a)
	if err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Fatalf("second count %d, first %d: a phantom", second, first)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("the writer after the scanner ended: %v", err)
	}
	c2 := u.engine.Begin()
	defer c2.Abort()
	if n, err := count(c2); err != nil || n != after {
		t.Fatalf("count after both = %d (err %v), want %d", n, err, after)
	}
}

func TestCountBlocksPhantomInsert(t *testing.T) {
	u := newUniversity(t)
	u.seed(t)
	phantomRace(t, u, u.person,
		func(tx *txn.Tx) (int, error) { return Forall(tx, u.person).Count() },
		func(tx *txn.Tx) error {
			_, err := tx.PNew(u.person, nil)
			return err
		}, 11)
}

func TestCountBlocksPhantomDelete(t *testing.T) {
	u := newUniversity(t)
	oids := u.seed(t)
	phantomRace(t, u, u.person,
		func(tx *txn.Tx) (int, error) { return Forall(tx, u.person).Count() },
		func(tx *txn.Tx) error { return tx.PDelete(oids["p3"]) }, 9)
}

// person* visits the student and faculty clusters too, and the count
// holds S on each of them, not only on the cluster it starts from.
func TestHierarchyAndParallelCountsBlockPhantoms(t *testing.T) {
	u := newUniversity(t)
	u.seed(t)
	phantomRace(t, u, u.student,
		func(tx *txn.Tx) (int, error) { return Forall(tx, u.person).Subtypes().Count() },
		func(tx *txn.Tx) error {
			_, err := tx.PNew(u.student, nil)
			return err
		}, 19)
	phantomRace(t, u, u.faculty,
		func(tx *txn.Tx) (int, error) { return Forall(tx, u.person).Subtypes().Count() },
		func(tx *txn.Tx) error {
			_, err := tx.PNew(u.faculty, nil)
			return err
		}, 20)
}

// A scan followed by an update in one transaction: the sole holder of
// the cluster upgrades to X at once; two scanners that both update
// deadlock — each upgrade waits for the other's S — and exactly one is
// the victim, after which the other commits.
func TestScanThenUpdate(t *testing.T) {
	u := newUniversity(t)
	oids := u.seed(t)
	key := txn.ClusterLockOID(u.person.ID())
	bump := func(tx *txn.Tx, name string) error {
		o, err := tx.Deref(oids[name])
		if err != nil {
			return err
		}
		o.MustSet("income", core.Int(o.MustGet("income").Int()+1))
		return tx.Update(oids[name], o)
	}

	sole := u.engine.Begin()
	if _, err := Forall(sole, u.person).Count(); err != nil {
		t.Fatal(err)
	}
	if err := bump(sole, "p1"); err != nil {
		t.Fatal(err)
	}
	if got := u.engine.Locks().HeldLocks(sole.ID())[key]; got != txn.Exclusive {
		t.Errorf("sole scanner that updates holds its cluster %s, want X", got)
	}
	if err := sole.Commit(); err != nil {
		t.Fatal(err)
	}

	deadlocks := &u.engine.Metrics().Txn.Deadlocks
	before := deadlocks.Load()
	a, b := u.engine.Begin(), u.engine.Begin()
	defer a.Abort()
	defer b.Abort()
	for _, tx := range []*txn.Tx{a, b} {
		if n, err := Forall(tx, u.person).Count(); err != nil || n != 10 {
			t.Fatalf("count = %d, %v", n, err)
		}
	}
	aDone := make(chan error, 1)
	go func() { aDone <- bump(a, "p2") }()
	waitUntil(t, "the first upgrade waiting", func() bool { return u.engine.Locks().Waiting(key) == 1 })
	if err := bump(b, "p3"); !errors.Is(err, txn.ErrDeadlock) {
		t.Fatalf("second scanner's update = %v, want ErrDeadlock", err)
	}
	b.Abort()
	if err := <-aDone; err != nil {
		t.Fatalf("surviving scanner's update: %v", err)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := deadlocks.Load() - before; got != 1 {
		t.Errorf("txn.deadlocks moved by %d, want 1", got)
	}
}

// starveRace keeps workers transactions running loop on overlapping
// schedules — each one's lock on the cluster held a millisecond, so
// there is never a moment when none holds it — and requires probe, a
// transaction wanting a conflicting mode on the same cluster, to get in
// and finish within a bound instead of waiting for a gap that never
// comes.
func starveRace(t *testing.T, u *university, workers int, loop, probe func(*txn.Tx) error) {
	t.Helper()
	var rounds atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tx := u.engine.Begin()
				err := loop(tx)
				time.Sleep(time.Millisecond)
				if err == nil {
					err = tx.Commit()
				} else {
					tx.Abort()
				}
				if err != nil {
					t.Error(err)
					return
				}
				rounds.Add(1)
			}
		}()
	}
	defer func() { close(stop); wg.Wait() }()
	waitUntil(t, "the loops overlapping", func() bool { return rounds.Load() >= int64(4*workers) })

	done := make(chan error, 1)
	go func() {
		tx := u.engine.Begin()
		if err := probe(tx); err != nil {
			tx.Abort()
			done <- err
			return
		}
		done <- tx.Commit()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("starved: the probe did not get the cluster within 5s")
	}
}

// A count waiting for S is not starved by writers whose IX overlap: a
// writer that arrives after it queues behind it.
func TestCountNotStarvedByWriters(t *testing.T) {
	u := newUniversity(t)
	u.seed(t)
	starveRace(t, u, 4,
		func(tx *txn.Tx) error {
			_, err := tx.PNew(u.person, nil)
			return err
		},
		func(tx *txn.Tx) error {
			_, err := Forall(tx, u.person).Count()
			return err
		})
}

// The mirror: a create waiting for IX is not starved by counts whose S
// overlap.
func TestWriterNotStarvedByScanners(t *testing.T) {
	u := newUniversity(t)
	u.seed(t)
	starveRace(t, u, 4,
		func(tx *txn.Tx) error {
			_, err := Forall(tx, u.person).Count()
			return err
		},
		func(tx *txn.Tx) error {
			_, err := tx.PNew(u.person, nil)
			return err
		})
}
