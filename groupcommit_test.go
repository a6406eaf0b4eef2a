package ode

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"ode/internal/failpoint"
	"ode/internal/wal"
)

// TestGroupCommitConcurrentCommitters pins the basic group-commit
// promise under contention: parallel committers all succeed, every
// acked commit is durable across a crash, and at least one fsync was
// shared (group size > group count would fail the sharing claim only
// on a pathologically serialized run, so the assertion is on the
// totals, not the ratio).
func TestGroupCommitConcurrentCommitters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gc.odb")
	const (
		workers = 8
		each    = 5
	)
	var mu sync.Mutex
	acked := make(map[OID]string)

	crashAfter(t, path, func(db *DB, stock *Class) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < each; i++ {
					name := fmt.Sprintf("w%d-%d", w, i)
					var oid OID
					err := db.RunTx(func(tx *Tx) error {
						o := NewObject(stock)
						o.MustSet("name", Str(name))
						o.MustSet("qty", Int(1))
						o.MustSet("price", Float(1))
						var err error
						oid, err = tx.PNew(stock, o)
						return err
					})
					if err != nil {
						t.Errorf("commit %s: %v", name, err)
						return
					}
					mu.Lock()
					acked[oid] = name
					mu.Unlock()
				}
			}()
		}
		wg.Wait()

		wm := &db.Metrics().WAL
		if got := wm.GroupCommitSize.Load(); got < uint64(workers*each) {
			t.Errorf("group_commit_size=%d, want >= %d", got, workers*each)
		}
		if wm.GroupCommits.Load() == 0 {
			t.Error("no group commits counted")
		}
	})

	db, _ := reopen(t, path)
	db.View(func(tx *Tx) error {
		for oid, name := range acked {
			o, err := tx.Deref(oid)
			if err != nil {
				t.Errorf("acked commit %s lost after crash: %v", name, err)
				continue
			}
			if got := o.MustGet("name").Str(); got != name {
				t.Errorf("oid %d: name=%q, want %q", oid, got, name)
			}
		}
		return nil
	})
}

// TestGroupCommitFsyncFaultStress is the satellite stress test: many
// concurrent committers share fsyncs while one fsync in the middle of
// the run fails. The required outcome for every committer is binary —
// a durable success or a typed error (ErrWALPoisoned, carrying the
// injected root cause); a silent lost commit, i.e. an acked commit
// missing after crash recovery, fails the test. Run under -race this
// also exercises the leader/follower handoff.
func TestGroupCommitFsyncFaultStress(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gcfault.odb")
	const (
		workers = 8
		each    = 10
	)
	var mu sync.Mutex
	acked := make(map[OID]string)

	crashAfter(t, path, func(db *DB, stock *Class) {
		// Let some commits through, then fail exactly one fsync. Every
		// transaction in that fsync's group — and every commit after it
		// — must surface the poison.
		if err := failpoint.Arm("wal.fsync", failpoint.Spec{
			Action:  failpoint.ActError,
			AfterN:  5,
			OneShot: true,
		}); err != nil {
			t.Fatal(err)
		}
		defer failpoint.DisarmAll()

		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < each; i++ {
					name := fmt.Sprintf("w%d-%d", w, i)
					var oid OID
					err := db.RunTx(func(tx *Tx) error {
						o := NewObject(stock)
						o.MustSet("name", Str(name))
						o.MustSet("qty", Int(1))
						o.MustSet("price", Float(1))
						var err error
						oid, err = tx.PNew(stock, o)
						return err
					})
					if err != nil {
						// The one acceptable failure shape: typed
						// poison. Anything else is a bug.
						if !errors.Is(err, wal.ErrWALPoisoned) {
							t.Errorf("commit %s: untyped failure %v", name, err)
						}
						return
					}
					mu.Lock()
					acked[oid] = name
					mu.Unlock()
				}
			}()
		}
		wg.Wait()

		// The log is poisoned for good: even with the failpoint gone, a
		// later commit must keep failing typed rather than ack against
		// unknown durability.
		failpoint.DisarmAll()
		err := db.RunTx(func(tx *Tx) error {
			o := NewObject(stock)
			o.MustSet("name", Str("after-poison"))
			o.MustSet("qty", Int(1))
			o.MustSet("price", Float(1))
			_, err := tx.PNew(stock, o)
			return err
		})
		if !errors.Is(err, wal.ErrWALPoisoned) {
			t.Errorf("commit after poison: err=%v, want ErrWALPoisoned", err)
		}
	})

	// Crash recovery replays what is actually on disk. Every commit
	// that was acked durable must be there.
	db, _ := reopen(t, path)
	db.View(func(tx *Tx) error {
		for oid, name := range acked {
			if _, err := tx.Deref(oid); err != nil {
				t.Errorf("acked commit %s silently lost: %v", name, err)
			}
		}
		return nil
	})
}
