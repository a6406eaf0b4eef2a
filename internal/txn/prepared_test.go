package txn

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"ode/internal/core"
	"ode/internal/failpoint"
	"ode/internal/object"
	"ode/internal/wal"
)

// TestPrepareDuplicateGIDConcurrent: the gid reservation must be
// atomic with the duplicate check — of N concurrent Prepare calls
// racing the same gid, exactly one may win; a second winner would
// overwrite the first's prepared entry, orphaning its locks and WAL
// record.
func TestPrepareDuplicateGIDConcurrent(t *testing.T) {
	e, item := newTestEngine(t)
	const workers = 8
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tx := e.Begin()
			if _, err := tx.PNew(item, newItem(item, fmt.Sprintf("dup-%d", w), 1)); err != nil {
				errs[w] = err
				return
			}
			errs[w] = e.Prepare(tx, "g-dup-race")
		}(w)
	}
	wg.Wait()
	won := 0
	for w, err := range errs {
		if err == nil {
			won++
		} else if !strings.Contains(err.Error(), "already in use") {
			t.Fatalf("worker %d failed with %v, want the duplicate-gid error", w, err)
		}
	}
	if won != 1 {
		t.Fatalf("%d Prepare calls won gid %q, want exactly 1", won, "g-dup-race")
	}
	if n := e.PreparedCount(); n != 1 {
		t.Fatalf("prepared table holds %d entries, want 1", n)
	}
	if err := e.AbortPrepared("g-dup-race"); err != nil {
		t.Fatal(err)
	}
	if n := e.PreparedCount(); n != 0 {
		t.Fatalf("prepared table holds %d entries after abort, want 0", n)
	}
	// The reservation must be fully released: the gid's decision is
	// recorded, so a re-prepare still fails — but with the decided
	// error path, not a leaked pending slot (same message either way,
	// so just check it fails).
	tx := e.Begin()
	if _, err := tx.PNew(item, newItem(item, "late", 1)); err != nil {
		t.Fatal(err)
	}
	if err := e.Prepare(tx, "g-dup-race"); err == nil {
		t.Fatal("re-prepare of a decided gid succeeded")
	}
}

// TestRestageDecisionRetentionByAge: the restage window is time-based
// with a count floor — young decisions survive truncation no matter
// how many newer ones exist (a hot coordinator must not shrink an
// in-doubt participant's resolution window), while decisions past both
// floors retire.
func TestRestageDecisionRetentionByAge(t *testing.T) {
	e, _ := newTestEngine(t)
	const total = maxDecisionRetention + 100
	for i := 0; i < total; i++ {
		e.recordDecision(fmt.Sprintf("g-ret-%d", i), decision{txid: uint64(i + 1), commit: true})
	}
	// All fresh: every decision is younger than the age floor, so all
	// restage — more than the count floor alone would keep.
	if got := len(e.RestageRecords()); got != total {
		t.Fatalf("restaged %d fresh decisions, want %d", got, total)
	}
	// Age out everything below the count floor: only the most recent
	// maxDecisionRetention stay.
	e.prepMu.Lock()
	for i, gid := range e.decOrder {
		if i < len(e.decOrder)-maxDecisionRetention {
			d := e.decided[gid]
			d.at = time.Now().Add(-2 * decisionRetentionAge)
			e.decided[gid] = d
		}
	}
	e.prepMu.Unlock()
	if got := len(e.RestageRecords()); got != maxDecisionRetention {
		t.Fatalf("restaged %d aged decisions, want the count floor %d", got, maxDecisionRetention)
	}
}

// Every end of a prepared transaction releases the locks its entry took
// over from the Tx, or rebuilt from the log: a writer that waited on the
// prepared row is granted, and once it is done the table keeps no busy
// word. A decide record that fails to stage reinstates the entry with
// its locks still held; the retry releases them.
func TestPreparedEndsReleaseLocks(t *testing.T) {
	const gid = "g-ends"
	commit := func(t *testing.T, e *Engine, row core.OID) {
		if _, err := e.CommitPrepared(gid); err != nil {
			t.Fatal(err)
		}
	}
	abort := func(t *testing.T, e *Engine, row core.OID) {
		if err := e.AbortPrepared(gid); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name     string
		restored bool          // the entry comes back from the log (RestorePrepared), not from Prepare
		orphan   time.Duration // the orphan timeout Prepare arms; 0 keeps the default
		end      func(t *testing.T, e *Engine, row core.OID)
	}{
		{name: "commit", end: commit},
		{name: "abort", end: abort},
		{name: "orphan timer", orphan: 100 * time.Millisecond, end: func(t *testing.T, e *Engine, row core.OID) {
			lockWaitUntil(t, func() bool { return e.PreparedCount() == 0 })
		}},
		{name: "restored then commit", restored: true, end: commit},
		{name: "restored then abort", restored: true, end: abort},
		{name: "unknown outcome", end: func(t *testing.T, e *Engine, row core.OID) {
			// The decide record is staged and its fsync fails.
			if err := failpoint.Arm("wal.fsync", failpoint.Spec{Action: failpoint.ActError, OneShot: true}); err != nil {
				t.Fatal(err)
			}
			defer failpoint.DisarmAll()
			if _, err := e.CommitPrepared(gid); !errors.Is(err, ErrUnknownOutcome) {
				t.Fatalf("CommitPrepared with a failing fsync = %v, want ErrUnknownOutcome", err)
			}
		}},
		{name: "decide record refused, then commit", end: func(t *testing.T, e *Engine, row core.OID) {
			if err := failpoint.Arm("txn.decide_wal", failpoint.Spec{Action: failpoint.ActError, OneShot: true}); err != nil {
				t.Fatal(err)
			}
			defer failpoint.DisarmAll()
			if _, err := e.CommitPrepared(gid); err == nil || errors.Is(err, ErrUnknownOutcome) {
				t.Fatalf("CommitPrepared with a refused decide record = %v, want a retryable error", err)
			}
			if n, w := e.PreparedCount(), e.Locks().Waiting(row); n != 1 || w != 1 {
				t.Fatalf("after a refused decide record: %d prepared, %d waiting; want 1, 1", n, w)
			}
			commit(t, e, row)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			e, item := newTestEngine(t)
			seed := e.Begin()
			a, err := seed.PNew(item, newItem(item, "a", 1))
			if err != nil {
				t.Fatal(err)
			}
			if err := seed.Commit(); err != nil {
				t.Fatal(err)
			}
			if c.restored {
				op := &wal.Op{Type: wal.OpPut, OID: uint64(a), ClassID: uint32(item.ID()), Image: object.Encode(newItem(item, "a", 2))}
				if err := e.RestorePrepared([]*wal.Prepared{{GID: gid, TxID: 1 << 20, Ops: []*wal.Op{op}}}, nil); err != nil {
					t.Fatal(err)
				}
			} else {
				e.SetPrepareTimeout(c.orphan)
				tx := e.Begin()
				if err := tx.Update(a, newItem(item, "a", 2)); err != nil {
					t.Fatal(err)
				}
				if err := e.Prepare(tx, gid); err != nil {
					t.Fatal(err)
				}
				if held := tx.HeldLocks(); len(held) != 0 {
					t.Fatalf("the prepared Tx still lists %v; its entry holds them", held)
				}
			}
			writer := e.Begin()
			defer writer.Abort()
			granted := make(chan error, 1)
			go func() { granted <- writer.Update(a, newItem(item, "a", 3)) }()
			lockWaitUntil(t, func() bool { return e.Locks().Waiting(a) == 1 })
			c.end(t, e, a)
			select {
			case err := <-granted:
				if err != nil {
					t.Fatalf("writer after the prepared end = %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("writer still blocked on the prepared row")
			}
			writer.Abort()
			if n := busyWords(t, e.Locks()); n != 0 {
				t.Fatalf("lock table holds %d busy words after every end, want 0", n)
			}
		})
	}
}
