package ode

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// --- Admission control -------------------------------------------------

// Park n transactions on admission slots; they hold the slots until
// release is closed. Returns after all n are admitted and running.
func parkTransactions(t *testing.T, db *DB, n int, release <-chan struct{}) *sync.WaitGroup {
	t.Helper()
	var admitted, done sync.WaitGroup
	for i := 0; i < n; i++ {
		admitted.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			err := db.View(func(tx *Tx) error {
				admitted.Done()
				<-release
				return nil
			})
			if err != nil {
				t.Errorf("parked view: %v", err)
			}
		}()
	}
	admitted.Wait()
	return &done
}

func TestOverloadFastTypedRejection(t *testing.T) {
	const slots = 4
	db, stock := openTestDB(t, &Options{MaxConcurrentTx: slots, MaxQueuedTx: -1})

	release := make(chan struct{})
	done := parkTransactions(t, db, slots, release)

	// 8x the cap. With the queue disabled every one of these must come
	// back immediately with the typed rejection — no lock-queue pile-up.
	const burst = 8 * slots
	var rejected atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := db.RunTx(func(tx *Tx) error {
				o := NewObject(stock)
				o.MustSet("name", Str("x"))
				o.MustSet("qty", Int(1))
				o.MustSet("price", Float(1))
				_, err := tx.PNew(stock, o)
				return err
			})
			if errors.Is(err, ErrOverloaded) {
				rejected.Add(1)
			} else {
				t.Errorf("want ErrOverloaded, got %v", err)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	if got := rejected.Load(); got != burst {
		t.Fatalf("rejected %d of %d over-capacity transactions", got, burst)
	}
	// "Fast": rejections must not have waited behind the parked
	// transactions (which hold their slots far longer than this bound).
	if elapsed > 2*time.Second {
		t.Fatalf("rejections took %v; admission is queueing, not rejecting", elapsed)
	}
	st := db.Stats()
	if st.Txn.AdmissionRejects < burst {
		t.Fatalf("Txn.AdmissionRejects = %d, want >= %d", st.Txn.AdmissionRejects, burst)
	}
	if st.Txn.AdmissionActive != slots {
		t.Fatalf("Txn.AdmissionActive = %d, want %d", st.Txn.AdmissionActive, slots)
	}

	close(release)
	done.Wait()

	// Slots freed: work is admitted again.
	if err := db.RunTx(func(tx *Tx) error {
		o := NewObject(stock)
		o.MustSet("name", Str("after"))
		o.MustSet("qty", Int(1))
		o.MustSet("price", Float(1))
		_, err := tx.PNew(stock, o)
		return err
	}); err != nil {
		t.Fatalf("post-overload transaction: %v", err)
	}
	if got := db.Stats().Txn.AdmissionActive; got != 0 {
		t.Fatalf("Txn.AdmissionActive = %d after drain, want 0", got)
	}
}

func TestAdmissionQueueAdmitsWhenSlotFrees(t *testing.T) {
	db, stock := openTestDB(t, &Options{MaxConcurrentTx: 1, MaxQueuedTx: 1})
	release := make(chan struct{})
	done := parkTransactions(t, db, 1, release)

	// This transaction queues behind the parked one...
	queued := make(chan error, 1)
	go func() {
		queued <- db.RunTx(func(tx *Tx) error {
			_, err := tx.PNew(stock, mustStock(stock, "queued", 1))
			return err
		})
	}()
	waitUntil(t, func() bool { return db.Stats().Txn.AdmissionWaits >= 1 })

	// ...and is admitted, not rejected, once the slot frees.
	close(release)
	done.Wait()
	if err := <-queued; err != nil {
		t.Fatalf("queued transaction: %v", err)
	}
}

func TestAdmissionQueueHonorsDeadline(t *testing.T) {
	db, stock := openTestDB(t, &Options{MaxConcurrentTx: 1, MaxQueuedTx: 1})
	release := make(chan struct{})
	defer close(release)
	parkTransactions(t, db, 1, release)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err := db.RunTxCtx(ctx, func(tx *Tx) error {
		_, err := tx.PNew(stock, mustStock(stock, "never", 1))
		return err
	})
	if !errors.Is(err, ErrTxTimeout) {
		t.Fatalf("queued-past-deadline error = %v, want ErrTxTimeout", err)
	}
}

// --- Deadlines at lock waits -------------------------------------------

func TestLockWaitDeadline(t *testing.T) {
	db, stock := openTestDB(t, nil)
	oid := addItem(t, db, stock, "dram", 100, 0.05)

	// A sleeping peer holds the exclusive lock for the whole test.
	release := make(chan struct{})
	held := make(chan struct{})
	holderDone := make(chan struct{})
	go func() {
		defer close(holderDone)
		holder := db.Begin()
		defer holder.Abort()
		o, err := holder.Deref(oid)
		if err == nil {
			err = holder.Update(oid, o)
		}
		if err != nil {
			t.Errorf("holder: %v", err)
		}
		close(held)
		<-release
	}()
	<-held
	defer close(release)

	const deadline = 200 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	var victimID uint64
	start := time.Now()
	err := db.RunTxCtx(ctx, func(tx *Tx) error {
		victimID = tx.ID()
		_, err := tx.Deref(oid) // blocks on the holder's X lock
		return err
	})
	elapsed := time.Since(start)

	if !errors.Is(err, ErrTxTimeout) {
		t.Fatalf("lock-wait past deadline = %v, want ErrTxTimeout", err)
	}
	if elapsed > 2*deadline {
		t.Fatalf("victim returned after %v, want within 2x the %v deadline", elapsed, deadline)
	}
	if held := db.engine.Locks().HeldLocks(victimID); len(held) != 0 {
		t.Fatalf("victim %d still holds locks after timeout: %v", victimID, held)
	}
	st := db.Stats()
	if st.Txn.LockWaitTimeouts == 0 {
		t.Fatal("Txn.LockWaitTimeouts = 0 after a timed-out lock wait")
	}
	if st.Txn.Cancels == 0 {
		t.Fatal("Txn.Cancels = 0 after a timed-out transaction")
	}
}

func TestBeginCtxPreCanceled(t *testing.T) {
	db, stock := openTestDB(t, nil)
	oid := addItem(t, db, stock, "dram", 100, 0.05)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := db.RunTxCtx(ctx, func(tx *Tx) error {
		_, err := tx.Deref(oid)
		return err
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-canceled RunTxCtx = %v, want ErrCanceled", err)
	}
}

func TestScanObservesDeadline(t *testing.T) {
	db, stock := openTestDB(t, nil)
	for i := 0; i < 64; i++ {
		addItem(t, db, stock, "bulk", int64(i), 1.0)
	}

	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	err := db.ViewCtx(expired, func(tx *Tx) error {
		_, err := Forall(tx, stock).Count()
		return err
	})
	if !errors.Is(err, ErrTxTimeout) {
		t.Fatalf("expired-deadline scan = %v, want ErrTxTimeout", err)
	}
}

// TestParallelScanObservesCancel cancels a view between Begin and its
// scan, while other goroutines scan the same extent in views of their
// own: the canceled scan visits no row and ends with ErrCanceled.
func TestParallelScanObservesCancel(t *testing.T) {
	db, stock := openTestDB(t, nil)
	for i := 0; i < 512; i++ {
		addItem(t, db, stock, "bulk", int64(i), 1.0)
	}

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := db.View(func(tx *Tx) error {
				_, err := Forall(tx, stock).Count()
				return err
			}); err != nil {
				t.Error(err)
			}
		}()
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	visited := 0
	err := db.ViewCtx(ctx, func(tx *Tx) error {
		cancel() // cancel between Begin and the scan: no row may be visited
		return Forall(tx, stock).Do(func(it Item) (bool, error) {
			visited++
			return true, nil
		})
	})
	wg.Wait()
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled scan = %v, want ErrCanceled", err)
	}
	if visited != 0 {
		t.Fatalf("canceled scan visited %d rows, want 0", visited)
	}
}

// --- Bounded WAL growth ------------------------------------------------

func TestWALSoftLimitAutoCheckpoint(t *testing.T) {
	const (
		soft = int64(16 << 10)
		hard = int64(64 << 10)
	)
	db, stock := openTestDB(t, &Options{WALSoftLimit: soft, WALHardLimit: hard, NoSync: true})

	// ~1 KiB per commit, ~400 KiB total: the log must be recycled many
	// times over to stay bounded.
	payload := strings.Repeat("x", 1024)
	// A single committer can overshoot the hard limit by at most one
	// batch (backpressure is checked before the append).
	maxObserved := int64(0)
	for i := 0; i < 400; i++ {
		err := db.RunTx(func(tx *Tx) error {
			o := NewObject(stock)
			o.MustSet("name", Str(payload))
			o.MustSet("qty", Int(int64(i)))
			o.MustSet("price", Float(1))
			_, err := tx.PNew(stock, o)
			return err
		})
		if err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		if sz := db.Stats().WALBytes; sz > maxObserved {
			maxObserved = sz
		}
	}

	if slack := hard + 8<<10; maxObserved > slack {
		t.Fatalf("WAL grew to %d bytes, want <= hard limit %d (+one-batch slack)", maxObserved, hard)
	}
	st := db.Stats()
	if st.WAL.AutoCheckpoints == 0 {
		t.Fatal("WAL.AutoCheckpoints = 0 under a soft limit the workload exceeds many times")
	}
	// The data survived all that recycling.
	var n int
	if err := db.View(func(tx *Tx) error {
		var err error
		n, err = Forall(tx, stock).Count()
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if n != 400 {
		t.Fatalf("extent holds %d objects, want 400", n)
	}
}

// --- Close vs. concurrent work -----------------------------------------

func TestCloseRacesRunTx(t *testing.T) {
	db, stock := openTestDB(t, &Options{CloseTimeout: time.Second})
	oid := addItem(t, db, stock, "dram", 100, 0.05)

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, 4096)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				err := db.RunTx(func(tx *Tx) error {
					o, err := tx.Deref(oid)
					if err != nil {
						return err
					}
					o.MustSet("qty", Int(o.MustGet("qty").Int()+1))
					return tx.Update(oid, o)
				})
				errs <- err
				if err != nil {
					return
				}
			}
		}()
	}

	time.Sleep(20 * time.Millisecond)
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()
	close(errs)

	var committed, rejected int
	for err := range errs {
		switch {
		case err == nil:
			committed++
		case errors.Is(err, ErrDBClosed):
			rejected++
		default:
			t.Fatalf("RunTx racing Close = %v, want nil or ErrDBClosed", err)
		}
	}
	if rejected != workers {
		t.Fatalf("%d workers stopped with ErrDBClosed, want %d", rejected, workers)
	}
	if committed == 0 {
		t.Fatal("no transaction committed before Close")
	}

	// The database reopens cleanly and holds a consistent qty.
	schema2, _ := inventorySchema()
	db2, err := Open(db.Path(), schema2, nil)
	if err != nil {
		t.Fatalf("reopen after racing Close: %v", err)
	}
	defer db2.Close()
	if err := db2.View(func(tx *Tx) error {
		o, err := tx.Deref(oid)
		if err != nil {
			return err
		}
		if got := o.MustGet("qty").Int(); got != 100+int64(committed) {
			t.Errorf("qty = %d, want %d (100 + %d committed increments)", got, 100+int64(committed), committed)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestCloseCancelsParkedTransaction(t *testing.T) {
	db, stock := openTestDB(t, &Options{CloseTimeout: 100 * time.Millisecond})
	oid := addItem(t, db, stock, "dram", 100, 0.05)

	// A transaction parked on a lock it can never get: tx1 holds X and
	// never finishes; tx2 waits with no deadline of its own. Close must
	// cancel tx2 after the drain window instead of hanging.
	tx1 := db.Begin()
	o, err := tx1.Deref(oid)
	if err == nil {
		err = tx1.Update(oid, o)
	}
	if err != nil {
		t.Fatal(err)
	}
	waiting := make(chan struct{})
	res := make(chan error, 1)
	go func() {
		close(waiting)
		res <- db.RunTx(func(tx *Tx) error {
			_, err := tx.Deref(oid)
			return err
		})
	}()
	<-waiting
	waitUntil(t, func() bool { return db.Stats().Txn.LockWaits >= 1 })

	start := time.Now()
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Close took %v with a transaction parked on a lock", elapsed)
	}
	select {
	case err := <-res:
		if !errors.Is(err, ErrDBClosed) {
			t.Fatalf("parked transaction = %v, want ErrDBClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("parked transaction still blocked after Close")
	}
	tx1.Abort() // after Close: must not panic
}

// --- Retry policy ------------------------------------------------------

func TestRetryEnvelopeMonotoneToCap(t *testing.T) {
	if got := retryEnvelope(0); got != retryBase {
		t.Fatalf("retryEnvelope(0) = %v, want %v", got, retryBase)
	}
	prev := time.Duration(0)
	capped := false
	for attempt := 0; attempt < 128; attempt++ {
		env := retryEnvelope(attempt)
		if env < prev {
			t.Fatalf("retryEnvelope(%d) = %v < retryEnvelope(%d) = %v; not monotone", attempt, env, attempt-1, prev)
		}
		if env > retryCap {
			t.Fatalf("retryEnvelope(%d) = %v exceeds cap %v", attempt, env, retryCap)
		}
		if capped && env != retryCap {
			t.Fatalf("retryEnvelope(%d) = %v fell below the cap after reaching it", attempt, env)
		}
		capped = capped || env == retryCap
		prev = env
	}
	if !capped {
		t.Fatal("envelope never reached the cap")
	}
}

func TestRetryBackoffJitterBounds(t *testing.T) {
	for attempt := 0; attempt < 32; attempt++ {
		env := retryEnvelope(attempt)
		for i := 0; i < 50; i++ {
			d := retryBackoff(attempt)
			if d < env/2 || d > env {
				t.Fatalf("retryBackoff(%d) = %v outside [%v, %v]", attempt, d, env/2, env)
			}
		}
	}
}

func TestRunTxNoRetryOnConstraintViolation(t *testing.T) {
	db, stock := openTestDB(t, nil)
	calls := 0
	err := db.RunTx(func(tx *Tx) error {
		calls++
		o := NewObject(stock)
		o.MustSet("name", Str("bad"))
		o.MustSet("qty", Int(-1)) // violates nonneg-qty at commit
		o.MustSet("price", Float(1))
		_, err := tx.PNew(stock, o)
		return err
	})
	if !errors.Is(err, ErrConstraintViolation) {
		t.Fatalf("RunTx = %v, want ErrConstraintViolation", err)
	}
	if calls != 1 {
		t.Fatalf("constraint violation retried: fn ran %d times, want 1", calls)
	}
	if IsRetryable(err) {
		t.Fatal("IsRetryable(constraint violation) = true")
	}
}

// A retry loop stopped by its context reports the deadline (or the
// cancellation), not whatever retryable conflict lost the final
// attempt.
func TestRunTxCtxDeadCtxReportsTimeout(t *testing.T) {
	db, _ := openTestDB(t, nil)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err := db.RunTxCtx(ctx, func(tx *Tx) error {
		time.Sleep(2 * time.Millisecond)
		return ErrDeadlock // a retryable conflict on every attempt
	})
	if !errors.Is(err, ErrTxTimeout) {
		t.Fatalf("deadline-stopped retry loop = %v, want ErrTxTimeout", err)
	}

	canceled, stop := context.WithCancel(context.Background())
	stop()
	err = db.RunTxCtx(canceled, func(tx *Tx) error { return ErrDeadlock })
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("cancel-stopped retry loop = %v, want ErrCanceled", err)
	}
}

func TestRetryTaxonomy(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want bool
	}{
		{ErrDeadlock, true},
		{ErrTxTimeout, true},
		{ErrCanceled, false},
		{ErrOverloaded, false},
		{ErrDBClosed, false},
		{ErrConstraintViolation, false},
		{ErrNoObject, false},
		{nil, false},
	} {
		if got := IsRetryable(tc.err); got != tc.want {
			t.Errorf("IsRetryable(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

// --- helpers -----------------------------------------------------------

func mustStock(stock *Class, name string, qty int64) *Object {
	o := NewObject(stock)
	o.MustSet("name", Str(name))
	o.MustSet("qty", Int(qty))
	o.MustSet("price", Float(1))
	return o
}

// waitUntil polls cond for up to 2s.
func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 2s")
		}
		time.Sleep(200 * time.Microsecond)
	}
}
