package torture

// The embedded rows ("", cancel, compact): one *ode.DB in process.
// Each round arms one failpoint, runs traffic until the fault fires (or
// the round's ops run out), simulates a process crash, sometimes fails
// the recovery itself partway, reopens from disk, resolves the plan the
// fault cut off, verifies, and sometimes crashes again straight after
// recovery to check that replay is idempotent.
//
// cancel opens the store with admission control (three slots, no wait
// queue) and small WAL bounds, and mixes in governed transactions
// (pre-canceled, racing a microsecond deadline, or generous), lock-wait
// timeouts against a sleeping holder and overload bursts: a transaction
// killed by its context or refused admission must be a clean abort.
//
// compact pads records so the heap spans many pages, mixes delete-heavy
// churn with DB.Compact passes, and half its rounds arm a compaction
// site instead, so the crash lands mid-pass; compaction is
// state-neutral, so the model is untouched either way, and every
// recovery also checks the heap chain's space accounting.

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"ode"
	"ode/internal/failpoint"
)

type embedded struct {
	r               *run
	cancel, compact bool
	path            string
	db              *ode.DB
}

// recoveryFaults are the sites armed while reopening after a crash.
var recoveryFaults = []string{"wal.replay", "storage.page_read"}

// compactFaults are the compaction-path sites a compact round can arm.
var compactFaults = []string{"storage.compact_move", "storage.compact_free"}

func (e *embedded) open() error {
	schema, stock := Schema()
	opts := &ode.Options{PoolPages: 48}
	if e.cancel {
		// Few admission slots and no wait queue, so overload bursts are
		// refused; WAL bounds small enough that the background
		// checkpointer and commit backpressure run constantly.
		opts.MaxConcurrentTx = 3
		opts.MaxQueuedTx = -1
		opts.WALSoftLimit = 8 << 10
		opts.WALHardLimit = 32 << 10
		opts.CloseTimeout = 2 * time.Second
	}
	db, err := ode.Open(e.path, schema, opts)
	if err != nil {
		return err
	}
	e.db, e.r.stock = db, stock
	return nil
}

func (e *embedded) crash() {
	e.db.CrashForTesting()
	e.db = nil
}

// boot creates the store, its DDL and a seed population, then
// checkpoints so every round starts from a durable base.
func (e *embedded) boot() error {
	r := e.r
	e.path = filepath.Join(r.cfg.Dir, "torture.odb")
	r.triggers = true
	if e.compact {
		r.pad = 300
	}
	r.runTx = func(ctx context.Context, fn func(ode.ObjectTx) error) error { return embeddedRunTx(ctx, e.db, fn) }
	r.view = func(fn func(ode.ObjectTx) error) error { return embeddedView(e.db, fn) }
	r.dbs = func(fn func(*ode.DB, *ode.Class) error) error { return fn(e.db, r.stock) }
	if err := e.open(); err != nil {
		return err
	}
	if err := e.db.CreateCluster(r.stock); err != nil {
		return err
	}
	if err := e.db.CreateIndex(r.stock, "qty"); err != nil {
		return err
	}
	for i := 0; i < 40; i++ {
		if _, err := r.createOne(context.Background()); err != nil {
			return err
		}
	}
	return e.db.Checkpoint()
}

func (e *embedded) round(n int) error {
	r := e.r
	site, spec := r.workloadFault(30)
	// Compaction sites fire early (few records move per pass) and only
	// support injected errors.
	if e.compact && r.rng.Intn(2) == 0 {
		site = compactFaults[r.rng.Intn(len(compactFaults))]
		spec.Action = failpoint.ActError
		spec.AfterN = uint64(r.rng.Intn(4))
	}
	if err := r.arm(site, spec); err != nil {
		return err
	}
	fmt.Fprintf(r.log, "round %d: arm %s %v\n", n, site, spec)

	err := r.traffic(func(int) (bool, error) {
		p, err := e.op()
		switch {
		case err == nil:
			return false, nil
		case errors.Is(err, failpoint.ErrInjected):
			// The commit errored but its record may be durable: the round
			// ends here and the plan is resolved after recovery.
			if p != nil {
				r.doubt(p)
			}
			return true, nil
		}
		return false, fmt.Errorf("unexpected engine error: %w", err)
	})
	failpoint.DisarmAll()
	if err != nil {
		return err
	}

	// Crash: drop all dirty in-memory state, keep only what disk holds.
	e.crash()
	// Sometimes fail the recovery itself partway, then recover for real.
	if r.rng.Intn(4) == 0 {
		site := recoveryFaults[r.rng.Intn(len(recoveryFaults))]
		if err := r.arm(site, failpoint.Spec{Action: failpoint.ActError, AfterN: uint64(r.rng.Intn(8)), OneShot: true}); err != nil {
			return err
		}
		err := e.open()
		failpoint.DisarmAll()
		if err == nil {
			// Open survived (the shot did not fire, or fired on a
			// tolerated path): crash again so recovery starts from disk.
			r.count("recoveries", 1)
			e.crash()
		} else if !errors.Is(err, failpoint.ErrInjected) {
			return fmt.Errorf("recovery-phase fault: unexpected error: %w", err)
		}
		fmt.Fprintf(r.log, "round %d: recovery fault at %s (open err: %v)\n", n, site, err)
	}
	if err := e.recover("recovery"); err != nil {
		return err
	}
	// Idempotence: sometimes crash again right away and verify again.
	if r.rng.Intn(4) == 0 {
		e.crash()
		return e.recover("idempotent re-recovery")
	}
	return nil
}

// recover reopens the store from disk, resolves the plan the crash cut
// off, and verifies.
func (e *embedded) recover(what string) error {
	if err := e.open(); err != nil {
		return fmt.Errorf("%s open: %w", what, err)
	}
	e.r.count("recoveries", 1)
	if err := e.r.resolve(); err != nil {
		return err
	}
	if err := e.verify(); err != nil {
		return fmt.Errorf("verify after %s: %w", what, err)
	}
	return nil
}

// op draws one operation: a checkpoint, a constraint abort, the mode's
// own ops, or a shared transaction. The plan comes back so an injected
// fault can leave it uncertain.
func (e *embedded) op() (*pending, error) {
	r := e.r
	switch {
	case r.rng.Intn(15) == 0:
		return nil, e.db.Checkpoint()
	case r.rng.Intn(10) == 0:
		return nil, r.constraintAbort()
	case e.cancel && r.rng.Intn(4) == 0:
		return e.governed()
	case e.cancel && r.rng.Intn(6) == 0:
		return nil, e.lockTimeoutPair()
	case e.cancel && r.rng.Intn(6) == 0:
		return nil, e.overloadBurst()
	case e.compact && r.rng.Intn(5) == 0:
		return nil, e.compactPass()
	case e.compact && r.rng.Intn(3) == 0:
		return e.churn()
	}
	return r.transaction(context.Background())
}

// governed executes a shared plan under a context that is pre-canceled,
// carries a deadline tight enough to expire anywhere inside the
// transaction, or is generous enough to commit. A context kill is a
// clean abort: the model is untouched.
func (e *embedded) governed() (*pending, error) {
	r := e.r
	p := r.plan(1 + r.rng.Intn(3))
	if len(p.steps) == 0 {
		return nil, nil
	}
	ctx := context.Background()
	var cancel context.CancelFunc
	switch r.rng.Intn(3) {
	case 0: // already dead: nothing may commit
		ctx, cancel = context.WithCancel(ctx)
		cancel()
	case 1: // races the transaction's own operations
		ctx, cancel = context.WithTimeout(ctx, time.Duration(r.rng.Intn(2000))*time.Microsecond)
	default:
		ctx, cancel = context.WithTimeout(ctx, time.Second)
	}
	defer cancel()
	err := r.execute(ctx, p)
	if errors.Is(err, ode.ErrCanceled) || errors.Is(err, ode.ErrTxTimeout) || errors.Is(err, ode.ErrOverloaded) {
		r.count("kills", 1)
		return nil, nil
	}
	return p, err
}

// lockTimeoutPair pins an object under an exclusive lock (a holder that
// never commits) and requires a second transaction with a short
// deadline to time out on the wait as a clean abort.
func (e *embedded) lockTimeoutPair() error {
	r := e.r
	oid := r.pickLive(r.newPlan(), nil)
	if oid == ode.NilOID {
		return nil
	}
	holder := e.db.Begin()
	defer holder.Abort()
	o, err := holder.Deref(oid)
	if err != nil {
		return err
	}
	if err := holder.Update(oid, o); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(1+r.rng.Intn(10))*time.Millisecond)
	defer cancel()
	victim := e.db.BeginCtx(ctx)
	defer victim.Abort()
	switch _, err := victim.Deref(oid); {
	case errors.Is(err, ode.ErrTxTimeout):
		r.count("kills", 1)
		return nil
	case err == nil:
		return r.failf("lock-wait victim read @%d through the holder's X lock", oid)
	default:
		return err
	}
}

// overloadBurst fires more concurrent reads than the admission gate
// admits. Every outcome must be typed — success, ErrOverloaded, a
// context kill, or an injected fault — and reads leave the model alone.
func (e *embedded) overloadBurst() error {
	r := e.r
	oid := r.pickLive(r.newPlan(), nil)
	if oid == ode.NilOID {
		return nil
	}
	const burst = 8
	errs := make(chan error, burst)
	for i := 0; i < burst; i++ {
		go func() {
			errs <- e.db.View(func(tx *ode.Tx) error {
				_, err := tx.Deref(oid)
				if err == nil {
					time.Sleep(2 * time.Millisecond) // hold the slot so the burst overlaps
				}
				return err
			})
		}()
	}
	var firstErr error
	for i := 0; i < burst; i++ {
		switch err := <-errs; {
		case err == nil:
		case errors.Is(err, ode.ErrOverloaded):
			r.count("overloads", 1)
		case errors.Is(err, ode.ErrTxTimeout) || errors.Is(err, ode.ErrCanceled):
			r.count("kills", 1)
		default:
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// churn commits one delete-heavy plan — a contiguous run of oids, as
// allocation order tracks page locality, so whole pages drain below
// the compaction threshold — or a replenishing create while the
// population is low.
func (e *embedded) churn() (*pending, error) {
	r := e.r
	if len(r.model) <= 20 {
		return r.createOne(context.Background())
	}
	p := r.newPlan()
	oids := keys(r.model)
	start, n := r.rng.Intn(len(oids)), 4+r.rng.Intn(4)
	for i := start; i < start+n && i < len(oids); i++ {
		r.planStep(p, opDelete, oids[i])
	}
	return p, r.execute(context.Background(), p)
}

// compactPass runs one online compaction pass; an injected fault ends
// the round with the pass half done.
func (e *embedded) compactPass() error {
	stats, err := e.db.Compact()
	if err != nil {
		return err
	}
	e.r.count("compactions", 1)
	e.r.count("reclaimed", stats.PagesReclaimed)
	return nil
}

// verify is the shared verify plus, in compact mode, the heap chain's
// space accounting: a page freed mid-crash may leak (a later pass
// reclaims it) but must never appear twice or point past the file.
func (e *embedded) verify() error {
	if err := e.r.verify(); err != nil || !e.compact {
		return err
	}
	pages, err := e.db.Manager().HeapPages()
	if err != nil {
		return fmt.Errorf("heap chain walk: %w", err)
	}
	total := e.db.Stats().Pages
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	for i, id := range pages {
		if i > 0 && id == pages[i-1] {
			return e.r.failf("heap chain holds page %d twice", id)
		}
		if uint32(id) >= total {
			return e.r.failf("heap chain page %d past file end (%d pages)", id, total)
		}
	}
	return nil
}

// finish closes cleanly, reopens and verifies; compact mode then runs
// one clean pass over what the crashed passes left behind.
func (e *embedded) finish() error {
	failpoint.DisarmAll()
	if err := e.db.Close(); err != nil {
		return fmt.Errorf("final close: %w", err)
	}
	e.db = nil
	if err := e.open(); err != nil {
		return fmt.Errorf("final reopen: %w", err)
	}
	if err := e.verify(); err != nil {
		return fmt.Errorf("final verify: %w", err)
	}
	if e.compact {
		if err := e.compactPass(); err != nil {
			return fmt.Errorf("final compact: %w", err)
		}
		if err := e.verify(); err != nil {
			return fmt.Errorf("verify after final compact: %w", err)
		}
	}
	err := e.db.Close()
	e.db = nil
	return err
}

// shutdown leaves a failed run's store as the failure left it.
func (e *embedded) shutdown() {
	if e.db != nil {
		e.crash()
	}
}
