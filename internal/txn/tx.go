package txn

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ode/internal/core"
	"ode/internal/failpoint"
	"ode/internal/object"
	"ode/internal/obs"
	"ode/internal/wal"
)

// Failpoint sites in the commit pipeline (no-ops unless armed; see
// docs/TESTING.md).
var (
	// fpCommitWAL fires in Commit after constraints and hooks, before
	// the WAL append: the transaction aborts cleanly, nothing durable.
	fpCommitWAL = failpoint.New("txn.commit_wal")
	// fpCommitApply fires after the WAL append succeeds and before the
	// ops are applied: the commit record is durable but this process's
	// in-memory state never saw it — only recovery can reconcile.
	fpCommitApply = failpoint.New("txn.commit_apply")
)

// Tx states.
const (
	stateActive = iota
	stateCommitted
	stateAborted
	stateFailed   // never admitted: Begin itself was rejected
	statePrepared // two-phase commit: durable in-doubt, locks retained (prepared.go)
)

// Sentinel errors.
var (
	// ErrTxDone is returned for operations on a finished transaction.
	ErrTxDone = errors.New("txn: transaction already committed or aborted")
	// ErrConstraintViolation aborts a commit whose objects violate a
	// class constraint (paper, section 5: "Violation of a constraint
	// will cause the transaction ... to be aborted and rolled back").
	ErrConstraintViolation = errors.New("txn: constraint violation")
)

// Engine creates and commits transactions against one database. It
// serializes commit application so the WAL order equals the apply
// order.
type Engine struct {
	mgr      *object.Manager
	log      *wal.Log
	locks    *LockManager
	nextID   atomic.Uint64
	met      *obs.Metrics // full set: txn counters plus the query layer's
	closed   atomic.Bool  // set by MarkClosed; checked under commitMu
	readOnly atomic.Bool  // replica mode: write operations fail with ErrReadOnly

	// commitMu serializes stage: the WAL order is the apply order.
	commitMu sync.Mutex

	// The announcer delivers OnCommit callbacks in strict LSN order.
	// Committers leave the commit lock before their fsync completes
	// (group commit), so they reach the announcement point out of
	// order; announce buffers early arrivals until the gap fills.
	// Lock order: commitMu → annMu → (OnCommit's own locks).
	annMu      sync.Mutex
	annNext    uint64 // next LSN to deliver
	annPending map[uint64][]byte

	// PreCommit, if set, runs inside Commit after constraint checking
	// and before the WAL append; returning an error aborts. The
	// database layer uses it for trigger-condition bookkeeping.
	PreCommit func(tx *Tx) error
	// PostCommit, if set, runs after a successful commit (locks still
	// held released already). The database layer schedules fired
	// trigger actions here (weak coupling).
	PostCommit func(tx *Tx)
	// PostAbort, if set, runs after an abort; the database layer
	// cancels trigger actions scheduled by this transaction.
	PostAbort func(tx *Tx)
	// Backpressure, if set, runs in Commit for transactions with a
	// non-empty write set, before the commit lock is taken (so a
	// checkpoint — which needs the commit lock — can drain the log
	// while committers stall here). Returning an error aborts the
	// transaction. The database layer installs the WAL hard-limit
	// stall.
	Backpressure func(ctx context.Context) error
	// AfterAppend, if set, is called by stage (under the commit lock)
	// after each WAL write with the new log size. The database layer
	// uses it to kick the background checkpointer past the soft limit.
	AfterAppend func(walSize int64)
	// onCommit, if set (SetOnCommit), is called after a batch is
	// durable in the WAL and applied, with the batch's LSN and its raw
	// log encoding. It fires for local commits and for replicated
	// batches applied through ApplyReplicatedBatch alike, in strict LSN
	// order — the replication layer ships committed batches from here.
	// A local commit makes the call outside the commit lock (see
	// announce). Guarded by annMu.
	onCommit func(lsn uint64, raw []byte)

	// Two-phase-commit state (prepared.go). prepMu guards the prepared
	// table and the decision history; lock order: prepMu → commitMu is
	// forbidden — decision paths take prepMu only around map access.
	prepMu         sync.Mutex
	prepared       map[string]*preparedTx
	prepPending    map[string]bool // gids reserved by an in-flight Prepare
	decided        map[string]decision
	decOrder       []string // decision retention ring (re-staged across truncation)
	shardSlot      int      // this node's shard index; -1 = unsharded
	prepareTimeout time.Duration
}

// NewEngine builds a transaction engine over a manager and its WAL.
func NewEngine(mgr *object.Manager, log *wal.Log) *Engine {
	e := &Engine{
		mgr:         mgr,
		log:         log,
		locks:       NewLockManager(),
		annNext:     log.LSN() + 1,
		annPending:  make(map[uint64][]byte),
		prepared:    make(map[string]*preparedTx),
		prepPending: make(map[string]bool),
		decided:     make(map[string]decision),
		shardSlot:   -1,
	}
	e.SetMetrics(new(obs.Metrics))
	return e
}

// SetOnCommit installs (or, with nil, removes) the committed-batch
// listener.
func (e *Engine) SetOnCommit(fn func(lsn uint64, raw []byte)) {
	e.annMu.Lock()
	e.onCommit = fn
	e.annMu.Unlock()
}

// announce delivers one committed batch to the onCommit listener,
// enforcing strict LSN order: a batch arriving before its predecessor
// is buffered until the predecessor announces. The order is gap-free
// on success — group members become durable together, and a failed
// fsync poisons the log so no later LSN can commit — and the position
// advances even with no listener, so attaching one later (replication
// setup) starts from a consistent cursor.
func (e *Engine) announce(lsn uint64, raw []byte) {
	e.annMu.Lock()
	defer e.annMu.Unlock()
	if lsn != e.annNext {
		e.annPending[lsn] = raw
		return
	}
	fn := e.onCommit
	for {
		if fn != nil {
			fn(lsn, raw)
		}
		e.annNext = lsn + 1
		next, ok := e.annPending[e.annNext]
		if !ok {
			return
		}
		delete(e.annPending, e.annNext)
		lsn, raw = e.annNext, next
	}
}

// ResetAnnounce re-bases the announcer on the log's current LSN. Called
// after a full resync forces the LSN (CompleteResync); callers must
// hold the commit lock.
func (e *Engine) ResetAnnounce() {
	e.annMu.Lock()
	e.annNext = e.log.LSN() + 1
	e.annPending = make(map[uint64][]byte)
	e.annMu.Unlock()
}

// SetMetrics attaches the engine metric set (never nil after
// NewEngine). The engine records into m.Txn and hands the whole set to
// transactions so the query layer can reach m.Query through its Tx.
func (e *Engine) SetMetrics(m *obs.Metrics) {
	e.met = m
	e.locks.met = &m.Txn
}

// Metrics returns the engine metric set.
func (e *Engine) Metrics() *obs.Metrics { return e.met }

// Manager exposes the underlying object manager.
func (e *Engine) Manager() *object.Manager { return e.mgr }

// Locks exposes the lock manager (diagnostics and tests).
func (e *Engine) Locks() *LockManager { return e.locks }

// MarkClosed flags the engine as closed: subsequent commits with a
// write set fail with ErrDBClosed (checked under the commit lock, so
// nothing reaches the WAL after the flag is observed set there).
func (e *Engine) MarkClosed() { e.closed.Store(true) }

// SetReadOnly switches replica mode: while set, every write operation
// and every commit with a write set fails with ErrReadOnly. Replicated
// batches applied through ApplyReplicatedBatch are exempt — they are
// the one write path a replica has. Promotion clears the mode.
func (e *Engine) SetReadOnly(v bool) { e.readOnly.Store(v) }

// ReadOnly reports whether the engine is in replica (read-only) mode.
func (e *Engine) ReadOnly() bool { return e.readOnly.Load() }

// ApplyReplicatedBatch makes one batch shipped from a replication
// primary durable and visible: under the commit lock, the raw batch is
// appended to the local WAL (so replica crash recovery replays it like
// any local commit), applied to the object manager, and announced to
// OnCommit (so a promoted replica can ship onward to its own
// subscribers). lsn must directly follow the log's current LSN;
// lsn == 0 marks a full-resync snapshot batch, which skips the
// sequence check and the OnCommit fan-out (its LSN accounting is
// settled by CompleteResync at the end of the snapshot).
func (e *Engine) ApplyReplicatedBatch(lsn uint64, raw []byte) error {
	b, err := wal.DecodeBatch(raw)
	if err != nil {
		return fmt.Errorf("txn: replicated batch: %w", err)
	}
	ops := make([]wal.Op, len(b.Ops))
	for i, op := range b.Ops {
		ops[i] = *op
	}
	e.commitMu.Lock()
	defer e.commitMu.Unlock()
	if want := e.log.LSN() + 1; lsn != 0 && lsn != want {
		return fmt.Errorf("%w: batch %d, log expects %d", wal.ErrLSNGap, lsn, want)
	}
	// Durable before visible: a replica holds no locks that would hide
	// an applied batch from its readers while the fsync is pending.
	target, _, err := e.stage(write{batch: raw, stageFault: fpCommitWAL})
	if err == nil {
		err = e.syncTo(target)
	}
	if err == nil {
		_, _, err = e.stage(write{ops: ops, applyFault: fpCommitApply})
	}
	if err != nil {
		return fmt.Errorf("txn: replicated batch %d: %w", lsn, err)
	}
	e.met.Txn.Commits.Inc()
	if lsn != 0 {
		e.announce(lsn, raw)
	}
	return nil
}

// WithCommitLock runs fn while holding the commit lock, excluding
// every WAL append and apply. Checkpoints run under it so a concurrent
// commit cannot slip an append between the pool flush and the log
// truncation (which would silently drop the committed batch).
func (e *Engine) WithCommitLock(fn func() error) error {
	e.commitMu.Lock()
	defer e.commitMu.Unlock()
	return fn()
}

// AppendSideBatch logs a maintenance batch (compaction redo records)
// that did not come from a transaction. The caller must already hold
// the commit lock (WithCommitLock) and must apply the batch's effects
// itself before releasing it. The batch is fsynced and announced to
// replication like any commit, so replicas stay gap-free; replaying it
// re-puts images that are already current, which is idempotent.
func (e *Engine) AppendSideBatch(ops []wal.Op) error {
	raw := wal.EncodeBatch(0, ops)
	target, lsn, err := e.stage(write{batch: raw})
	if err == nil {
		err = e.syncTo(target)
	}
	if err != nil {
		return fmt.Errorf("txn: side batch: %w", err)
	}
	e.announce(lsn, raw)
	return nil
}

// A write is one durable act of the engine: the records a writer
// stages into the WAL under the commit lock and the ops it then
// applies. Every field is optional; an absent one skips its step.
type write struct {
	meta  []byte   // a metadata record (a vote or a decision): no LSN
	batch []byte   // a committed batch, staged after meta: one LSN
	ops   []wal.Op // applied after meta and batch are staged
	// stageFault fires before anything is staged, applyFault before the
	// first op is applied.
	stageFault, applyFault *failpoint.Site
}

// stage is the staging step every WAL writer shares; the caller holds
// commitMu. If w has a record or a batch, it refuses a closed engine,
// stages w.meta then w.batch and reports the new log size to
// AfterAppend; then it applies w.ops. It returns the target the caller
// hands to syncTo where it waits for durability, and the batch's LSN
// (0 without a batch). An error wrapping ErrUnknownOutcome means
// records reached the log before the failure; any other error means
// nothing did.
func (e *Engine) stage(w write) (target int64, lsn uint64, err error) {
	if w.meta != nil || w.batch != nil {
		if e.closed.Load() {
			return 0, 0, ErrDBClosed
		}
		if w.stageFault != nil {
			if err := w.stageFault.Check(); err != nil {
				return 0, 0, fmt.Errorf("txn: %w", err)
			}
		}
		if w.meta != nil {
			if target, err = e.log.StageMeta(w.meta); err != nil {
				return 0, 0, fmt.Errorf("txn: wal append: %w", err)
			}
		}
		if w.batch != nil {
			if target, err = e.log.StageRaw(w.batch); err != nil {
				if w.meta != nil {
					return 0, 0, unknownOutcome("wal append after a metadata record", err)
				}
				return 0, 0, fmt.Errorf("txn: wal append: %w", err)
			}
			lsn = e.log.LSN()
		}
		if fn := e.AfterAppend; fn != nil {
			fn(e.log.Size())
		}
	}
	if len(w.ops) > 0 && w.applyFault != nil {
		if err := w.applyFault.Check(); err != nil {
			return 0, 0, unknownOutcome("apply after logging", err)
		}
	}
	for i := range w.ops {
		// The op is logged but not applied: replay at reopen repairs
		// the database, but this process's state may be inconsistent.
		if err := e.mgr.Apply(&w.ops[i]); err != nil {
			return 0, 0, unknownOutcome("apply after logging", err)
		}
	}
	return target, lsn, nil
}

// syncTo waits until everything stage wrote up to target is durable,
// sharing one fsync with every writer staged meanwhile (wal.SyncTo). A
// zero target, nothing staged, returns at once. A failure poisons the
// log and leaves the staged records' durability unknown.
func (e *Engine) syncTo(target int64) error {
	if target == 0 {
		return nil
	}
	if err := e.log.SyncTo(target); err != nil {
		return unknownOutcome("wal sync", err)
	}
	return nil
}

// unknownOutcome reports a failure after records reached the WAL file.
func unknownOutcome(step string, err error) error {
	return fmt.Errorf("%w: %s: %w", ErrUnknownOutcome, step, err)
}

// Begin starts a transaction with no deadline (context.Background).
func (e *Engine) Begin() *Tx { return e.BeginCtx(context.Background()) }

// BeginCtx starts a transaction governed by ctx: its deadline and
// cancellation are observed at lock waits, scan batch boundaries, and
// commit, aborting the transaction with ErrTxTimeout / ErrCanceled.
// A nil ctx means context.Background.
func (e *Engine) BeginCtx(ctx context.Context) *Tx {
	if ctx == nil {
		ctx = context.Background()
	}
	e.met.Txn.Begins.Inc()
	return &Tx{engine: e, held: heldList{txid: e.nextID.Add(1)}, ctx: ctx}
}

// FailedTx returns a transaction that was never admitted: every
// operation on it, including Commit, returns err (typically
// ErrOverloaded or ErrDBClosed). It keeps Begin-shaped call sites
// total — the database layer hands one out when admission control
// rejects a Begin — and Abort on it is a no-op.
func FailedTx(e *Engine, err error) *Tx {
	return &Tx{engine: e, state: stateFailed, failErr: err, ctx: context.Background()}
}

// txWrite is the buffered state of one object in a transaction.
type txWrite struct {
	obj     *core.Object // nil => deleted
	created bool
	dirty   bool
}

// Tx is a transaction: a private view over the database that becomes
// visible atomically at commit. Tx implements core.Store, so member
// functions, constraints, and triggers run against the transactional
// view.
//
// A Tx belongs to one goroutine, as in database/sql: none of its state
// is synchronized, and concurrency comes from running many
// transactions, each on its own goroutine.
type Tx struct {
	engine  *Engine
	state   int
	ctx     context.Context // never nil; Background without a governor
	failErr error           // stateFailed: the admission rejection
	noted   bool            // Cancels metric latch: counted once

	// The three maps are nil until the first write (setWrite,
	// setCurrent, NewVersion): a read-only transaction never makes one.
	writes  map[core.OID]*txWrite
	ops     []wal.Op
	frozen  map[core.VRef]*core.Object // buffered newversion snapshots
	current map[core.OID]uint32        // buffered current-version numbers

	commitLSN uint64 // LSN of this transaction's batch; 0 for read-only commits

	// clusters are the cluster words this transaction holds and in
	// which mode, so a writer's IX costs a lock-table visit once per
	// cluster, not once per row. Appended to only by lockCluster.
	clusters []clusterHold

	onFinish []func() // run once, after locks release

	// held is the id the transaction locks by and the lock words it was
	// granted; Prepare hands the words to the prepared entry.
	held heldList

	// Touched is exported through accessors for the trigger layer.
}

// clusterHold is one cluster word a transaction holds.
type clusterHold struct {
	id   core.ClassID
	mode LockMode
}

// setWrite buffers oid's state, making the write set on first use.
func (tx *Tx) setWrite(oid core.OID, w *txWrite) {
	if tx.writes == nil {
		tx.writes = make(map[core.OID]*txWrite)
	}
	tx.writes[oid] = w
}

// setCurrent buffers oid's current-version number.
func (tx *Tx) setCurrent(oid core.OID, v uint32) {
	if tx.current == nil {
		tx.current = make(map[core.OID]uint32)
	}
	tx.current[oid] = v
}

// OnFinish registers fn to run exactly once when the transaction
// finishes (commit or abort), after its locks are released. The
// database layer uses it to return admission slots and untrack the
// transaction. Register before handing the Tx out; a finished or failed
// transaction never runs late registrations.
func (tx *Tx) OnFinish(fn func()) {
	tx.onFinish = append(tx.onFinish, fn)
}

// Context returns the context governing the transaction (never nil).
func (tx *Tx) Context() context.Context { return tx.ctx }

// Err reports why the transaction can do no more work, as the engine's
// typed errors: nil while live, ErrTxDone once finished (what every
// operation of a finished transaction returns), ErrTxTimeout after a
// deadline expiry, ErrCanceled after cancellation. The query layer polls
// it at the start of a scan and between batches; it is one atomic load
// on the live path.
func (tx *Tx) Err() error {
	if err := tx.ensureActive(); err != nil {
		return err
	}
	if err := tx.ctx.Err(); err != nil {
		return tx.noteCtxErr(err)
	}
	return nil
}

// noteCtxErr types a context failure and counts the transaction as
// canceled once, however many of its calls see the dead context.
func (tx *Tx) noteCtxErr(err error) error {
	tx.noteCancel()
	return fmt.Errorf("%w (tx %d)", FromContextErr(err), tx.ID())
}

// noteIfCtx latches the Cancels metric when err is a context-typed
// failure surfaced by a lower layer (lock manager, backpressure).
func (tx *Tx) noteIfCtx(err error) {
	if errors.Is(err, ErrTxTimeout) || errors.Is(err, ErrCanceled) {
		tx.noteCancel()
	}
}

// noteCancel counts the transaction in txn.cancels the first time it
// is called.
func (tx *Tx) noteCancel() {
	if !tx.noted {
		tx.noted = true
		tx.engine.met.Txn.Cancels.Inc()
	}
}

// ID returns the transaction id.
func (tx *Tx) ID() uint64 { return tx.held.txid }

// HeldLocks reports the locks the transaction holds (tests).
func (tx *Tx) HeldLocks() map[core.OID]LockMode { return tx.engine.locks.HeldLocks(&tx.held) }

// Manager exposes the object manager for read paths (extent and index
// scans) of the query layer. Mutations must go through the Tx methods.
func (tx *Tx) Manager() *object.Manager { return tx.engine.mgr }

// Metrics returns the engine metric set; the query layer records plan
// choices and row counts through it.
func (tx *Tx) Metrics() *obs.Metrics { return tx.engine.met }

// Schema implements core.Store.
func (tx *Tx) Schema() *core.Schema { return tx.engine.mgr.Schema() }

func (tx *Tx) ensureActive() error {
	if tx.state == stateFailed {
		return tx.failErr
	}
	if tx.state != stateActive {
		return ErrTxDone
	}
	return nil
}

// ensureWritable guards the write entry points: active, and not a
// read-only replica.
func (tx *Tx) ensureWritable() error {
	if err := tx.ensureActive(); err != nil {
		return err
	}
	if tx.engine.readOnly.Load() {
		return fmt.Errorf("%w (tx %d)", ErrReadOnly, tx.ID())
	}
	return nil
}

// Deref implements core.Store: it returns a private copy of the current
// state of the object. Mutations become part of the transaction only
// via Update.
func (tx *Tx) Deref(oid core.OID) (*core.Object, error) { return tx.deref(oid, rowWait) }

// DerefCovered is Deref for a row of a cluster the transaction holds S
// (or X) on through LockCluster: the cluster word excludes every
// writer of the cluster, so the row takes no lock of its own. An
// extent scan reads its rows with it. A row whose cluster the
// transaction does not hold so is an error, never a read around a
// writer.
func (tx *Tx) DerefCovered(oid core.OID) (*core.Object, error) { return tx.deref(oid, rowCovered) }

// How deref locks the row it reads.
const (
	rowWait    = iota // S, waiting if need be (Deref)
	rowTry            // S only if grantable at once (Revalidate with try)
	rowCovered        // none: the cluster's S covers the row (DerefCovered)
)

func (tx *Tx) deref(oid core.OID, how int) (*core.Object, error) {
	w, err := tx.readRow(oid, how)
	if err != nil {
		return nil, err
	}
	if w != nil {
		return w.obj.Copy(), nil
	}
	o, _, err := tx.engine.mgr.Get(oid)
	if err != nil {
		return nil, err
	}
	if err := tx.checkCovered(oid, o, how); err != nil {
		return nil, err
	}
	return o, nil
}

// Borrow is Deref (covered, DerefCovered) for a caller that only reads
// the object: it takes the same lock and returns the transaction-visible
// object without copying it. An object of the write set is returned
// itself, with a nil image. Any other is the engine cache's, with its
// encoded image memoized beside it (object.Manager.GetImage), or, when
// the cache missed, a fresh object with a nil image. A nil image is the
// caller's to encode. Object and image are shared: the caller must
// change neither, and read them only until its next call on the
// transaction. A forall that ships its rows reads them with it.
func (tx *Tx) Borrow(oid core.OID, covered bool) (*core.Object, []byte, error) {
	how := rowWait
	if covered {
		how = rowCovered
	}
	w, err := tx.readRow(oid, how)
	if err != nil {
		return nil, nil, err
	}
	if w != nil {
		return w.obj, nil, nil
	}
	o, image, err := tx.engine.mgr.GetImage(oid)
	if err != nil {
		return nil, nil, err
	}
	if err := tx.checkCovered(oid, o, how); err != nil {
		return nil, nil, err
	}
	return o, image, nil
}

// checkCovered refuses a covered read of o, read as oid, whose cluster
// the transaction does not hold S or X on.
func (tx *Tx) checkCovered(oid core.OID, o *core.Object, how int) error {
	if how == rowCovered && !tx.readsCluster(o.Class().ID()) {
		return fmt.Errorf("txn: covered read of @%d (tx %d) without a lock on cluster %s", oid, tx.ID(), o.Class().Name)
	}
	return nil
}

// Revalidate is Deref for a reader that already holds a copy of oid
// whose content tag, object.ImageTag of its encoded image, is tag: it
// takes Deref's lock, then returns nil when the object Deref would
// return still has that tag, and that object when it has another. An
// object this transaction wrote or deleted is answered from the write
// set, as Deref answers it. The server proves a client's cached
// neighbourhood with it: a proven entry costs the lock and a compare of
// the cache entry's memoized tag (object.Manager.Revalidate).
//
// With try, the read is one the caller only expects to need: the shared
// lock is taken through LockManager.TryAcquire, so where Deref would
// wait it returns ErrLockBusy instead — no wait, no waits-for edge, no
// lock_waits count. A lock it does take is held to the end of the
// transaction like any other.
func (tx *Tx) Revalidate(oid core.OID, tag uint64, try bool) (*core.Object, error) {
	how := rowWait
	if try {
		how = rowTry
	}
	w, err := tx.readRow(oid, how)
	switch {
	case err != nil:
		return nil, err
	case w == nil:
		return tx.engine.mgr.Revalidate(oid, tag)
	case object.ImageTag(object.Encode(w.obj)) == tag:
		return nil, nil
	default:
		return w.obj.Copy(), nil
	}
}

// readRow is what a read does before it asks the object manager: the
// transaction must be active and oid not nil; an object in the write
// set is answered from it (w non-nil; an error when this transaction
// deleted it); any other row is locked as how says, and w is nil.
func (tx *Tx) readRow(oid core.OID, how int) (*txWrite, error) {
	if err := tx.ensureActive(); err != nil {
		return nil, err
	}
	if oid == core.NilOID {
		return nil, fmt.Errorf("%w: nil reference", object.ErrNoObject)
	}
	if w, ok := tx.writes[oid]; ok {
		if w.obj == nil {
			return nil, fmt.Errorf("%w: @%d (deleted in this transaction)", object.ErrNoObject, oid)
		}
		return w, nil
	}
	switch how {
	case rowWait:
		return nil, tx.lock(oid, Shared)
	case rowTry:
		if err := tx.Err(); err != nil {
			return nil, err
		} else if !tx.engine.locks.TryAcquire(&tx.held, oid, Shared) {
			return nil, fmt.Errorf("%w (tx %d on @%d)", ErrLockBusy, tx.ID(), oid)
		}
	}
	return nil, nil
}

// LockCluster takes S on class c's cluster word (c's own extent, not
// its subclasses') for the rest of the transaction and reports true: it
// waits for every writer of the cluster to finish, and keeps new
// writers out, so the extent can be listed and its rows read with
// DerefCovered — a scan that sees no phantoms and takes one lock
// instead of one per row.
//
// On a database that is one shard of a group it takes nothing and
// reports false, and the scan locks each row it reads, as an index scan
// does. A shard's deadlock detector sees only its own waits: a scan
// holding one shard's cluster S while waiting for another's would close
// cycles with cross-shard writers that no shard can see. Without S, a
// shard's cluster words are only ever IX, which never wait on each
// other (DESIGN.md §7 "Shards take no cluster S").
func (tx *Tx) LockCluster(c *core.Class) (covered bool, err error) {
	if err := tx.ensureActive(); err != nil {
		return false, err
	}
	if tx.engine.shardSlot >= 0 {
		return false, nil
	}
	return true, tx.lockCluster(c.ID(), Shared)
}

// lockCluster takes mode on cluster id's word unless the transaction
// already holds it in that mode or X. Holding the other one of S and
// IX, the lock table upgrades to X (there is no SIX), and so does the
// record here.
func (tx *Tx) lockCluster(id core.ClassID, mode LockMode) error {
	i := 0
	for ; i < len(tx.clusters); i++ {
		if h := tx.clusters[i]; h.id == id {
			if h.mode == mode || h.mode == Exclusive {
				return nil
			}
			break
		}
	}
	if err := tx.lock(ClusterLockOID(id), mode); err != nil {
		return err
	}
	if i < len(tx.clusters) {
		tx.clusters[i].mode = Exclusive
	} else {
		tx.clusters = append(tx.clusters, clusterHold{id, mode})
	}
	return nil
}

// readsCluster reports whether the transaction holds cluster id's word
// in a mode that excludes its writers.
func (tx *Tx) readsCluster(id core.ClassID) bool {
	for _, h := range tx.clusters {
		if h.id == id {
			return h.mode != IntentExclusive
		}
	}
	return false
}

// lockWrite takes what a write of oid, an object of class c, needs: IX
// on c's cluster, then X on the row.
func (tx *Tx) lockWrite(c *core.Class, oid core.OID) error {
	if err := tx.lockCluster(c.ID(), IntentExclusive); err != nil {
		return err
	}
	return tx.lock(oid, Exclusive)
}

// classOf returns the class of oid as this transaction sees it, or
// ErrNoObject. It needs no lock: a class never changes, so the read is
// exact for an object that exists.
func (tx *Tx) classOf(oid core.OID) (*core.Class, error) {
	if w, ok := tx.writes[oid]; ok {
		if w.obj == nil {
			return nil, fmt.Errorf("%w: @%d (deleted in this transaction)", object.ErrNoObject, oid)
		}
		return w.obj.Class(), nil
	}
	return tx.engine.mgr.ClassOf(oid)
}

// DerefVersion implements core.Store for pinned version references.
func (tx *Tx) DerefVersion(ref core.VRef) (*core.Object, error) {
	if err := tx.ensureActive(); err != nil {
		return nil, err
	}
	if o, ok := tx.frozen[ref]; ok {
		return o.Copy(), nil
	}
	cur, err := tx.CurrentVersion(ref.OID)
	if err != nil {
		return nil, err
	}
	if ref.Version == cur {
		return tx.Deref(ref.OID)
	}
	if err := tx.lock(ref.OID, Shared); err != nil {
		return nil, err
	}
	return tx.engine.mgr.GetVersion(ref.OID, ref.Version)
}

// PNew implements core.Store: it creates a persistent object of class c
// initialized from init (nil for a zero instance). The class's cluster
// must exist.
func (tx *Tx) PNew(c *core.Class, init *core.Object) (core.OID, error) {
	if err := tx.ensureWritable(); err != nil {
		return core.NilOID, err
	}
	if err := tx.engine.mgr.RequireCluster(c); err != nil {
		return core.NilOID, err
	}
	var o *core.Object
	if init == nil {
		o = core.NewObject(c)
	} else {
		if init.Class() != c {
			return core.NilOID, fmt.Errorf("txn: PNew class %s does not match object class %s", c.Name, init.Class().Name)
		}
		o = init.Copy()
	}
	oid, err := tx.engine.mgr.AllocOID()
	if err != nil {
		return core.NilOID, err
	}
	if err := tx.lockWrite(c, oid); err != nil {
		return core.NilOID, err
	}
	tx.setWrite(oid, &txWrite{obj: o, created: true, dirty: true})
	tx.setCurrent(oid, 0)
	return oid, nil
}

// Update implements core.Store: it publishes the (mutated) state of a
// persistent object into the transaction.
func (tx *Tx) Update(oid core.OID, o *core.Object) error {
	if err := tx.ensureWritable(); err != nil {
		return err
	}
	if err := tx.lockWrite(o.Class(), oid); err != nil {
		return err
	}
	if w, ok := tx.writes[oid]; ok {
		if w.obj == nil {
			return fmt.Errorf("%w: @%d (deleted in this transaction)", object.ErrNoObject, oid)
		}
		if w.obj.Class() != o.Class() {
			return fmt.Errorf("txn: update changes class of @%d", oid)
		}
		w.obj = o.Copy()
		w.dirty = true
		return nil
	}
	// First write: validate existence and class.
	old, cur, err := tx.engine.mgr.Get(oid)
	if err != nil {
		return err
	}
	if old.Class() != o.Class() {
		return fmt.Errorf("txn: update changes class of @%d from %s to %s", oid, old.Class().Name, o.Class().Name)
	}
	tx.setWrite(oid, &txWrite{obj: o.Copy(), dirty: true})
	if _, ok := tx.current[oid]; !ok {
		tx.setCurrent(oid, cur)
	}
	return nil
}

// PDelete implements core.Store: it removes a persistent object (and
// all its versions) at commit.
func (tx *Tx) PDelete(oid core.OID) error {
	if err := tx.ensureWritable(); err != nil {
		return err
	}
	// The row's X, then its class, which under that lock is the
	// existence check, then the cluster's IX. Writes are buffered, so
	// nothing of the delete is visible before the IX is held.
	if err := tx.lock(oid, Exclusive); err != nil {
		return err
	}
	c, err := tx.classOf(oid)
	if err != nil {
		return err
	}
	if err := tx.lockCluster(c.ID(), IntentExclusive); err != nil {
		return err
	}
	if w, ok := tx.writes[oid]; ok {
		w.obj = nil
		w.dirty = true
		return nil
	}
	tx.setWrite(oid, &txWrite{dirty: true})
	return nil
}

// CurrentVersion returns the current version number of an object as
// seen by this transaction.
func (tx *Tx) CurrentVersion(oid core.OID) (uint32, error) {
	if err := tx.ensureActive(); err != nil {
		return 0, err
	}
	if v, ok := tx.current[oid]; ok {
		return v, nil
	}
	if w, ok := tx.writes[oid]; ok && w.obj == nil {
		return 0, fmt.Errorf("%w: @%d", object.ErrNoObject, oid)
	}
	if err := tx.lock(oid, Shared); err != nil {
		return 0, err
	}
	return tx.engine.mgr.CurrentVersion(oid)
}

// NewVersion freezes the current state of the object as a new immutable
// version and returns a reference to that frozen version. Subsequent
// updates apply to the (new) current version (paper, section 4: "A new
// version is created explicitly by calling the macro newversion").
func (tx *Tx) NewVersion(oid core.OID) (core.VRef, error) {
	if err := tx.ensureWritable(); err != nil {
		return core.VRef{}, err
	}
	c, err := tx.classOf(oid)
	if err != nil {
		return core.VRef{}, err
	}
	if err := tx.lockWrite(c, oid); err != nil {
		return core.VRef{}, err
	}
	cur, err := tx.CurrentVersion(oid)
	if err != nil {
		return core.VRef{}, err
	}
	state, err := tx.Deref(oid)
	if err != nil {
		return core.VRef{}, err
	}
	ref := core.VRef{OID: oid, Version: cur}
	if tx.frozen == nil {
		tx.frozen = make(map[core.VRef]*core.Object)
	}
	tx.frozen[ref] = state
	tx.setCurrent(oid, cur+1)
	// Ensure the object is in the write set so the version bump lands.
	if w, ok := tx.writes[oid]; ok {
		w.dirty = true
	} else {
		tx.setWrite(oid, &txWrite{obj: state.Copy(), dirty: true})
	}
	return ref, nil
}

// DeleteVersion removes one frozen version of an object. It takes no
// IX on the object's cluster: no scan reads frozen versions.
func (tx *Tx) DeleteVersion(ref core.VRef) error {
	if err := tx.ensureWritable(); err != nil {
		return err
	}
	if err := tx.lock(ref.OID, Exclusive); err != nil {
		return err
	}
	if _, ok := tx.frozen[ref]; ok {
		delete(tx.frozen, ref)
		return nil
	}
	if _, err := tx.engine.mgr.GetVersion(ref.OID, ref.Version); err != nil {
		return err
	}
	tx.ops = append(tx.ops, wal.Op{Type: wal.OpDeleteVersion, OID: uint64(ref.OID), Version: ref.Version})
	return nil
}

// Versions lists the frozen version numbers visible to this
// transaction.
func (tx *Tx) Versions(oid core.OID) ([]uint32, error) {
	if err := tx.ensureActive(); err != nil {
		return nil, err
	}
	if err := tx.lock(oid, Shared); err != nil {
		return nil, err
	}
	vs, err := tx.engine.mgr.Versions(oid)
	if err != nil {
		return nil, err
	}
	for ref := range tx.frozen {
		if ref.OID == oid {
			vs = append(vs, ref.Version)
		}
	}
	// Buffered DeleteVersion ops hide versions.
	hidden := make(map[uint32]bool)
	for _, op := range tx.ops {
		if op.Type == wal.OpDeleteVersion && core.OID(op.OID) == oid {
			hidden[op.Version] = true
		}
	}
	out := vs[:0]
	seen := make(map[uint32]bool)
	for _, v := range vs {
		if !hidden[v] && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sortUint32(out)
	return out, nil
}

func sortUint32(s []uint32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// lock acquires a lock through the engine's lock manager, under the
// transaction's context: every Deref and mutation passes through here,
// so deadline/cancellation checks cover each page-fetch boundary.
func (tx *Tx) lock(oid core.OID, mode LockMode) error {
	if err := tx.ctx.Err(); err != nil {
		return tx.noteCtxErr(err)
	}
	err := tx.engine.locks.Acquire(tx.ctx, &tx.held, oid, mode)
	if err != nil {
		tx.noteIfCtx(err)
	}
	return err
}

// WriteSet returns the OIDs this transaction created, updated, or
// deleted, in OID order (the trigger layer evaluates conditions over
// these; a scan merges them into its cluster walk).
func (tx *Tx) WriteSet() []core.OID {
	var out []core.OID
	for oid, w := range tx.writes {
		if w.dirty {
			out = append(out, oid)
		}
	}
	slices.Sort(out)
	return out
}

// IsDeleted reports whether the transaction deletes oid.
func (tx *Tx) IsDeleted(oid core.OID) bool {
	w, ok := tx.writes[oid]
	return ok && w.obj == nil
}

// WrittenObject returns the buffered image this transaction wrote for
// oid, or nil for deletes and OIDs outside the write set. After a
// commit it is the object's current state — the post-commit hook reads
// it instead of paying a directory lookup, heap fetch, and decode per
// written OID.
func (tx *Tx) WrittenObject(oid core.OID) *core.Object {
	w, ok := tx.writes[oid]
	if !ok {
		return nil
	}
	return w.obj
}

// Created reports whether the transaction created oid.
func (tx *Tx) Created(oid core.OID) bool {
	w, ok := tx.writes[oid]
	return ok && w.created
}

// Commit makes the transaction durable: constraints are checked, the
// PreCommit hook runs, the logical operations are staged to the WAL
// and applied to the object manager under the commit lock, and the
// commit waits outside that lock for the fsync it shares with every
// committer staged meanwhile (group commit). Strict 2PL keeps that
// window sound: the locks are held until finish, so no other
// transaction reads the applied-but-not-yet-durable state.
func (tx *Tx) Commit() error {
	if err := tx.ensureActive(); err != nil {
		return err
	}
	met := &tx.engine.met.Txn
	defer met.CommitNS.Since(time.Now())
	ops, err := tx.precommit()
	if err != nil {
		return err
	}
	e := tx.engine
	var raw []byte
	if len(ops) > 0 {
		raw = wal.EncodeBatch(tx.ID(), ops)
	}
	e.commitMu.Lock()
	target, lsn, err := e.stage(write{batch: raw, ops: ops, stageFault: fpCommitWAL, applyFault: fpCommitApply})
	e.commitMu.Unlock()
	if err == nil {
		tx.commitLSN = lsn
		// A failed fsync leaves the batch applied in memory with its
		// durability unknown; the WAL is poisoned, so no later commit
		// succeeds and nothing is announced to replication.
		err = e.syncTo(target)
	}
	if err != nil {
		if errors.Is(err, ErrUnknownOutcome) {
			tx.finish(stateAborted)
		} else {
			tx.Abort()
		}
		return fmt.Errorf("txn: commit of tx %d: %w", tx.ID(), err)
	}
	if raw != nil {
		e.announce(lsn, raw)
	}
	tx.finish(stateCommitted)
	if hook := e.PostCommit; hook != nil {
		hook(tx)
	}
	return nil
}

// precommit runs the shared front half of Commit and Engine.Prepare:
// the constraint sweep over final buffered states (conceptually "at
// the end of each transaction"), the PreCommit hook, lowering to WAL
// ops, and — for transactions with a write set — the read-only,
// dead-context, and backpressure gates. On error the transaction has
// already been aborted.
func (tx *Tx) precommit() ([]wal.Op, error) {
	met := &tx.engine.met.Txn
	for oid, w := range tx.writes {
		if w.obj == nil || !w.dirty {
			continue
		}
		violated, err := w.obj.CheckConstraints(tx)
		if err != nil {
			met.ConstraintViolations.Inc()
			tx.Abort()
			return nil, fmt.Errorf("%w: %v", ErrConstraintViolation, err)
		}
		if violated != nil {
			met.ConstraintViolations.Inc()
			tx.Abort()
			return nil, fmt.Errorf("%w: object @%d of class %s violates %q (%s)",
				ErrConstraintViolation, oid, w.obj.Class().Name, violated.Name, violated.Src)
		}
	}
	if hook := tx.engine.PreCommit; hook != nil {
		if err := hook(tx); err != nil {
			tx.Abort()
			return nil, err
		}
	}
	ops := tx.buildOps()
	e := tx.engine
	if len(ops) > 0 {
		// A transaction begun before the node entered replica mode may
		// reach Commit with a write set; reject it like the write entry
		// points do.
		if e.readOnly.Load() {
			tx.Abort()
			return nil, fmt.Errorf("%w (commit of tx %d)", ErrReadOnly, tx.ID())
		}
		// A dead context aborts before anything reaches the WAL, so a
		// canceled transaction is always a clean abort, never an
		// ambiguous commit.
		if err := tx.ctx.Err(); err != nil {
			terr := tx.noteCtxErr(err)
			tx.Abort()
			return nil, terr
		}
		// Hard-limit stall before the commit lock: the checkpointer
		// needs that lock to drain the log.
		if bp := e.Backpressure; bp != nil {
			if err := bp(tx.ctx); err != nil {
				tx.noteIfCtx(err)
				tx.Abort()
				return nil, err
			}
		}
	}
	return ops, nil
}

// buildOps lowers the buffered write set to WAL operations: frozen
// version snapshots first, then puts/deletes, then any explicit
// buffered ops (version deletions). The first two runs are in OID
// order, not map order, so one program writes the same log and grows
// the same trees every time it runs: a batch of creates applied in map
// order splits its cluster leaves at random points, and every later
// extent scan reads a leaf count that differs from run to run.
func (tx *Tx) buildOps() []wal.Op {
	var ops []wal.Op
	for ref, obj := range tx.frozen {
		// Skip snapshots of objects deleted later in the transaction.
		if tx.IsDeleted(ref.OID) {
			continue
		}
		ops = append(ops, wal.Op{
			Type:    wal.OpPutVersion,
			OID:     uint64(ref.OID),
			Version: ref.Version,
			ClassID: uint32(obj.Class().ID()),
			Image:   object.Encode(obj),
		})
	}
	slices.SortFunc(ops, func(a, b wal.Op) int {
		return cmp.Or(cmp.Compare(a.OID, b.OID), cmp.Compare(a.Version, b.Version))
	})
	versions := len(ops)
	for oid, w := range tx.writes {
		if !w.dirty {
			continue
		}
		if w.obj == nil {
			if w.created {
				continue // created and deleted in the same transaction
			}
			ops = append(ops, wal.Op{Type: wal.OpDelete, OID: uint64(oid)})
			continue
		}
		ops = append(ops, wal.Op{
			Type:    wal.OpPut,
			OID:     uint64(oid),
			Version: tx.current[oid],
			ClassID: uint32(w.obj.Class().ID()),
			Image:   object.Encode(w.obj),
		})
	}
	slices.SortFunc(ops[versions:], func(a, b wal.Op) int { return cmp.Compare(a.OID, b.OID) })
	return append(ops, tx.ops...)
}

// Abort rolls the transaction back: buffered writes are discarded and
// locks released. Abort of a finished (or never-admitted) transaction
// is a no-op.
func (tx *Tx) Abort() {
	if tx.state != stateActive {
		return
	}
	tx.finish(stateAborted)
	if hook := tx.engine.PostAbort; hook != nil {
		hook(tx)
	}
}

// finish ends the transaction. An end that is not a commit counts as an
// abort only when there was a write set to discard; a read-only end
// (every View, a remote reader's abort) counts in ReadOnlyEnds.
func (tx *Tx) finish(state int) {
	tx.state = state
	switch {
	case state == stateCommitted:
		tx.engine.met.Txn.Commits.Inc()
	case len(tx.writes) == 0 && len(tx.ops) == 0 && len(tx.frozen) == 0 && len(tx.current) == 0:
		tx.engine.met.Txn.ReadOnlyEnds.Inc()
	default:
		tx.engine.met.Txn.Aborts.Inc()
	}
	tx.engine.locks.ReleaseAll(&tx.held)
	for _, fn := range tx.onFinish {
		fn()
	}
	tx.onFinish = nil
}

// CommitLSN returns the log sequence number assigned to this
// transaction's batch by a successful Commit, or 0 if the transaction
// had no write set (or has not committed). Clients use it to bound
// staleness when reading from replicas ("read your writes").
func (tx *Tx) CommitLSN() uint64 { return tx.commitLSN }

// Active reports whether the transaction can still be used.
func (tx *Tx) Active() bool { return tx.state == stateActive }

// Committed reports whether Commit succeeded.
func (tx *Tx) Committed() bool { return tx.state == stateCommitted }
