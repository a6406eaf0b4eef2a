// Package ode is a Go reproduction of Ode, the object database and
// environment of Agrawal and Gehani (AT&T Bell Laboratories, SIGMOD
// 1989), whose database programming language O++ extended the C++
// object model with persistence, clusters (type extents), sets,
// declarative iterators, versions, constraints, and triggers.
//
// The package offers the same data model as a Go library:
//
//	schema := ode.NewSchema()
//	stock := ode.NewClass("stockitem").
//		Field("name", ode.TString).
//		Field("qty", ode.TInt).
//		Constraint("nonneg", "qty >= 0", func(_ ode.Store, o *ode.Object) (bool, error) {
//			return o.MustGet("qty").Int() >= 0, nil
//		}).
//		Register(schema)
//
//	db, _ := ode.Open("inventory.odb", schema, nil)
//	defer db.Close()
//	db.CreateCluster(stock)
//
//	tx := db.Begin()
//	item := ode.NewObject(stock)
//	item.MustSet("name", ode.Str("512k dram"))
//	item.MustSet("qty", ode.Int(7500))
//	oid, _ := tx.PNew(stock, item)        // the paper's pnew
//	_ = tx.Commit()
//
//	tx = db.Begin()
//	ode.Forall(tx, stock).                 // forall x in stockitem
//		SuchThat(ode.Field("qty").Lt(ode.Int(100))).
//		By("name").
//		Do(func(it ode.Item) (bool, error) { ...; return true, nil })
//
// An O++-subset interpreter (the oql package, surfaced by cmd/ode-sh)
// executes the paper's actual syntax against the same engine.
//
// Durability design: committed transactions are logged (logical redo
// records, fsynced at commit) in a write-ahead log; uncommitted work
// never reaches shared pages (no-steal), so the log needs no undo; a
// checkpoint flushes all dirty pages through a double-write buffer
// (torn-page safe) and truncates the log; an unclean shutdown triggers
// a repair-on-open rebuild from the heap records plus a log replay.
package ode

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ode/internal/btree"
	"ode/internal/core"
	"ode/internal/failpoint"
	"ode/internal/object"
	"ode/internal/obs"
	"ode/internal/storage"
	"ode/internal/trigger"
	"ode/internal/txn"
	"ode/internal/version"
	"ode/internal/wal"
)

// Options configures Open.
type Options struct {
	// PoolPages is the buffer pool capacity in 4 KiB pages (default
	// 1024 = 4 MiB).
	PoolPages int
	// NoSync disables the fsync at commit (durability of recent commits
	// is lost on power failure; benchmarking only).
	NoSync bool
	// AsyncTriggers runs fired trigger actions on background goroutines
	// instead of inline at commit. Use Triggers().Wait() to drain.
	AsyncTriggers bool
	// ObjectCacheSize bounds the decoded-object cache in objects: 0
	// means the default (4096), negative disables the cache. The cache
	// serves repeated Derefs of hot objects without re-reading and
	// re-decoding their heap records.
	ObjectCacheSize int
	// DisableRecovery refuses to open an unclean database instead of
	// rebuilding it (diagnostics).
	DisableRecovery bool
	// UnsafeSkipDoubleWrite writes dirty pages in place without staging
	// them in the double-write buffer first, surrendering torn-page
	// protection. It exists so the crash-recovery torture suite can
	// demonstrate that it detects the durability bug this introduces
	// (see docs/TESTING.md); never set it in production.
	UnsafeSkipDoubleWrite bool
	// MaxConcurrentTx caps the transactions admitted concurrently
	// through Begin/RunTx/View (0 = unlimited). Past the cap, Begin
	// calls queue (bounded by MaxQueuedTx) and are then rejected with
	// ErrOverloaded, so overload degrades to fast typed rejection
	// instead of lock-queue collapse. Trigger-action transactions run
	// inside the engine and are exempt (gating them against user
	// transactions could deadlock commit against admission).
	MaxConcurrentTx int
	// MaxQueuedTx bounds Begin calls waiting for an admission slot
	// when MaxConcurrentTx is set (0 = default, 2*MaxConcurrentTx;
	// negative = no queue, reject as soon as the slots are full).
	MaxQueuedTx int
	// WALSoftLimit, in bytes, triggers an automatic background
	// checkpoint when a commit grows the log past it (0 = no automatic
	// checkpoints; the log grows until Checkpoint or Close).
	WALSoftLimit int64
	// WALHardLimit, in bytes, applies commit backpressure: a commit
	// with a write set stalls (observing its context) until a
	// checkpoint brings the log back under the limit (0 = no
	// backpressure). Setting only WALHardLimit implies a soft limit of
	// half of it, so the checkpointer kicks in before commits stall.
	WALHardLimit int64
	// CloseTimeout bounds how long Close waits for active transactions
	// to drain before canceling them (default 5s).
	CloseTimeout time.Duration
	// GroupCommit tunes the group-commit fast path: concurrent
	// committers stage their WAL batches under the commit lock but wait
	// for durability outside it, sharing one fsync per group (the first
	// waiter leads, the rest follow). On by default — a lone committer
	// pays exactly the old write+fsync cost.
	GroupCommit GroupCommitOptions
	// ShardCount and ShardSlot configure this database as shard
	// ShardSlot of a ShardCount-wide group: every OID it allocates
	// satisfies oid % ShardCount == ShardSlot, so a client-side router
	// (client.Sharded) can map any OID back to its shard with one
	// modulo, and the transaction engine learns which two-phase-commit
	// gids it coordinates (docs/SHARDING.md). ShardCount < 2 means
	// unsharded.
	ShardCount int
	ShardSlot  int
	// PrepareTimeout bounds how long a prepared (in-doubt) two-phase-
	// commit transaction waits for its decision before its coordinator
	// presumes abort and releases the locks (default 60s). Participants
	// never time out on their own — see docs/SHARDING.md.
	PrepareTimeout time.Duration
}

// GroupCommitOptions configures commit batching (Options.GroupCommit).
type GroupCommitOptions struct {
	// Disable turns group commit off: commits hold the commit lock
	// through their fsync, serializing durability waits.
	Disable bool
}

func (o *Options) withDefaults() Options {
	var out Options
	if o != nil {
		out = *o
	}
	if out.PoolPages <= 0 {
		out.PoolPages = 1024
	}
	if out.ObjectCacheSize == 0 {
		out.ObjectCacheSize = object.DefaultObjectCacheSize
	}
	if out.WALHardLimit > 0 && out.WALSoftLimit <= 0 {
		out.WALSoftLimit = out.WALHardLimit / 2
	}
	if out.CloseTimeout <= 0 {
		out.CloseTimeout = 5 * time.Second
	}
	return out
}

// ErrNeedsRecovery is returned when DisableRecovery is set and the
// database was not shut down cleanly.
var ErrNeedsRecovery = errors.New("ode: database needs recovery")

// DB is an open Ode database.
type DB struct {
	path     string
	opts     Options
	fs       *storage.FileStore
	dw       *storage.DoubleWriter
	pool     *storage.Pool
	log      *wal.Log
	mgr      *object.Manager
	engine   *txn.Engine
	triggers *trigger.Service
	versions *version.Service
	schema   *core.Schema
	reg      *obs.Registry
	met      *obs.Metrics

	gov      *txn.Governor // nil when MaxConcurrentTx is 0
	activeTx atomic.Int64  // user transactions begun and not yet finished
	closing  atomic.Bool   // set first thing in Close; gates BeginCtx
	closed   bool          // files released (Close/CrashForTesting ran)

	cancelMu sync.Mutex
	cancels  map[uint64]context.CancelFunc // live txid -> cancel, for Close

	ckptKick chan struct{} // non-blocking kicks from commits past the soft limit
	ckptStop chan struct{} // closed to stop the checkpointer
	ckptDone chan struct{} // closed when the checkpointer has exited

	retainMu  sync.Mutex
	retainWAL func(lsn uint64) bool // replication retention gate; see SetWALRetention

	compactMu sync.Mutex // serializes Compact passes (see compact.go)
}

// The files of one database, as suffixes of its path: the data file
// itself (no suffix), the write-ahead log, the double-write buffer, and
// the scratch file an interrupted recovery rebuild leaves behind.
const (
	walSuffix     = ".wal"
	dwSuffix      = ".dw"
	rebuildSuffix = ".rebuild"
)

// RemoveFiles deletes the database at path together with its side
// files; files that do not exist are not an error. The database must
// not be open. A replica wipes its local copy through here before a
// full snapshot resync.
func RemoveFiles(path string) error {
	for _, suffix := range []string{"", walSuffix, dwSuffix, rebuildSuffix} {
		if err := os.Remove(path + suffix); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}

// Open opens (creating if missing) the database at path against the
// registered schema. The schema must be registered identically (same
// classes, same order) on every open of the same file; the catalog
// verifies this. Side files path+".wal" and path+".dw" hold the log
// and the double-write buffer.
func Open(path string, schema *core.Schema, opts *Options) (*DB, error) {
	if schema == nil {
		return nil, fmt.Errorf("ode: nil schema")
	}
	o := opts.withDefaults()
	// The trigger activation and version-graph classes are part of
	// every Ode schema.
	trigger.RegisterActivationClass(schema)
	version.RegisterGraphClass(schema)

	_, statErr := os.Stat(path)
	fresh := os.IsNotExist(statErr)

	var fs *storage.FileStore
	var err error
	if fresh {
		fs, err = storage.CreateFile(path)
	} else {
		fs, err = storage.OpenFile(path)
	}
	if err != nil {
		return nil, err
	}
	dw, err := storage.OpenDoubleWriter(path + dwSuffix)
	if err != nil {
		fs.Close()
		return nil, err
	}
	if !fresh {
		if _, err := dw.Recover(fs); err != nil {
			dw.Close()
			fs.Close()
			return nil, fmt.Errorf("ode: double-write recovery: %w", err)
		}
	}
	log, err := wal.Open(path + walSuffix)
	if err != nil {
		dw.Close()
		fs.Close()
		return nil, err
	}
	log.SetSync(!o.NoSync)

	// In-doubt two-phase-commit state must be captured before recovery:
	// the rebuild below truncates the log, and prepared batches — which
	// exist even under a clean-shutdown mark (Close re-stages them) —
	// would be lost with it.
	preps, decisions, perr := log.ReplayPrepared()
	if perr != nil {
		log.Close()
		dw.Close()
		fs.Close()
		return nil, fmt.Errorf("ode: scan prepared transactions: %w", perr)
	}

	needRebuild := !fresh && !object.WasCleanShutdown(fs) && !log.Empty()
	if needRebuild {
		if o.DisableRecovery {
			log.Close()
			dw.Close()
			fs.Close()
			return nil, ErrNeedsRecovery
		}
		nfs, rerr := rebuild(path, fs, dw, log, schema, o)
		if rerr != nil {
			log.Close()
			dw.Close()
			// rebuild closes fs itself only when it reaches the file
			// swap; on earlier failures the handle is still open, and a
			// redundant Close after the swap is harmless.
			fs.Close()
			return nil, fmt.Errorf("ode: recovery rebuild: %w", rerr)
		}
		fs = nfs
	}

	poolDW := dw
	if o.UnsafeSkipDoubleWrite {
		poolDW = nil
	}
	pool := storage.NewPool(fs, o.PoolPages, poolDW, nil)
	var mgr *object.Manager
	if fresh {
		mgr, err = object.Create(schema, fs, pool)
	} else {
		mgr, err = object.Open(schema, fs, pool)
	}
	if err != nil {
		log.Close()
		dw.Close()
		fs.Close()
		return nil, err
	}
	if o.ObjectCacheSize != object.DefaultObjectCacheSize {
		mgr.SetObjectCacheSize(o.ObjectCacheSize)
	}
	if o.ShardCount > 1 {
		mgr.SetOIDStride(o.ShardSlot, o.ShardCount)
	}
	// Any crash from here on implies recovery at next open.
	if err := mgr.MarkUnclean(); err != nil {
		log.Close()
		dw.Close()
		fs.Close()
		return nil, err
	}
	engine := txn.NewEngine(mgr, log)
	engine.SetGroupCommit(!o.GroupCommit.Disable)
	if o.ShardCount > 1 {
		engine.SetShardSlot(o.ShardSlot)
	}
	engine.SetPrepareTimeout(o.PrepareTimeout)
	svc, err := trigger.NewService(engine, !o.AsyncTriggers)
	if err != nil {
		log.Close()
		dw.Close()
		fs.Close()
		return nil, err
	}
	versions, err := version.NewService(schema)
	if err != nil {
		log.Close()
		dw.Close()
		fs.Close()
		return nil, err
	}
	if !mgr.HasCluster(versions.Class()) {
		if err := mgr.CreateCluster(versions.Class()); err != nil {
			log.Close()
			dw.Close()
			fs.Close()
			return nil, err
		}
	}
	// Wire the metric set through every layer. Each layer defaults to an
	// unregistered zero set, so recovery and catalog work done above is
	// simply not counted.
	reg := obs.NewRegistry()
	met := obs.NewMetrics(reg)
	failpoint.RegisterMetrics(reg)
	pool.SetMetrics(&met.Pool, &met.Storage)
	log.SetMetrics(&met.WAL)
	mgr.SetMetrics(&met.Object)
	engine.SetMetrics(met)
	svc.SetMetrics(&met.Trigger)
	// Reinstate in-doubt two-phase-commit transactions: write locks
	// come back under their original txids, and — when recovery just
	// truncated the log — their prepared batches and the recent
	// decision records are staged into the fresh log so a second crash
	// still finds them.
	if len(preps) > 0 || len(decisions) > 0 {
		if err := engine.RestorePrepared(preps, decisions); err != nil {
			log.Close()
			dw.Close()
			fs.Close()
			return nil, err
		}
		if needRebuild {
			for _, rec := range engine.RestageRecords() {
				if _, err := log.StageMeta(rec); err != nil {
					log.Close()
					dw.Close()
					fs.Close()
					return nil, fmt.Errorf("ode: restage prepared state: %w", err)
				}
			}
			if err := log.SyncAll(); err != nil {
				log.Close()
				dw.Close()
				fs.Close()
				return nil, fmt.Errorf("ode: restage prepared state: %w", err)
			}
		}
	}
	db := &DB{
		path:     path,
		opts:     o,
		fs:       fs,
		dw:       dw,
		pool:     pool,
		log:      log,
		mgr:      mgr,
		engine:   engine,
		triggers: svc,
		versions: versions,
		schema:   schema,
		reg:      reg,
		met:      met,
		cancels:  make(map[uint64]context.CancelFunc),
	}
	if o.MaxConcurrentTx > 0 {
		queue := o.MaxQueuedTx
		switch {
		case queue == 0:
			queue = 2 * o.MaxConcurrentTx
		case queue < 0:
			queue = 0
		}
		db.gov = txn.NewGovernor(o.MaxConcurrentTx, queue, &met.Txn)
	}
	if o.WALHardLimit > 0 {
		engine.Backpressure = db.commitBackpressure
	}
	if o.WALSoftLimit > 0 {
		db.ckptKick = make(chan struct{}, 1)
		db.ckptStop = make(chan struct{})
		db.ckptDone = make(chan struct{})
		engine.AfterAppend = func(walSize int64) {
			if walSize >= o.WALSoftLimit {
				db.kickCheckpointer()
			}
		}
		go db.checkpointLoop()
	}
	// Every database carries a stable replication id (persisted in the
	// WAL's base record); replicas use it to tell "same history, older
	// position" from "different database". Generate one on first open
	// and persist it right away while the log is empty.
	if log.ReplID() == "" {
		log.SetReplID(newReplID())
		if log.Empty() {
			if err := db.Checkpoint(); err != nil {
				db.Close()
				return nil, fmt.Errorf("ode: persist replication id: %w", err)
			}
		}
	}
	return db, nil
}

// newReplID returns a fresh random replication id (16 hex digits).
func newReplID() string {
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		// crypto/rand failure is unrecoverable on any supported platform;
		// fall back to a time-derived id rather than refusing to open.
		binary.LittleEndian.PutUint64(b[:], uint64(time.Now().UnixNano()))
	}
	return hex.EncodeToString(b[:])
}

// Schema returns the database's class catalog.
func (db *DB) Schema() *core.Schema { return db.schema }

// Path returns the data file path.
func (db *DB) Path() string { return db.path }

// Begin starts a transaction with no deadline. When the database is
// overloaded (MaxConcurrentTx) or closing, the returned transaction is
// poisoned: every operation on it, including Commit, returns the typed
// rejection (ErrOverloaded, ErrDBClosed), and Abort is a no-op.
func (db *DB) Begin() *Tx { return db.BeginCtx(context.Background()) }

// BeginCtx starts a transaction governed by ctx: its deadline and
// cancellation are observed while queued at admission, at every lock
// wait and Deref, between forall scan batches, and at commit, aborting
// the transaction with ErrTxTimeout / ErrCanceled. A nil ctx means
// context.Background. Rejections are reported as with Begin.
func (db *DB) BeginCtx(ctx context.Context) *Tx {
	if ctx == nil {
		ctx = context.Background()
	}
	if db.closing.Load() {
		return txn.FailedTx(db.engine, ErrDBClosed)
	}
	if db.gov != nil {
		if err := db.gov.Acquire(ctx); err != nil {
			return txn.FailedTx(db.engine, err)
		}
		if db.closing.Load() {
			db.gov.Release()
			return txn.FailedTx(db.engine, ErrDBClosed)
		}
	}
	// Each transaction gets a cancelable context so Close can abandon
	// stragglers (mid-lock-wait or mid-scan) after its drain deadline.
	cctx, cancel := context.WithCancel(ctx)
	tx := db.engine.BeginCtx(cctx)
	db.activeTx.Add(1)
	id := tx.ID()
	db.cancelMu.Lock()
	db.cancels[id] = cancel
	db.cancelMu.Unlock()
	tx.OnFinish(func() {
		db.cancelMu.Lock()
		delete(db.cancels, id)
		db.cancelMu.Unlock()
		cancel()
		if db.gov != nil {
			db.gov.Release()
		}
		db.activeTx.Add(-1)
	})
	return tx
}

// Retry policy for RunTx: capped exponential backoff with jitter. The
// envelope doubles from retryBase per attempt up to retryCap; the
// sleep is envelope/2 plus a random half, so repeat deadlock victims
// under sustained contention spread out instead of re-colliding in
// lockstep (the jitter) while still backing off monotonically (the
// envelope).
const (
	maxTxRetries = 200
	retryBase    = 100 * time.Microsecond
	retryCap     = 10 * time.Millisecond
)

// retryRng is seeded (not time-seeded) so backoff schedules are
// reproducible run to run; the mutex makes RunTx safe to race.
var retryRng = struct {
	sync.Mutex
	*rand.Rand
}{Rand: rand.New(rand.NewSource(0x0de))}

// retryEnvelope returns the deterministic upper bound of the sleep
// before retry attempt (0-based): min(retryBase << attempt, retryCap).
func retryEnvelope(attempt int) time.Duration {
	d := retryBase << uint(attempt)
	if d <= 0 || d > retryCap { // <= 0: shifted past 63 bits
		d = retryCap
	}
	return d
}

// retryBackoff returns the jittered sleep for a retry attempt, in
// [envelope/2, envelope].
func retryBackoff(attempt int) time.Duration {
	d := retryEnvelope(attempt)
	retryRng.Lock()
	j := time.Duration(retryRng.Int63n(int64(d)/2 + 1))
	retryRng.Unlock()
	return d/2 + j
}

// RetryBackoff returns the jittered sleep RunTx would take before
// retry attempt (0-based). Exported so remote clients apply the same
// backoff policy as the embedded retry loop; MaxTxRetries is the
// matching budget.
func RetryBackoff(attempt int) time.Duration { return retryBackoff(attempt) }

// MaxTxRetries is RunTx's retry budget, exported for remote clients.
const MaxTxRetries = maxTxRetries

// RunTx runs fn inside a transaction, committing on nil return and
// aborting otherwise. Transient conflicts (IsRetryable: deadlock
// victims, deadline expiries) are retried under capped exponential
// backoff with jitter, up to a retry budget — matching the
// abort-and-rerun discipline the paper's single-program transactions
// imply. Deterministic failures (constraint violations) and governance
// rejections (ErrOverloaded, ErrCanceled, ErrDBClosed) return
// immediately: retrying them cannot succeed, or would rebuild the
// overload they report.
func (db *DB) RunTx(fn func(tx *Tx) error) error {
	return db.RunTxCtx(context.Background(), fn)
}

// RunTxCtx is RunTx under a context: every attempt runs with ctx's
// deadline, and the retry loop stops as soon as ctx itself is dead,
// reporting ErrTxTimeout/ErrCanceled rather than whatever retryable
// conflict lost the final attempt. (An ErrTxTimeout against a live
// ctx — e.g. raced against Close — is not respun either; the caller
// decides whether to rerun.)
func (db *DB) RunTxCtx(ctx context.Context, fn func(tx *Tx) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	for attempt := 0; ; attempt++ {
		tx := db.BeginCtx(ctx)
		err := fn(tx)
		if err == nil {
			err = tx.Commit()
		} else {
			tx.Abort()
		}
		if err == nil {
			return nil
		}
		if db.closing.Load() && !errors.Is(err, ErrDBClosed) {
			// A transaction canceled out from under us by Close reports
			// the close, not the incidental cancellation.
			if errors.Is(err, txn.ErrCanceled) || errors.Is(err, txn.ErrTxTimeout) {
				return fmt.Errorf("%w (transaction canceled by Close)", ErrDBClosed)
			}
		}
		if !txn.IsRetryable(err) || attempt >= maxTxRetries || ctx.Err() != nil {
			if ctxErr := ctx.Err(); ctxErr != nil && txn.IsRetryable(err) {
				// The loop stopped because the caller's ctx died, not
				// because the error is permanent; report the deadline
				// (or cancellation), not the incidental conflict that
				// lost the final attempt.
				want := txn.ErrTxTimeout
				if errors.Is(ctxErr, context.Canceled) {
					want = txn.ErrCanceled
				}
				if !errors.Is(err, want) {
					err = fmt.Errorf("%w (last attempt: %v)", want, err)
				}
			}
			return err
		}
		time.Sleep(retryBackoff(attempt))
	}
}

// View runs fn in a transaction that is always aborted (read-only use).
func (db *DB) View(fn func(tx *Tx) error) error {
	return db.ViewCtx(context.Background(), fn)
}

// ViewCtx is View under a context (deadline-bounded reads).
func (db *DB) ViewCtx(ctx context.Context, fn func(tx *Tx) error) error {
	tx := db.BeginCtx(ctx)
	defer tx.Abort()
	return fn(tx)
}

// Triggers exposes the trigger service (activation, deactivation,
// expiry of timed triggers, draining of asynchronous actions).
func (db *DB) Triggers() *trigger.Service { return db.triggers }

// Versions exposes the tree-versioning service (branching version
// graphs; the paper's reference [4] extension). Linear versioning
// (tx.NewVersion) needs no service.
func (db *DB) Versions() *version.Service { return db.versions }

// Manager exposes the object manager (advanced use: index DDL is
// wrapped below, scans are on the query package).
func (db *DB) Manager() *object.Manager { return db.mgr }

// CreateCluster creates the extent for class c. DDL is durable
// immediately (the catalog is rewritten and a checkpoint taken).
func (db *DB) CreateCluster(c *Class) error {
	if err := db.mgr.CreateCluster(c); err != nil {
		return err
	}
	return db.Checkpoint()
}

// DestroyCluster removes an empty extent.
func (db *DB) DestroyCluster(c *Class) error {
	if err := db.mgr.DestroyCluster(c); err != nil {
		return err
	}
	return db.Checkpoint()
}

// HasCluster reports whether class c's extent exists.
func (db *DB) HasCluster(c *Class) bool { return db.mgr.HasCluster(c) }

// CreateIndex builds (and backfills) a secondary index on class.field,
// accelerating suchthat and join clauses on that field.
func (db *DB) CreateIndex(c *Class, field string) error {
	if err := db.mgr.CreateIndex(c, field); err != nil {
		return err
	}
	return db.Checkpoint()
}

// DropIndex removes a secondary index.
func (db *DB) DropIndex(c *Class, field string) error {
	if err := db.mgr.DropIndex(c, field); err != nil {
		return err
	}
	return db.Checkpoint()
}

// Checkpoint makes all committed work durable in the data file and
// truncates the WAL. It runs under the engine's commit lock: a commit
// cannot append to the log between the page flush and the truncation
// (such an append would be silently dropped).
func (db *DB) Checkpoint() error {
	return db.engine.WithCommitLock(func() error {
		if err := db.mgr.Checkpoint(false); err != nil {
			return err
		}
		// The replication layer may pin the log: batches a connected
		// subscriber has not yet acknowledged stay replayable. The pages
		// are flushed either way; only the truncation is skipped.
		db.retainMu.Lock()
		gate := db.retainWAL
		db.retainMu.Unlock()
		if gate != nil && gate(db.log.LSN()) {
			return nil
		}
		// Prepared (in-doubt) two-phase-commit transactions pin the log
		// the same way: their batches live only there until a decision
		// arrives, so truncation waits for resolution.
		if db.engine.PreparedCount() > 0 {
			return nil
		}
		if err := db.log.Truncate(); err != nil {
			return err
		}
		// Re-stage recent decision records across the truncation so a
		// crash after this checkpoint still finds the answers in-doubt
		// participants come asking about. Not fsynced: a lost tombstone
		// degrades to presumed abort (docs/SHARDING.md).
		for _, rec := range db.engine.RestageRecords() {
			if _, err := db.log.StageMeta(rec); err != nil {
				return err
			}
		}
		return nil
	})
}

// kickCheckpointer nudges the background checkpointer without
// blocking; a kick while one is pending coalesces.
func (db *DB) kickCheckpointer() {
	if db.ckptKick == nil {
		return
	}
	select {
	case db.ckptKick <- struct{}{}:
	default:
	}
}

// checkpointLoop is the background checkpointer: each kick (a commit
// growing the WAL past the soft limit, or a backpressure stall) runs
// one checkpoint. Errors are swallowed — the next kick retries, and a
// persistently failing store surfaces the error on the next explicit
// Checkpoint, Commit, or Close.
func (db *DB) checkpointLoop() {
	defer close(db.ckptDone)
	for {
		select {
		case <-db.ckptStop:
			return
		case <-db.ckptKick:
		}
		if db.log.Size() < db.opts.WALSoftLimit {
			continue // a competing checkpoint already drained the log
		}
		if err := db.Checkpoint(); err == nil {
			db.met.WAL.AutoCheckpoints.Inc()
		}
	}
}

// commitBackpressure stalls a commit while the WAL is at or past the
// hard limit, kicking the checkpointer and polling until the log
// drains, the transaction's context dies, or the database closes. It
// runs before the commit lock is taken, so the checkpointer (which
// needs that lock) can always make progress past the stalled
// committers.
func (db *DB) commitBackpressure(ctx context.Context) error {
	hard := db.opts.WALHardLimit
	if db.log.Size() < hard {
		return nil
	}
	db.met.WAL.BackpressureStalls.Inc()
	for {
		db.kickCheckpointer()
		if db.ckptKick == nil {
			// No checkpointer to drain the log (soft limit disabled
			// explicitly): checkpoint inline rather than deadlock.
			if err := db.Checkpoint(); err != nil {
				return fmt.Errorf("ode: wal hard limit: %w", err)
			}
		}
		if db.log.Size() < hard {
			return nil
		}
		if db.closing.Load() {
			return fmt.Errorf("%w (commit stalled at wal hard limit)", ErrDBClosed)
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("%w (commit stalled at wal hard limit)", txn.FromContextErr(err))
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// ExpireTimedTriggers fires timeout actions for timed activations whose
// deadline has passed. Call it periodically (Ode's clock process).
func (db *DB) ExpireTimedTriggers() (int, error) {
	return db.triggers.ExpireBefore(timeNow())
}

// Stats is a full point-in-time snapshot of the engine's metrics: the
// embedded obs.Snapshot covers every layer (buffer pool, storage, WAL,
// transactions, object manager, query planner, triggers), plus the two
// file-level gauges Pages and WALBytes. docs/OBSERVABILITY.md documents
// each counter.
type Stats struct {
	Pages    uint32 // data file size in 4 KiB pages
	WALBytes int64  // current WAL size in bytes
	obs.Snapshot
}

// Stats captures the current value of every engine metric. Reads are
// atomic per counter (the snapshot as a whole is not a consistent cut,
// which is fine for monitoring).
func (db *DB) Stats() Stats {
	return Stats{
		Pages:    db.fs.NumPages(),
		WALBytes: db.log.Size(),
		Snapshot: db.met.Stats(),
	}
}

// Metrics exposes the live engine metric set (advanced use; most
// callers want the Stats snapshot).
func (db *DB) Metrics() *obs.Metrics { return db.met }

// MetricsRegistry exposes the metric registry: the canonical name of
// every engine metric and a generic snapshot, for exposition bridges
// (expvar, Prometheus-style scrapers) and documentation checks.
func (db *DB) MetricsRegistry() *obs.Registry { return db.reg }

// CrashForTesting closes the database's file handles without a
// checkpoint, WAL truncation, or clean-shutdown mark — exactly the
// state a process crash leaves behind. The next Open runs recovery.
// For tests and benchmarks only.
func (db *DB) CrashForTesting() {
	db.closing.Store(true)
	db.engine.StopPrepareTimers()
	db.stopCheckpointer()
	if db.closed {
		return
	}
	db.closed = true
	db.triggers.Wait()
	db.log.Close()
	db.dw.Close()
	db.fs.Close()
}

// stopCheckpointer shuts the background checkpointer down and waits
// for any in-flight checkpoint to finish (it must not touch files that
// are about to close). Safe to call twice and without a checkpointer.
func (db *DB) stopCheckpointer() {
	if db.ckptStop == nil {
		return
	}
	select {
	case <-db.ckptStop: // already stopped
	default:
		close(db.ckptStop)
	}
	<-db.ckptDone
}

// Close shuts the database down gracefully: new transactions are
// rejected with ErrDBClosed, active ones get CloseTimeout to finish
// and are then canceled (aborting with ErrCanceled at their next lock
// wait or scan boundary; RunTx reports that as ErrDBClosed), trigger
// actions drain, the checkpointer stops, a final checkpoint marks a
// clean shutdown and truncates the WAL, and the files close. A
// concurrent or repeated Close is a no-op.
func (db *DB) Close() error {
	if !db.closing.CompareAndSwap(false, true) {
		return nil
	}
	deadline := time.Now().Add(db.opts.CloseTimeout)
	for db.activeTx.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(200 * time.Microsecond)
	}
	if db.activeTx.Load() > 0 {
		// The drain deadline expired: cancel the stragglers and give
		// them one more window to observe it and abort.
		db.cancelMu.Lock()
		for _, cancel := range db.cancels {
			cancel()
		}
		db.cancelMu.Unlock()
		grace := time.Now().Add(db.opts.CloseTimeout)
		for db.activeTx.Load() > 0 && time.Now().Before(grace) {
			time.Sleep(200 * time.Microsecond)
		}
	}
	db.triggers.Wait()
	// From here commits with a write set are rejected under the commit
	// lock: nothing can reach the WAL once the final checkpoint runs.
	db.engine.MarkClosed()
	db.engine.StopPrepareTimers()
	db.stopCheckpointer()
	if db.closed {
		return nil
	}
	db.closed = true
	err := db.engine.WithCommitLock(func() error {
		if err := db.mgr.Checkpoint(true); err != nil {
			return err
		}
		if err := db.log.Truncate(); err != nil {
			return err
		}
		// In-doubt two-phase-commit batches and recent decision records
		// survive the shutdown truncation: the next Open reinstates them
		// (a clean-shutdown mark does not resolve a distributed vote).
		for _, rec := range db.engine.RestageRecords() {
			if _, err := db.log.StageMeta(rec); err != nil {
				return err
			}
		}
		return db.log.SyncAll()
	})
	if err != nil {
		return err
	}
	var first error
	for _, fn := range []func() error{db.log.Close, db.dw.Close, db.fs.Close} {
		if err := fn(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// rebuild is repair-on-open: reconstruct a consistent data file from
// the surviving heap records plus a replay of the committed WAL tail,
// then atomically replace the original file.
func rebuild(path string, fs *storage.FileStore, dw *storage.DoubleWriter, log *wal.Log, schema *core.Schema, o Options) (*storage.FileStore, error) {
	scanPool := storage.NewPool(fs, o.PoolPages, nil, nil)
	cat, err := object.ReadCatalogInfo(fs, scanPool)
	if err != nil {
		return nil, err
	}

	type key struct {
		oid core.OID
		ver uint32
		cur bool
	}
	type entry struct {
		image []byte
		ver   uint32 // current-version number for cur entries
	}
	state := make(map[key]entry)
	var maxOID core.OID

	// Pass 1: surviving heap records. Duplicates (from relocations whose
	// tombstone did not flush) are resolved by the WAL replay below —
	// every post-checkpoint change is in the log.
	err = object.ScanAllRecords(fs, scanPool, func(kind byte, oid core.OID, ver uint32, image []byte) error {
		switch kind {
		case object.RecCurrent:
			state[key{oid: oid, cur: true}] = entry{image: append([]byte(nil), image...), ver: ver}
		case object.RecVersion:
			state[key{oid: oid, ver: ver}] = entry{image: append([]byte(nil), image...)}
		}
		if oid > maxOID {
			maxOID = oid
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Pass 2: committed WAL operations override, in commit order.
	err = log.Replay(func(op *wal.Op) error {
		oid := core.OID(op.OID)
		if oid > maxOID {
			maxOID = oid
		}
		switch op.Type {
		case wal.OpPut:
			state[key{oid: oid, cur: true}] = entry{image: op.Image, ver: op.Version}
		case wal.OpPutVersion:
			state[key{oid: oid, ver: op.Version}] = entry{image: op.Image}
		case wal.OpDelete:
			delete(state, key{oid: oid, cur: true})
			for k := range state {
				if k.oid == oid {
					delete(state, k)
				}
			}
		case wal.OpDeleteVersion:
			delete(state, key{oid: oid, ver: op.Version})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Pass 3: build the fresh file.
	tmpPath := path + rebuildSuffix
	os.Remove(tmpPath)
	nfs, err := storage.CreateFile(tmpPath)
	if err != nil {
		return nil, err
	}
	npool := storage.NewPool(nfs, o.PoolPages, nil, nil)
	nmgr, err := object.Create(schema, nfs, npool)
	if err != nil {
		nfs.Close()
		return nil, err
	}
	// Recreate DDL state.
	for _, cid := range cat.ClusterIDs {
		c, ok := schema.ClassByID(core.ClassID(cid))
		if !ok {
			nfs.Close()
			return nil, fmt.Errorf("ode: catalog cluster for unknown class id %d", cid)
		}
		if err := nmgr.CreateCluster(c); err != nil {
			nfs.Close()
			return nil, err
		}
	}
	// Objects: currents first (they create directory and cluster
	// entries), then frozen versions.
	for k, e := range state {
		if !k.cur {
			continue
		}
		op := wal.Op{Type: wal.OpPut, OID: uint64(k.oid), Version: e.ver, Image: e.image}
		if cid, err := classIDOfImage(e.image); err == nil {
			op.ClassID = uint32(cid)
		}
		if err := nmgr.Apply(&op); err != nil {
			nfs.Close()
			return nil, err
		}
	}
	for k, e := range state {
		if k.cur {
			continue
		}
		// Frozen versions of objects that no longer exist are dropped
		// (their object was deleted).
		if _, live := state[key{oid: k.oid, cur: true}]; !live {
			continue
		}
		op := wal.Op{Type: wal.OpPutVersion, OID: uint64(k.oid), Version: k.ver, Image: e.image}
		if err := nmgr.Apply(&op); err != nil {
			nfs.Close()
			return nil, err
		}
	}
	nmgr.NoteOID(maxOID)
	// The allocator must never regress below the last checkpoint's
	// persisted value: oids whose objects were deleted after that
	// checkpoint leave no heap record or WAL op to scan, and handing
	// one out again would give a new object a dead object's identity.
	if stored := object.BootNextOID(fs); stored > 0 {
		nmgr.NoteOID(core.OID(stored - 1))
	}
	// The fencing epoch survives a rebuild for the same reason the
	// allocator does: regressing it would let this node rejoin a
	// replication group at an identity (epoch) it was deposed from.
	nmgr.SetEpoch(object.BootEpoch(fs))
	// Indexes after data (backfill covers everything).
	for _, ix := range cat.Indexes {
		c, field, ok := splitIndexName(schema, ix)
		if !ok {
			nfs.Close()
			return nil, fmt.Errorf("ode: catalog index %q does not match schema", ix)
		}
		if err := nmgr.CreateIndex(c, field); err != nil {
			nfs.Close()
			return nil, err
		}
	}
	if err := nmgr.Checkpoint(false); err != nil {
		nfs.Close()
		return nil, err
	}
	if err := nfs.Close(); err != nil {
		return nil, err
	}
	// Swap files, then drop the (fully applied) log.
	if err := fs.Close(); err != nil {
		return nil, err
	}
	if err := os.Rename(tmpPath, path); err != nil {
		return nil, err
	}
	if err := log.Truncate(); err != nil {
		return nil, err
	}
	return storage.OpenFile(path)
}

// classIDOfImage peeks the class id of a serialized object.
func classIDOfImage(image []byte) (core.ClassID, error) {
	cid, n := uvarint(image)
	if n <= 0 {
		return 0, fmt.Errorf("ode: bad image")
	}
	return core.ClassID(cid), nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	var s uint
	for i, c := range b {
		if c < 0x80 {
			return x | uint64(c)<<s, i + 1
		}
		x |= uint64(c&0x7f) << s
		s += 7
		if s > 63 {
			return 0, -1
		}
	}
	return 0, 0
}

func splitIndexName(schema *core.Schema, s string) (*core.Class, string, bool) {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '.' {
			c, ok := schema.ClassNamed(s[:i])
			if !ok {
				return nil, "", false
			}
			return c, s[i+1:], true
		}
	}
	return nil, "", false
}

// ensure btree error type is linked for callers matching ErrNotFound
// through the facade.
var _ = btree.ErrNotFound
