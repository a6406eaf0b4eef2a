package txn

import (
	"context"
	"errors"
	"fmt"
	"time"

	"ode/internal/core"
	"ode/internal/failpoint"
	"ode/internal/object"
	"ode/internal/wal"
)

// Two-phase commit: a transaction that spans shards is prepared on
// every participant (durable vote, locks retained, detached from its
// session), then committed or aborted by a decision the coordinator
// shard makes durable first. The protocol is presumed abort: a node
// with neither prepared state nor a recorded commit decision for a gid
// answers "unknown", which resolvers treat as abort. See
// docs/SHARDING.md for the full failure matrix.

// Failpoints in the two-phase-commit pipeline.
var (
	// fpPrepareWAL fires in Prepare before the prepared batch reaches
	// the WAL: the vote is "no", the transaction aborts cleanly.
	fpPrepareWAL = failpoint.New("txn.prepare_wal")
	// fpDecideWAL fires in CommitPrepared before the decide record
	// reaches the WAL: the decision is not durable, the transaction
	// stays prepared (the entry is reinstated for a retry).
	fpDecideWAL = failpoint.New("txn.decide_wal")
)

// DefaultPrepareTimeout is the orphan timeout applied when the DB layer
// does not configure one: a prepared transaction whose coordinator is
// this node and that has heard no decision for this long is presumed
// abandoned (its router died before deciding) and aborted.
const DefaultPrepareTimeout = 60 * time.Second

// maxDecisionRetention is the count floor on decision records re-staged
// into the WAL across a truncation: the most recent N survive no matter
// how old they are, so a coordinator crash shortly after a checkpoint
// still finds the commit decisions that in-doubt participants may come
// asking about.
const maxDecisionRetention = 256

// decisionRetentionAge is the time floor on the same window: every
// decision younger than this is re-staged regardless of how many newer
// decisions exist, so a hot coordinator cannot shrink an in-doubt
// participant's resolution window to an arbitrarily short interval.
// Only decisions that are both older than this and past the count floor
// fall back to presumed abort (the window is documented in
// docs/SHARDING.md).
const decisionRetentionAge = 10 * time.Minute

// maxDecisionsInMemory bounds the in-process decision map; beyond it
// the oldest decisions are evicted and answer as "unknown".
const maxDecisionsInMemory = 1 << 16

// preparedTx is one in-doubt two-phase-commit transaction parked in the
// engine: its vote is durable in the WAL, its locks are still held, and
// it survives until a decision (or, on the coordinator only, the orphan
// timeout) resolves it. Its held list belongs to whoever claims the
// entry.
type preparedTx struct {
	gid       string
	held      heldList // the transaction's id and locks, taken over from its Tx
	ops       []wal.Op
	timer     *time.Timer
	since     time.Time
	recovered bool // reinstated by crash recovery, not a live session
}

func (p *preparedTx) stopTimer() {
	if p.timer != nil {
		p.timer.Stop()
		p.timer = nil
	}
}

// decision is the recorded outcome for a resolved gid.
type decision struct {
	txid   uint64
	commit bool
	lsn    uint64    // commit LSN on this node; 0 for aborts and read-only commits
	at     time.Time // when the decision was recorded (or restored)
	// err, when set, wraps ErrUnknownOutcome: the commit decision was
	// staged but its apply or fsync failed, so only reopening the
	// database tells whether it holds. Every query about the gid
	// answers err until then.
	err error
}

// Transaction status values reported by TxStatus.
const (
	StatusUnknown   = "unknown" // no prepared state, no recorded decision (presumed abort)
	StatusPrepared  = "prepared"
	StatusCommitted = "committed"
	StatusAborted   = "aborted"
)

// PreparedInfo describes one in-doubt transaction for status surfaces.
type PreparedInfo struct {
	GID       string
	TxID      uint64
	Ops       int
	Age       time.Duration
	Recovered bool
}

// SetShardSlot records this node's shard index so the engine can tell
// whether it is the coordinator for a router-minted gid. Unset (-1)
// means unsharded.
func (e *Engine) SetShardSlot(slot int) { e.shardSlot = slot }

// SetPrepareTimeout overrides the orphan timeout (0 keeps the default).
func (e *Engine) SetPrepareTimeout(d time.Duration) { e.prepareTimeout = d }

// GIDCoordinator parses the coordinator shard index out of a global
// transaction id of the canonical "s<slot>-<unique>" form minted by the
// client router. Non-canonical gids report ok=false.
func GIDCoordinator(gid string) (slot int, ok bool) {
	if len(gid) < 3 || gid[0] != 's' {
		return 0, false
	}
	i, n := 1, 0
	for ; i < len(gid); i++ {
		c := gid[i]
		if c == '-' {
			break
		}
		if c < '0' || c > '9' || n > 1<<20 {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	if i == 1 || i >= len(gid)-1 {
		return 0, false
	}
	return n, true
}

// mayPresumeAbort reports whether this node may unilaterally abort an
// undecided prepared transaction at the orphan timeout. Only the
// transaction's coordinator can: its durable decision record is the
// global commit point, so "no decision recorded here" proves no
// participant anywhere committed. A participant that times out must
// keep its locks and wait for resolution (docs/SHARDING.md runbook) —
// aborting on its own could contradict a commit decision it simply has
// not heard yet. Gids that are not router-minted belong to single-node
// use, where this node is trivially the coordinator.
func (e *Engine) mayPresumeAbort(gid string) bool {
	slot, ok := GIDCoordinator(gid)
	if !ok {
		return true
	}
	return e.shardSlot >= 0 && slot == e.shardSlot
}

func (e *Engine) armPrepareTimer(p *preparedTx) {
	if !e.mayPresumeAbort(p.gid) {
		return
	}
	d := e.prepareTimeout
	if d <= 0 {
		d = DefaultPrepareTimeout
	}
	gid := p.gid
	p.timer = time.AfterFunc(d, func() { e.abortPrepared(gid, true) })
}

// finishPrepared parks the transaction in the prepared state: its held
// list moves to entry, the admission slot is returned and session
// bookkeeping runs (onFinish), but — unlike finish — every lock stays
// held until the decision arrives.
func (tx *Tx) finishPrepared(entry *preparedTx) {
	tx.state = statePrepared
	tx.held.moveTo(&entry.held)
	for _, fn := range tx.onFinish {
		fn()
	}
	tx.onFinish = nil
}

// Prepare runs the first phase of two-phase commit on tx: constraints
// and the PreCommit hook run exactly as in Commit, the lowered batch is
// staged to the WAL as a prepared record (no LSN consumed) and fsynced,
// and the transaction detaches from its session into the engine's
// prepared table with every lock still held. A read-only participant
// logs nothing but still parks holding its locks until the decision.
// After Prepare returns nil the node has voted yes: only
// CommitPrepared/AbortPrepared (or, on the coordinator, the orphan
// timeout) finish the transaction.
func (e *Engine) Prepare(tx *Tx, gid string) error {
	if err := tx.ensureActive(); err != nil {
		return err
	}
	if gid == "" {
		tx.Abort()
		return fmt.Errorf("txn: prepare: empty gid")
	}
	// Reserve the gid before any staging: two concurrent Prepare calls
	// racing the same gid must not both pass the duplicate check, or the
	// second's table insertion would silently orphan the first's locks
	// and WAL record. The reservation is released on every exit — by
	// then the winner's entry is in e.prepared (inserted under the same
	// mutex), so late duplicates still fail.
	e.prepMu.Lock()
	_, dup := e.prepared[gid]
	_, dec := e.decided[gid]
	inUse := dup || dec || e.prepPending[gid]
	if !inUse {
		e.prepPending[gid] = true
	}
	e.prepMu.Unlock()
	if inUse {
		tx.Abort()
		return fmt.Errorf("txn: prepare: gid %q already in use", gid)
	}
	defer func() {
		e.prepMu.Lock()
		delete(e.prepPending, gid)
		e.prepMu.Unlock()
	}()
	met := &e.met.Txn
	defer met.CommitNS.Since(time.Now())
	ops, err := tx.precommit()
	if err != nil {
		return err
	}
	var vote []byte
	if len(ops) > 0 {
		vote = wal.EncodePrepared(tx.ID(), gid, ops)
	}
	e.commitMu.Lock()
	target, _, err := e.stage(write{meta: vote, stageFault: fpPrepareWAL})
	e.commitMu.Unlock()
	if err != nil {
		tx.Abort()
		return fmt.Errorf("txn: prepare of tx %d: %w", tx.ID(), err)
	}
	// The vote must be durable before it is given: a yes answered from
	// volatile state could be forgotten by a crash while the coordinator
	// goes on to commit everyone else.
	if err := e.syncTo(target); err != nil {
		tx.finish(stateAborted)
		return fmt.Errorf("txn: prepare of tx %d: %w", tx.ID(), err)
	}
	entry := &preparedTx{gid: gid, ops: ops, since: time.Now()}
	tx.finishPrepared(entry)
	e.prepMu.Lock()
	e.prepared[gid] = entry
	e.prepMu.Unlock()
	met.PreparedTotal.Inc()
	met.PreparedInDoubt.Add(1)
	e.armPrepareTimer(entry)
	return nil
}

// claim atomically removes gid's prepared entry, taking ownership of
// its resolution; nil means no such entry.
func (e *Engine) claim(gid string) *preparedTx {
	e.prepMu.Lock()
	entry := e.prepared[gid]
	if entry != nil {
		delete(e.prepared, gid)
	}
	e.prepMu.Unlock()
	if entry != nil {
		entry.stopTimer()
	}
	return entry
}

// reinstate puts a claimed entry back after a transient decision
// failure so the coordinator (or resolver) can retry.
func (e *Engine) reinstate(entry *preparedTx) {
	e.prepMu.Lock()
	e.prepared[entry.gid] = entry
	e.prepMu.Unlock()
	e.armPrepareTimer(entry)
}

// CommitPrepared runs the second phase for gid with a commit decision:
// a decide record and the ordinary committed re-encoding of the batch
// are staged together (one LSN, one fsync), the ops are applied, the
// batch is announced to replication, and the locks release. The decide
// record — not the batch — is the global commit point, so it is made
// durable even when the prepared write set is empty: a read-only
// coordinator is routine (the router picks the lowest touched shard,
// written or not), and its acked decision must survive a crash or an
// in-doubt participant would later be presumed aborted against it.
// Delivering the same commit twice is idempotent (the recorded
// decision answers with the original LSN); an unknown gid fails with
// ErrNoPrepared — under presumed abort that means the transaction
// never prepared here or was already aborted. A failure before the
// decide record is staged leaves the transaction prepared for a retry;
// one after it (the apply or the fsync) leaves the decision's fate to
// the next reopen, and until then every question about gid is
// answered with ErrUnknownOutcome.
func (e *Engine) CommitPrepared(gid string) (uint64, error) {
	entry := e.claim(gid)
	if entry == nil {
		e.prepMu.Lock()
		d, dec := e.decided[gid]
		e.prepMu.Unlock()
		switch {
		case dec && d.err != nil:
			return 0, d.err
		case dec && d.commit:
			return d.lsn, nil
		case dec:
			return 0, fmt.Errorf("%w: gid %q was aborted", ErrNoPrepared, gid)
		}
		return 0, fmt.Errorf("%w: gid %q", ErrNoPrepared, gid)
	}
	met := &e.met.Txn
	var raw []byte
	if len(entry.ops) > 0 {
		raw = wal.EncodeBatch(entry.held.txid, entry.ops)
	}
	e.commitMu.Lock()
	target, lsn, err := e.stage(write{
		meta:       wal.EncodeDecide(entry.held.txid, gid, true),
		batch:      raw,
		ops:        entry.ops,
		stageFault: fpDecideWAL,
	})
	e.commitMu.Unlock()
	if err == nil {
		err = e.syncTo(target)
	}
	if err != nil {
		err = fmt.Errorf("txn: commit-prepared %q: %w", gid, err)
		if !errors.Is(err, ErrUnknownOutcome) {
			e.reinstate(entry)
			return 0, err
		}
		// The decide record is in the log file: the next fsync may make
		// it durable, and recovery would then commit. Presuming abort
		// here could contradict it.
		e.locks.ReleaseAll(&entry.held)
		e.recordDecision(gid, decision{txid: entry.held.txid, commit: true, err: err})
		met.PreparedInDoubt.Add(-1)
		return 0, err
	}
	if raw != nil {
		e.announce(lsn, raw)
	}
	e.locks.ReleaseAll(&entry.held)
	e.recordDecision(gid, decision{txid: entry.held.txid, commit: true, lsn: lsn})
	met.Commits.Inc()
	met.PreparedCommits.Inc()
	met.PreparedInDoubt.Add(-1)
	return lsn, nil
}

// AbortPrepared runs the second phase for gid with an abort decision.
// Unknown gids succeed: under presumed abort, "never prepared here" and
// "already aborted" are both the caller's desired state. A gid whose
// commit decision was staged but not settled fails with
// ErrUnknownOutcome.
func (e *Engine) AbortPrepared(gid string) error { return e.abortPrepared(gid, false) }

func (e *Engine) abortPrepared(gid string, timedOut bool) error {
	entry := e.claim(gid)
	if entry == nil {
		e.prepMu.Lock()
		d := e.decided[gid]
		e.prepMu.Unlock()
		return d.err
	}
	met := &e.met.Txn
	var tombstone []byte
	if len(entry.ops) > 0 {
		tombstone = wal.EncodeDecide(entry.held.txid, gid, false)
	}
	// A durable tombstone, best effort and not fsynced: without it a
	// crash before the next truncation resurrects the prepared batch as
	// in-doubt and resolution has to abort it a second time; with it
	// lost, the same resolution still converges. A closed engine writes
	// none.
	e.commitMu.Lock()
	_, _, _ = e.stage(write{meta: tombstone})
	e.commitMu.Unlock()
	e.locks.ReleaseAll(&entry.held)
	e.recordDecision(gid, decision{txid: entry.held.txid, commit: false})
	if len(entry.ops) > 0 {
		met.Aborts.Inc()
	} else {
		met.ReadOnlyEnds.Inc() // a read-only participant: nothing to discard
	}
	met.PreparedAborts.Inc()
	if timedOut {
		met.PreparedTimeouts.Inc()
	}
	met.PreparedInDoubt.Add(-1)
	return nil
}

func (e *Engine) recordDecision(gid string, d decision) {
	d.at = time.Now()
	e.prepMu.Lock()
	if _, ok := e.decided[gid]; !ok {
		e.decOrder = append(e.decOrder, gid)
		if len(e.decOrder) > maxDecisionsInMemory {
			evict := e.decOrder[0]
			e.decOrder = e.decOrder[1:]
			delete(e.decided, evict)
		}
	}
	e.decided[gid] = d
	e.prepMu.Unlock()
}

// TxStatus reports gid's fate on this node: prepared (in-doubt),
// committed, aborted, or unknown. Resolvers treat the coordinator's
// "unknown" as abort (presumed abort: the decision record is written
// before any participant may commit). A commit decision staged but not
// settled has no status until the database is reopened: the error
// wraps ErrUnknownOutcome.
func (e *Engine) TxStatus(gid string) (string, error) {
	e.prepMu.Lock()
	defer e.prepMu.Unlock()
	if _, ok := e.prepared[gid]; ok {
		return StatusPrepared, nil
	}
	if d, ok := e.decided[gid]; ok {
		switch {
		case d.err != nil:
			return "", d.err
		case d.commit:
			return StatusCommitted, nil
		}
		return StatusAborted, nil
	}
	return StatusUnknown, nil
}

// PreparedCount returns the number of in-doubt transactions.
func (e *Engine) PreparedCount() int {
	e.prepMu.Lock()
	defer e.prepMu.Unlock()
	return len(e.prepared)
}

// PreparedList describes every in-doubt transaction, oldest first.
func (e *Engine) PreparedList() []PreparedInfo {
	e.prepMu.Lock()
	defer e.prepMu.Unlock()
	out := make([]PreparedInfo, 0, len(e.prepared))
	for _, p := range e.prepared {
		out = append(out, PreparedInfo{
			GID:       p.gid,
			TxID:      p.held.txid,
			Ops:       len(p.ops),
			Age:       time.Since(p.since),
			Recovered: p.recovered,
		})
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Age > out[j-1].Age; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// RestageRecords returns the WAL metadata records that must survive a
// log truncation: every undecided prepared batch, plus decide records
// for recent decisions — every decision younger than
// decisionRetentionAge and, as a floor, the most recent
// maxDecisionRetention regardless of age — so a crash after a
// checkpoint still finds the answers in-doubt participants come asking
// about. The DB layer stages them right after truncating.
func (e *Engine) RestageRecords() [][]byte {
	e.prepMu.Lock()
	defer e.prepMu.Unlock()
	var out [][]byte
	for gid, p := range e.prepared {
		if len(p.ops) > 0 {
			out = append(out, wal.EncodePrepared(p.held.txid, gid, p.ops))
		}
	}
	keep := len(e.decOrder) - maxDecisionRetention
	if keep < 0 {
		keep = 0
	}
	cutoff := time.Now().Add(-decisionRetentionAge)
	for idx, gid := range e.decOrder {
		d, ok := e.decided[gid]
		if !ok {
			continue
		}
		if idx < keep && d.at.Before(cutoff) {
			continue
		}
		out = append(out, wal.EncodeDecide(d.txid, gid, d.commit))
	}
	return out
}

// NoteTxID raises the transaction-id allocator past id so ids of
// recovered prepared transactions cannot be reissued to new sessions.
func (e *Engine) NoteTxID(id uint64) {
	for {
		cur := e.nextID.Load()
		if cur >= id || e.nextID.CompareAndSwap(cur, id) {
			return
		}
	}
}

// RestorePrepared reinstates in-doubt transactions found in the WAL by
// crash recovery: each gets its write locks back (IX on the cluster of
// every object its batch writes, as the live transaction held, and X on
// every OID its batch touches — read locks do not survive a crash), its
// txid fenced off the allocator, and a prepared-table entry. Decisions found
// in the log seed the decision map, so redelivered CommitPrepared /
// TxStatus calls answer correctly after a restart. Recovered entries on
// a participant get no orphan timer — only their coordinator may
// presume abort. Each entry's held list is built here, one per txid.
func (e *Engine) RestorePrepared(preps []*wal.Prepared, decisions map[string]bool) error {
	for gid, commit := range decisions {
		e.recordDecision(gid, decision{commit: commit})
	}
	met := &e.met.Txn
	for _, p := range preps {
		e.NoteTxID(p.TxID)
		entry := &preparedTx{gid: p.GID, held: heldList{txid: p.TxID}, since: time.Now(), recovered: true}
		ops := make([]wal.Op, len(p.Ops))
		seen := make(map[core.OID]bool, len(p.Ops))
		for i, op := range p.Ops {
			ops[i] = *op
			oid := core.OID(op.OID)
			// OIDs in a prepared batch were allocated before the crash but
			// appear in no committed record — fence the allocator so a new
			// transaction cannot be handed the same identity.
			if err := e.mgr.NoteOID(oid); err != nil {
				return fmt.Errorf("txn: restore prepared %q: %w", p.GID, err)
			}
			// Without its cluster's IX a recovered write would be invisible
			// to the cluster S of a scan, which would then read around it.
			if err := e.relockCluster(&entry.held, op); err != nil {
				return fmt.Errorf("txn: restore prepared %q: relock cluster of @%d: %w", p.GID, op.OID, err)
			}
			if seen[oid] {
				continue
			}
			seen[oid] = true
			if err := e.locks.Acquire(context.Background(), &entry.held, oid, Exclusive); err != nil {
				return fmt.Errorf("txn: restore prepared %q: relock @%d: %w", p.GID, op.OID, err)
			}
		}
		entry.ops = ops
		e.prepMu.Lock()
		e.prepared[p.GID] = entry
		e.prepMu.Unlock()
		met.PreparedInDoubt.Add(1)
		e.armPrepareTimer(entry)
	}
	return nil
}

// relockCluster takes IX into hl on the cluster of the object op
// writes. A put names its class; a delete's object still exists, since
// the batch is not applied; a version drop takes no IX (Tx.DeleteVersion
// takes none: no scan reads frozen versions). Re-acquiring a held IX is
// a no-op in the lock table.
func (e *Engine) relockCluster(hl *heldList, op *wal.Op) error {
	var cid core.ClassID
	switch op.Type {
	case wal.OpPut, wal.OpPutVersion:
		cid = core.ClassID(op.ClassID)
	case wal.OpDelete:
		c, err := e.mgr.ClassOf(core.OID(op.OID))
		if errors.Is(err, object.ErrNoObject) {
			return nil // nothing there for a scan to read around
		}
		if err != nil {
			return err
		}
		cid = c.ID()
	default:
		return nil
	}
	return e.locks.Acquire(context.Background(), hl, ClusterLockOID(cid), IntentExclusive)
}

// StopPrepareTimers disarms every orphan timer (shutdown): prepared
// state stays in the table for RestageRecords, and nothing races the
// closing WAL.
func (e *Engine) StopPrepareTimers() {
	e.prepMu.Lock()
	defer e.prepMu.Unlock()
	for _, p := range e.prepared {
		p.stopTimer()
	}
}
