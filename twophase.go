package ode

import "ode/internal/txn"

// Two-phase commit surface: a client-side router (client.Sharded)
// coordinates transactions that span shards by preparing them on every
// participant, making the decision durable on the coordinator shard,
// and then delivering it everywhere. These methods expose the engine's
// participant role on an embedded DB; the wire server maps the
// CmdPrepare / CmdCommitPrepared / CmdAbortPrepared / CmdTxStatus
// frames straight onto them. Protocol and failure matrix:
// docs/SHARDING.md.

// PreparedInfo describes one in-doubt prepared transaction.
type PreparedInfo = txn.PreparedInfo

// Transaction status values reported by TxStatus.
const (
	TxStatusUnknown   = txn.StatusUnknown
	TxStatusPrepared  = txn.StatusPrepared
	TxStatusCommitted = txn.StatusCommitted
	TxStatusAborted   = txn.StatusAborted
)

// PrepareTx runs the first phase of two-phase commit on tx under the
// global id gid: constraints and pre-commit hooks run exactly as in
// Commit, the batch is made durable as a prepared (in-doubt) record,
// and the transaction detaches from its session with every lock still
// held. A nil return is this node's yes vote; only CommitPrepared,
// AbortPrepared, or (on the gid's coordinator) the prepare timeout
// finish the transaction afterwards. Note that trigger actions attached
// to the write set do not fire through the two-phase path.
func (db *DB) PrepareTx(tx *Tx, gid string) error {
	return db.engine.Prepare(tx, gid)
}

// CommitPrepared delivers a commit decision for gid: the decision and
// the committed batch become durable together, the ops apply, the
// batch flows to replication, and the locks release. Redelivery is
// idempotent; an unknown (or already aborted) gid fails with
// ErrNoPrepared. Returns the batch's commit LSN (0 for a read-only
// participant).
func (db *DB) CommitPrepared(gid string) (uint64, error) {
	return db.engine.CommitPrepared(gid)
}

// AbortPrepared delivers an abort decision for gid, releasing its
// locks and discarding the prepared batch. Unknown gids succeed —
// under presumed abort, "never prepared here" is the desired state.
func (db *DB) AbortPrepared(gid string) error {
	return db.engine.AbortPrepared(gid)
}

// TxStatus reports gid's fate on this node: prepared (in-doubt),
// committed, aborted, or unknown. A resolver treats the coordinator's
// "unknown" as abort: the decision record is made durable before any
// participant may commit. A commit decision that was staged but whose
// apply or fsync failed has no status until the database is reopened:
// the error wraps ErrUnknownOutcome.
func (db *DB) TxStatus(gid string) (string, error) { return db.engine.TxStatus(gid) }

// PreparedTxs lists this node's in-doubt transactions, oldest first.
func (db *DB) PreparedTxs() []PreparedInfo { return db.engine.PreparedList() }

// ShardInfo returns the shard coordinates this database was opened
// with (Options.ShardSlot / Options.ShardCount); count < 2 means
// unsharded.
func (db *DB) ShardInfo() (slot, count int) { return db.opts.ShardSlot, db.opts.ShardCount }
