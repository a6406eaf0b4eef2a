package server

import (
	"ode/internal/wire"
)

// Two-phase-commit handlers: the wire face of the engine's participant
// role. A client-side router (client.Sharded) drives them — prepare on
// every participant, decide on the coordinator first, then deliver the
// decision everywhere (docs/SHARDING.md).

// handlePrepare converts the session transaction into a prepared
// (in-doubt) one: constraints and hooks run as at commit, the batch
// becomes durable as a prepared record, and the transaction detaches
// from the connection into the engine's prepared table with its locks
// held — the disconnect path must no longer abort it, and the session
// is free for a new Begin.
func (c *conn) handlePrepare(f *wire.Frame) error {
	tx := c.sessionTx()
	if tx == nil {
		return c.replyErr(f.ReqID, protoErr("prepare without transaction"))
	}
	gid, derr := wire.DecodeGIDBody(f.Body)
	if derr != nil {
		return c.replyErr(f.ReqID, protoErr("prepare: %v", derr))
	}
	err := c.s.db.PrepareTx(tx, gid)
	// Success or failure, the transaction no longer belongs to the
	// session: prepared it lives in the engine's table (Abort on it is
	// a no-op), failed it has already aborted.
	c.clearTx()
	if err != nil {
		return c.replyErr(f.ReqID, err)
	}
	return c.reply(f.ReqID, wire.RespOK, nil)
}

// handleCommitPrepared delivers a commit decision. The response body
// mirrors CmdCommit's: the batch's commit LSN, then the node's epoch.
func (c *conn) handleCommitPrepared(f *wire.Frame) error {
	gid, derr := wire.DecodeGIDBody(f.Body)
	if derr != nil {
		return c.replyErr(f.ReqID, protoErr("commit-prepared: %v", derr))
	}
	lsn, err := c.s.db.CommitPrepared(gid)
	if err != nil {
		return c.replyErr(f.ReqID, err)
	}
	// The same semi-synchronous gate ordinary commits pass through.
	if q := c.s.opts.CommitAckQuorum; q > 0 && c.s.opts.Repl != nil && lsn > 0 {
		if err := c.s.opts.Repl.WaitAcked(lsn, q, c.s.opts.AckTimeout); err != nil {
			return c.replyErr(f.ReqID, err)
		}
	}
	body := wire.AppendUvarint(nil, lsn)
	body = wire.AppendUvarint(body, c.s.db.Epoch())
	return c.reply(f.ReqID, wire.RespOK, body)
}

// handleAbortPrepared delivers an abort decision (idempotent: unknown
// gids are already the desired state under presumed abort).
func (c *conn) handleAbortPrepared(f *wire.Frame) error {
	gid, derr := wire.DecodeGIDBody(f.Body)
	if derr != nil {
		return c.replyErr(f.ReqID, protoErr("abort-prepared: %v", derr))
	}
	if err := c.s.db.AbortPrepared(gid); err != nil {
		return c.replyErr(f.ReqID, err)
	}
	return c.reply(f.ReqID, wire.RespOK, nil)
}

// handleTxStatus reports a gid's fate on this node; resolvers treat
// the coordinator's "unknown" as abort.
func (c *conn) handleTxStatus(f *wire.Frame) error {
	gid, derr := wire.DecodeGIDBody(f.Body)
	if derr != nil {
		return c.replyErr(f.ReqID, protoErr("tx-status: %v", derr))
	}
	st, err := c.s.db.TxStatus(gid)
	if err != nil {
		return c.replyErr(f.ReqID, err)
	}
	return c.reply(f.ReqID, wire.RespTxStatus, wire.TxStatusBody(st, 0))
}

// handleShardStatus reports the node's shard coordinates, durability
// position, and in-doubt transactions — the router's health/LSN
// surface and the raw material of the resolution runbook.
func (c *conn) handleShardStatus(f *wire.Frame) error {
	db := c.s.db
	slot, count := db.ShardInfo()
	st := &wire.ShardStatus{
		LSN:        db.AppliedLSN(),
		Epoch:      db.Epoch(),
		ReadOnly:   db.ReadOnly(),
		ShardSlot:  uint64(slot),
		ShardCount: uint64(count),
	}
	for _, p := range db.PreparedTxs() {
		st.Prepared = append(st.Prepared, wire.PreparedGID{
			GID:       p.GID,
			Ops:       uint64(p.Ops),
			AgeMS:     uint64(p.Age.Milliseconds()),
			Recovered: p.Recovered,
		})
	}
	return c.reply(f.ReqID, wire.RespShardStatus, st.Append(nil))
}
