package client

import (
	"context"
	"time"

	"ode/internal/wire"
)

// Two-phase-commit verbs: the client face of the server's participant
// role. The Sharded router composes them into cross-shard atomic
// commit; they are exported so external coordinators and the
// resolution runbook (docs/SHARDING.md) can drive the protocol
// directly.

// Prepare runs the first phase of two-phase commit on the transaction
// under the global id gid. On success the transaction is durable and
// in-doubt on the server with its locks held, and it no longer belongs
// to this session — only Client.CommitPrepared or Client.AbortPrepared
// (or, on the gid's coordinator shard, the server's prepare timeout)
// finish it. On failure the transaction has aborted. Either way the Tx
// is finished client-side: no further method calls are valid.
func (tx *Tx) Prepare(gid string) error {
	resp, err := tx.roundTrip(wire.CmdPrepare, wire.GIDBody(gid))
	return tx.prepared(resp, err)
}

// prepared is the vote a prepare reply carries, or the error that kept
// it from arriving; either way the transaction is finished here.
func (tx *Tx) prepared(resp *wire.Frame, err error) error {
	if err == nil {
		err = respErrOnly(resp)
	}
	tx.finish()
	return err
}

// CommitPrepared delivers a commit decision for gid to the server,
// returning the committed batch's LSN and the node's fencing epoch.
// Redelivery is idempotent; a gid the server does not hold prepared
// (and has not already committed) fails with ode.ErrNoPrepared.
func (c *Client) CommitPrepared(ctx context.Context, gid string) (lsn, epoch uint64, err error) {
	err = c.call(ctx, wire.CmdCommitPrepared, wire.GIDBody(gid), wire.RespOK, func(body []byte) error {
		d := wire.NewDec(body)
		lsn, epoch = d.Uvarint(), d.Uvarint()
		return d.Err()
	})
	return lsn, epoch, err
}

// AbortPrepared delivers an abort decision for gid. Unknown gids
// succeed: under presumed abort, "never prepared here" is already the
// desired state, so redelivery and racing resolvers are harmless.
func (c *Client) AbortPrepared(ctx context.Context, gid string) error {
	return c.call(ctx, wire.CmdAbortPrepared, wire.GIDBody(gid), wire.RespOK, nil)
}

// TxStatus reports gid's fate on the server: "prepared", "committed",
// "aborted", or "unknown". A resolver treats the coordinator shard's
// "unknown" as abort — the commit decision is made durable there
// before any participant may commit.
func (c *Client) TxStatus(ctx context.Context, gid string) (status string, err error) {
	err = c.call(ctx, wire.CmdTxStatus, wire.GIDBody(gid), wire.RespTxStatus, func(body []byte) (err error) {
		status, _, err = wire.DecodeTxStatusBody(body)
		return err
	})
	return status, err
}

// PreparedTx describes one in-doubt transaction reported by
// ShardStatus.
type PreparedTx struct {
	GID       string
	Ops       int           // writes held by the prepared batch
	Age       time.Duration // time since prepare (or recovery)
	Recovered bool          // re-instated from the WAL after a restart
}

// ShardStatus is one node's answer to Client.ShardStatus: its shard
// coordinates, durability position, writability, and every prepared
// (in-doubt) transaction it holds.
type ShardStatus struct {
	LSN      uint64 // applied log position
	Epoch    uint64 // replication fencing epoch
	ReadOnly bool
	Slot     int // shard index; meaningful when Count > 1
	Count    int // shard count; < 2 means unsharded
	Prepared []PreparedTx
}

// ShardStatus fetches the server's shard coordinates, applied LSN, and
// in-doubt transaction list — the router's health surface and the raw
// material of the in-doubt resolution runbook (docs/SHARDING.md).
func (c *Client) ShardStatus(ctx context.Context) (*ShardStatus, error) {
	var ws *wire.ShardStatus
	err := c.call(ctx, wire.CmdShardStatus, nil, wire.RespShardStatus, func(body []byte) (err error) {
		ws, err = wire.DecodeShardStatus(body)
		return err
	})
	if err != nil {
		return nil, err
	}
	st := &ShardStatus{
		LSN:      ws.LSN,
		Epoch:    ws.Epoch,
		ReadOnly: ws.ReadOnly,
		Slot:     int(ws.ShardSlot),
		Count:    int(ws.ShardCount),
	}
	for _, p := range ws.Prepared {
		st.Prepared = append(st.Prepared, PreparedTx{
			GID:       p.GID,
			Ops:       int(p.Ops),
			Age:       time.Duration(p.AgeMS) * time.Millisecond,
			Recovered: p.Recovered,
		})
	}
	return st, nil
}
