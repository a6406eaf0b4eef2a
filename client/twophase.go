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
	if err != nil {
		tx.finish()
		return err
	}
	perr := respErrOnly(resp)
	tx.finish()
	return perr
}

// CommitPrepared delivers a commit decision for gid to the server,
// returning the committed batch's LSN and the node's fencing epoch.
// Redelivery is idempotent; a gid the server does not hold prepared
// (and has not already committed) fails with ode.ErrNoPrepared.
func (c *Client) CommitPrepared(ctx context.Context, gid string) (lsn, epoch uint64, err error) {
	cn, err := c.get()
	if err != nil {
		return 0, 0, err
	}
	defer c.put(cn)
	resp, err := cn.roundTrip(ctx, wire.CmdCommitPrepared, wire.GIDBody(gid))
	if err != nil {
		return 0, 0, err
	}
	if err := respErrOnly(resp); err != nil {
		return 0, 0, err
	}
	d := wire.NewDec(resp.Body)
	lsn = d.Uvarint()
	epoch = d.Uvarint()
	if err := d.Err(); err != nil {
		cn.broken = true
		return 0, 0, err
	}
	return lsn, epoch, nil
}

// AbortPrepared delivers an abort decision for gid. Unknown gids
// succeed: under presumed abort, "never prepared here" is already the
// desired state, so redelivery and racing resolvers are harmless.
func (c *Client) AbortPrepared(ctx context.Context, gid string) error {
	cn, err := c.get()
	if err != nil {
		return err
	}
	defer c.put(cn)
	resp, err := cn.roundTrip(ctx, wire.CmdAbortPrepared, wire.GIDBody(gid))
	if err != nil {
		return err
	}
	return respErrOnly(resp)
}

// TxStatus reports gid's fate on the server: "prepared", "committed",
// "aborted", or "unknown". A resolver treats the coordinator shard's
// "unknown" as abort — the commit decision is made durable there
// before any participant may commit.
func (c *Client) TxStatus(ctx context.Context, gid string) (string, error) {
	cn, err := c.get()
	if err != nil {
		return "", err
	}
	defer c.put(cn)
	resp, err := cn.roundTrip(ctx, wire.CmdTxStatus, wire.GIDBody(gid))
	if err != nil {
		return "", err
	}
	if err := respErr(resp); err != nil {
		return "", err
	}
	if resp.Type != wire.RespTxStatus {
		cn.broken = true
		return "", protoErr("tx-status: unexpected response 0x%02x", resp.Type)
	}
	status, _, derr := wire.DecodeTxStatusBody(resp.Body)
	if derr != nil {
		cn.broken = true
		return "", derr
	}
	return status, nil
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
	cn, err := c.get()
	if err != nil {
		return nil, err
	}
	defer c.put(cn)
	resp, err := cn.roundTrip(ctx, wire.CmdShardStatus, nil)
	if err != nil {
		return nil, err
	}
	if err := respErr(resp); err != nil {
		return nil, err
	}
	if resp.Type != wire.RespShardStatus {
		cn.broken = true
		return nil, protoErr("shard-status: unexpected response 0x%02x", resp.Type)
	}
	ws, derr := wire.DecodeShardStatus(resp.Body)
	if derr != nil {
		cn.broken = true
		return nil, derr
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
