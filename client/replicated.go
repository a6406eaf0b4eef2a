package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ode"
	"ode/internal/wire"
)

// ReplStatus is a node's replication position, as reported by
// CmdReplStatus: its role (ReadOnly = replica), replication id, last
// applied LSN, fencing epoch (with the LSN that epoch started at), the
// reason the node's source last dropped a subscriber, and the address
// it advertises to its group.
type ReplStatus = wire.ReplStatus

// ReplStatus queries the server's replication position. Works against
// primaries and replicas alike.
func (c *Client) ReplStatus(ctx context.Context) (*ReplStatus, error) {
	var st *ReplStatus
	err := c.call(ctx, wire.CmdReplStatus, nil, wire.RespReplStatus, func(body []byte) (err error) {
		st, err = wire.DecodeReplStatus(body)
		return err
	})
	if err != nil {
		return nil, err
	}
	return st, nil
}

// Promote asks the server to promote itself: detach from its primary,
// bump its fencing epoch, and accept writes (the wire twin of SIGUSR1
// on ode-server). The caller is the failover operator — make sure the
// old primary is dead or fenced first; see docs/REPLICATION.md.
func (c *Client) Promote(ctx context.Context) error {
	if err := c.call(ctx, wire.CmdPromote, nil, wire.RespOK, nil); err != nil {
		return err
	}
	// The node changed roles; whatever its applied state was when the
	// cache filled, failover may move it discontinuously. Start clean.
	c.InvalidateCache()
	return nil
}

// connFailure reports whether err is a transport-level failure — the
// node unreachable, or the connection dead mid-request — as opposed to
// a server-side verdict that arrived intact. Only transport failures
// justify trying a different node; a typed server error would repeat
// anywhere. Callers must check ctx.Err() first: a cancellation
// surfaces as a poisoned socket too, but it is the caller's, not the
// node's.
func connFailure(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrClosed) {
		return false
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.ECONNREFUSED) ||
		errors.Is(err, syscall.EPIPE)
}

// failoverish reports whether err means "this node cannot currently be
// the primary" — re-discover the primary and retry elsewhere, rather
// than retry here or give up.
func failoverish(err error) bool {
	return connFailure(err) || errors.Is(err, ode.ErrReadOnly) ||
		errors.Is(err, ode.ErrStaleEpoch) || errors.Is(err, ode.ErrFailover)
}

// Replicated routes traffic across one replication group: writes go to
// the current primary, reads are balanced across the other nodes with
// a freshness floor, so a session always reads its own writes — every
// commit's LSN becomes the floor, and a replica serves a read only
// once it has applied at least that much of the stream. With no
// replica fresh enough (or none reachable), reads fall back to the
// primary.
//
// The router is failover-aware. It tracks which node is primary and
// the highest fencing epoch it has observed; when a write fails
// because the primary is unreachable, read-only, or fenced
// (ode.ErrStaleEpoch), it re-discovers the primary by polling every
// node's repl-status and retries on the winner — refusing to adopt a
// node whose epoch is below anything the session has already seen, so
// a deposed primary resurfacing cannot capture the session's writes.
// Writes that exhaust the retry budget mid-failover surface as
// ode.ErrFailover, which satisfies ode.IsRetryable.
//
// A Replicated is safe for concurrent use; the freshness floor and
// epoch floor are shared, so one goroutine's commits bound every
// goroutine's reads.
type Replicated struct {
	nodes      []*nodeState
	rr         atomic.Uint64
	lastLSN    atomic.Uint64 // highest commit LSN this session must observe
	epochFloor atomic.Uint64 // highest fencing epoch this session has observed
	primaryIdx atomic.Int64  // index into nodes of the believed primary

	refreshMu sync.Mutex // serializes refreshPrimary sweeps
}

// nodeState caches a node's applied position. The cache is monotonic
// and refreshed by polling ReplStatus only when a read needs more
// freshness than the cache proves.
type nodeState struct {
	c   *Client
	lsn atomic.Uint64
}

// advance folds a polled position into the cache; reports whether it
// moved.
func (ns *nodeState) advance(lsn uint64) bool {
	for {
		cur := ns.lsn.Load()
		if lsn <= cur {
			return false
		}
		if ns.lsn.CompareAndSwap(cur, lsn) {
			return true
		}
	}
}

// NewReplicated assembles a router over an already-dialed group:
// primary first, then the replicas. The roles are a starting belief,
// not a constraint — failover re-discovery can move the primary to any
// node. The Replicated owns the clients from here: Close closes all of
// them.
func NewReplicated(primary *Client, replicas ...*Client) *Replicated {
	r := &Replicated{}
	r.nodes = append(r.nodes, &nodeState{c: primary})
	for _, c := range replicas {
		r.nodes = append(r.nodes, &nodeState{c: c})
	}
	return r
}

// Primary returns the client of the node currently believed to be
// primary.
func (r *Replicated) Primary() *Client { return r.nodes[r.primaryIdx.Load()].c }

// Observe folds an externally learned commit LSN into the session's
// freshness floor — e.g. from a transaction the caller began on
// Primary() directly: r.Observe(tx.CommitLSN()) after its Commit.
func (r *Replicated) Observe(lsn uint64) {
	for {
		cur := r.lastLSN.Load()
		if lsn <= cur || r.lastLSN.CompareAndSwap(cur, lsn) {
			return
		}
	}
}

// observeEpoch raises the session's epoch floor.
func (r *Replicated) observeEpoch(epoch uint64) {
	for {
		cur := r.epochFloor.Load()
		if epoch <= cur || r.epochFloor.CompareAndSwap(cur, epoch) {
			return
		}
	}
}

// probeTimeout bounds each per-node repl-status probe during primary
// discovery and freshness polls.
const probeTimeout = 2 * time.Second

// probeStatus polls one node's repl-status under the probe timeout.
func (r *Replicated) probeStatus(ctx context.Context, ns *nodeState) *ReplStatus {
	pctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	st, err := ns.c.ReplStatus(pctx)
	if err != nil {
		return nil
	}
	return st
}

// refreshPrimary polls every node and adopts the writable one with the
// highest epoch as the primary — provided that epoch is not below the
// session's floor (a resurfaced deposed primary is writable too, at a
// stale epoch; adopting it would hand it the session's writes).
// Reports whether a writable primary is currently known.
func (r *Replicated) refreshPrimary(ctx context.Context) bool {
	r.refreshMu.Lock()
	defer r.refreshMu.Unlock()
	best, bestEpoch := -1, uint64(0)
	for i, ns := range r.nodes {
		st := r.probeStatus(ctx, ns)
		if st == nil {
			continue
		}
		ns.advance(st.LSN)
		if !st.ReadOnly && (best < 0 || st.Epoch > bestEpoch) {
			best, bestEpoch = i, st.Epoch
		}
	}
	if best < 0 || bestEpoch < r.epochFloor.Load() {
		return false
	}
	if int64(best) != r.primaryIdx.Load() {
		r.primaryIdx.Store(int64(best))
		// The node changed roles under the session; its cache was
		// filled under the old routing.
		r.nodes[best].c.InvalidateCache()
	}
	r.observeEpoch(bestEpoch)
	return true
}

// RunTx runs a write transaction on the primary, raising the session
// freshness floor to its commit LSN. Transient conflicts retry in
// place under the usual policy; failover casualties (primary
// unreachable, read-only, or fenced) trigger primary re-discovery
// before the retry. The retry budget is ode.MaxTxRetries across both
// kinds; a budget exhausted mid-failover surfaces as a retryable
// ode.ErrFailover.
func (r *Replicated) RunTx(ctx context.Context, fn func(tx *Tx) error) error {
	err := runWithRetry(ctx,
		func() error { return r.runTxOnce(ctx, fn) },
		func(err error) bool {
			if failoverish(err) {
				r.refreshPrimary(ctx)
				return true
			}
			return ode.IsRetryable(err)
		})
	if err == nil {
		return nil
	}
	if failoverish(err) && !ode.IsRetryable(err) {
		// A raw transport failure is not retryable on its own; name what
		// it was for this session — a write lost to failover — so
		// callers with their own retry loops classify it correctly.
		return fmt.Errorf("%w: %v", ode.ErrFailover, err)
	}
	return err
}

// runTxOnce is one begin/fn/commit attempt on the believed primary,
// with the session's epoch fence applied at begin.
func (r *Replicated) runTxOnce(ctx context.Context, fn func(tx *Tx) error) error {
	tx, err := r.Primary().Begin(ctx)
	if err != nil {
		return err
	}
	if e := tx.Epoch(); e > 0 && e < r.epochFloor.Load() {
		// The node answered as a writable primary, but at an epoch the
		// session has already seen superseded: a deposed primary that
		// has not noticed yet. Refuse it before fn runs.
		tx.Abort()
		return fmt.Errorf("client: primary at epoch %d, session has observed %d: %w",
			e, r.epochFloor.Load(), ode.ErrStaleEpoch)
	}
	if err := fn(tx); err != nil {
		tx.Abort()
		return err
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	r.observeEpoch(tx.Epoch())
	r.Observe(tx.CommitLSN())
	return nil
}

// Begin opens a write transaction on the believed primary. The router
// cannot see its Commit; pass tx.CommitLSN() to Observe afterwards if
// later View calls must read the writes. No failover handling — use
// RunTx for that.
func (r *Replicated) Begin(ctx context.Context) (*Tx, error) { return r.Primary().Begin(ctx) }

// View runs fn read-only at the session freshness floor (reads your
// own RunTx writes).
func (r *Replicated) View(ctx context.Context, fn func(tx *Tx) error) error {
	return r.ViewAt(ctx, r.lastLSN.Load(), fn)
}

// errBehindFloor marks a node that answered a floored read but proved
// less freshness than required — a replica that regressed (wiped and
// resyncing) past what the router's cache remembered. Internal: ViewAt
// skips the node and corrects the cache.
var errBehindFloor = errors.New("client: node behind the read floor")

// floored wraps fn with an in-transaction freshness check: the begin
// reply carries the node's applied LSN, the one position the node can
// actually prove, so a stale cache can never route a floored read to a
// node that no longer holds the session's writes.
func floored(minLSN uint64, fn func(tx *Tx) error) func(tx *Tx) error {
	return func(tx *Tx) error {
		if tx.AppliedLSN() < minLSN {
			return fmt.Errorf("%w: node at lsn %d, floor %d", errBehindFloor, tx.AppliedLSN(), minLSN)
		}
		return fn(tx)
	}
}

// ViewAt runs fn read-only on a node whose applied LSN is at least
// minLSN. Fresh-enough replicas are tried first, freshest first (ties
// rotate round-robin for balance); a replica that fails at the
// transport level — or that turns out behind the floor despite its
// cached position — is skipped for the next-freshest, and the primary
// is the final fallback.
func (r *Replicated) ViewAt(ctx context.Context, minLSN uint64, fn func(tx *Tx) error) error {
	for _, ns := range r.viewCandidates(ctx, minLSN) {
		err := ns.c.View(ctx, floored(minLSN, fn))
		if errors.Is(err, errBehindFloor) {
			// The node regressed below its cached position (wipe-resync).
			// Reset the monotonic cache so it must re-prove freshness.
			ns.lsn.Store(0)
			continue
		}
		if err == nil || ctx.Err() != nil || !connFailure(err) {
			return err
		}
	}
	err := r.Primary().View(ctx, floored(minLSN, fn))
	if err != nil && ctx.Err() == nil && (connFailure(err) || errors.Is(err, errBehindFloor)) {
		// The primary is gone (or a deposed, regressed impostor); one
		// re-discovery pass before giving up, so a read-only session
		// survives a failover it never writes through.
		if r.refreshPrimary(ctx) {
			if rerr := r.Primary().View(ctx, floored(minLSN, fn)); !errors.Is(rerr, errBehindFloor) {
				return rerr
			}
		}
		return fmt.Errorf("%w: %v", ode.ErrFailover, err)
	}
	return err
}

// viewCandidates returns the non-primary nodes at or past minLSN,
// freshest first. A node whose cached position is too stale gets one
// repl-status poll; one that is unreachable or still behind is
// excluded.
func (r *Replicated) viewCandidates(ctx context.Context, minLSN uint64) []*nodeState {
	pi := int(r.primaryIdx.Load())
	var cands []*nodeState
	for i, ns := range r.nodes {
		if i == pi {
			continue
		}
		if ns.lsn.Load() < minLSN {
			st := r.probeStatus(ctx, ns)
			if st == nil {
				continue
			}
			if ns.advance(st.LSN) {
				// Routing decision: the read needed more freshness than
				// the cached position proved, and the replica has applied
				// new batches since this client's cache filled. Drop the
				// cache rather than revalidate entry by entry — the poll
				// is the signal that the working set moved.
				ns.c.InvalidateCache()
			}
		}
		if ns.lsn.Load() >= minLSN {
			cands = append(cands, ns)
		}
	}
	rot := int(r.rr.Add(1) - 1)
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].lsn.Load() > cands[b].lsn.Load() })
	if len(cands) > 1 {
		// Rotate equally fresh prefixes so identical replicas share the
		// load instead of the sort pinning one.
		top := 1
		for top < len(cands) && cands[top].lsn.Load() == cands[0].lsn.Load() {
			top++
		}
		if top > 1 {
			k := rot % top
			rotated := append(append([]*nodeState(nil), cands[k:top]...), cands[:k]...)
			copy(cands, rotated)
		}
	}
	return cands
}

// Close closes every node's client.
func (r *Replicated) Close() error {
	var err error
	for _, ns := range r.nodes {
		if cerr := ns.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
