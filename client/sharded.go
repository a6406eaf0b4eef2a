package client

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"ode"
	"ode/internal/obs"
	"ode/internal/txn"
	"ode/internal/wire"
)

// Sharded routes traffic across N shards by OID: every object lives on
// exactly one shard (oid % N — the shards allocate disjoint, congruent
// OID streams when opened with matching ShardSlot/ShardCount options),
// point operations go straight to the owning shard, and scans go to
// every shard at once, their per-shard streams merged by OID. A shard is
// a replication group (Replicated; a lone server is a group of one), and
// every per-shard call goes to the group's primary.
//
// Transactions that touch one shard commit on that shard's ordinary
// fast path. Transactions that touch several commit through two-phase
// commit: the router prepares the write set on every participant
// (each vote durable before it is given), makes the commit decision
// durable on the coordinator shard — the lowest participating index,
// encoded in the transaction's gid — and then delivers it to the
// rest. A participant that cannot be reached after the decision stays
// in doubt, holding its locks, until redelivery or ResolveInDoubt;
// the commit still acks, because the decision is already durable.
// Protocol, failure matrix, and runbook: docs/SHARDING.md.
//
// A Sharded is safe for concurrent use; each STx is not (like Tx), and
// runs on its caller's goroutine alone.
type Sharded struct {
	shards  []*Replicated
	rr      atomic.Uint64 // round-robin PNew placement
	gidSeq  atomic.Uint64
	gidBase string // random per-router token making gids collision-free
	met     ShardMetrics
}

// ErrInDoubt marks a cross-shard commit whose decision round trip to
// the coordinator failed at the transport level: the commit record may
// or may not be durable there, so the router can neither ack nor abort.
// The transaction holds its locks on every participant until
// ResolveInDoubt (or a redelivered decision) settles it against the
// coordinator's state. Deliberately not retryable — rerunning the
// function could double-apply a transaction that did commit.
var ErrInDoubt = errors.New("client: cross-shard transaction in doubt")

// ErrNotWholeGroup is ResolveInDoubt refusing to settle anything because
// the router's shard list is not the servers' shard group in slot order.
var ErrNotWholeGroup = errors.New("client: router does not span the whole shard group in slot order")

// decisionRetries bounds redelivery attempts for one decision round
// trip (idempotent, so retrying is always safe).
const decisionRetries = 2

// NewSharded assembles a router over shard groups, in shard order:
// shards[i] must be the group opened with ShardSlot i and ShardCount
// len(shards). The Sharded owns the groups from here: Close closes all
// of them.
func NewSharded(shards ...*Replicated) (*Sharded, error) {
	if len(shards) == 0 {
		return nil, errors.New("client: sharded router needs at least one shard")
	}
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		return nil, fmt.Errorf("client: gid entropy: %w", err)
	}
	return &Sharded{shards: shards, gidBase: hex.EncodeToString(b[:])}, nil
}

// DialSharded dials every shard address, in shard order, and assembles
// a router over them, each server a group of one. The schema must be
// registered identically on every shard (and match the servers').
func DialSharded(addrs []string, schema *ode.Schema, opts *Options) (*Sharded, error) {
	shards := make([]*Replicated, 0, len(addrs))
	for i, a := range addrs {
		c, err := Dial(a, schema, opts)
		if err != nil {
			for _, g := range shards {
				g.Close()
			}
			return nil, fmt.Errorf("shard %d (%s): %w", i, a, err)
		}
		shards = append(shards, NewReplicated(c))
	}
	return NewSharded(shards...)
}

// NumShards returns the shard count N; OIDs route as oid % N.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Shard returns the client of shard i's primary, which every per-shard
// call of the router goes to (and, for direct, router-bypassing access:
// metrics, promotion, debugging).
func (s *Sharded) Shard(i int) *Client { return s.shards[i].Primary() }

// ShardFor returns the index of the shard owning oid.
func (s *Sharded) ShardFor(oid ode.OID) int {
	return int(uint64(oid) % uint64(len(s.shards)))
}

// ShardMetrics returns the router's counters; Metrics.Attach-style
// registration via ShardMetrics.Attach.
func (s *Sharded) ShardMetrics() *ShardMetrics { return &s.met }

// Close closes every shard group.
func (s *Sharded) Close() error {
	var err error
	for _, g := range s.shards {
		if cerr := g.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// mintGID builds a canonical global transaction id: "s<coord>-" names
// the coordinator shard (the engine parses it to decide which node may
// presume abort at timeout), the rest makes it unique.
func (s *Sharded) mintGID(coord int) string {
	return fmt.Sprintf("s%d-%s-%d", coord, s.gidBase, s.gidSeq.Add(1))
}

// Begin opens a sharded transaction. Per-shard transactions open
// lazily on first touch, so no round trips happen here and a
// transaction that stays on one shard costs exactly what a direct
// client transaction costs.
func (s *Sharded) Begin(ctx context.Context) *STx {
	return &STx{s: s, ctx: ctx, txs: make([]*Tx, len(s.shards))}
}

// RunTx runs fn in a sharded transaction, committing on nil return
// (two-phase when several shards were written) and aborting otherwise,
// under the shared retry policy. An ErrInDoubt commit is not retried.
func (s *Sharded) RunTx(ctx context.Context, fn func(tx *STx) error) error {
	return runWithRetry(ctx, func() error {
		tx := s.Begin(ctx)
		if err := fn(tx); err != nil {
			tx.Abort()
			return err
		}
		return tx.Commit()
	}, ode.IsRetryable)
}

// View runs fn read-only: begin, fn, abort everywhere.
func (s *Sharded) View(ctx context.Context, fn func(tx *STx) error) error {
	tx := s.Begin(ctx)
	defer tx.Abort()
	return fn(tx)
}

// Status polls every shard's shard-status. The slice is indexed by
// shard; an unreachable shard leaves a nil entry and the first such
// failure is returned alongside the partial result.
func (s *Sharded) Status(ctx context.Context) ([]*ShardStatus, error) {
	out := make([]*ShardStatus, len(s.shards))
	var firstErr error
	for i := range s.shards {
		st, err := s.Shard(i).ShardStatus(ctx)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("shard %d: %w", i, err)
			}
			continue
		}
		out[i] = st
	}
	return out, firstErr
}

// ResolveInDoubt sweeps every shard's in-doubt transactions and
// settles each against its coordinator shard's verdict: committed
// there means deliver commit everywhere, anything else — aborted,
// unknown (presumed abort), or still prepared with its router gone —
// means deliver abort. Only run it when no coordinator for the
// in-doubt gids is still active; a live router racing a resolver could
// see its decision contradicted. Returns the number of transactions
// fully resolved; gids this router cannot parse a coordinator from are
// left alone.
//
// The verdict is read from shards[coord], so the router must span the
// whole group in slot order: if any shard that answers reports other
// coordinates than (i, len(shards)) nothing is resolved and
// ErrNotWholeGroup is returned — asked of a participant, "still
// prepared" would abort a transaction its real coordinator committed. A
// gid whose coordinator did not answer the sweep, or answered with an
// error (ErrUnknownOutcome: a staged decision unsettled until the
// coordinator reopens), is left for the next.
func (s *Sharded) ResolveInDoubt(ctx context.Context) (int, error) {
	holders := make(map[string][]int)
	sts, firstErr := s.Status(ctx)
	for i, st := range sts {
		if st == nil {
			continue // unreachable: firstErr says so
		}
		if lone := st.Count < 2 && len(sts) == 1; !lone && (st.Slot != i || st.Count != len(sts)) {
			return 0, fmt.Errorf("%w: shard %d of %d reports slot %d/%d", ErrNotWholeGroup, i, len(sts), st.Slot, st.Count)
		}
		for _, p := range st.Prepared {
			holders[p.GID] = append(holders[p.GID], i)
		}
	}
	gids := make([]string, 0, len(holders))
	for gid := range holders {
		gids = append(gids, gid)
	}
	sort.Strings(gids)

	resolved := 0
	for _, gid := range gids {
		coord, ok := txn.GIDCoordinator(gid)
		if !ok || coord >= len(sts) {
			continue // a foreign coordinator owns this gid
		}
		if sts[coord] == nil {
			continue // unverified this sweep; its failure is firstErr already
		}
		status, err := s.Shard(coord).TxStatus(ctx, gid)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("resolve %s: coordinator status: %w", gid, err)
			}
			continue
		}
		commit := status == ode.TxStatusCommitted
		allOK := true
		for _, i := range holders[gid] {
			var derr error
			if commit {
				_, _, derr = s.Shard(i).CommitPrepared(ctx, gid)
			} else {
				derr = s.Shard(i).AbortPrepared(ctx, gid)
			}
			if derr != nil {
				allOK = false
				if firstErr == nil {
					firstErr = fmt.Errorf("resolve %s on shard %d: %w", gid, i, derr)
				}
			}
		}
		if allOK {
			resolved++
			s.met.Resolved.Inc()
		}
	}
	return resolved, firstErr
}

// STx is a sharded transaction: a lazily-opened transaction per shard,
// all sharing the begin context. Point operations route by OID, scans
// fan out. Like Tx, an STx is single-goroutine.
type STx struct {
	s    *Sharded
	ctx  context.Context
	txs  []*Tx // indexed by shard; nil until first touched
	done bool
}

// shardTx returns the open transaction on shard i, beginning one on
// first touch.
func (t *STx) shardTx(i int) (*Tx, error) {
	if t.done {
		return nil, ode.ErrTxDone
	}
	if t.txs[i] == nil {
		tx, err := t.s.Shard(i).Begin(t.ctx)
		if err != nil {
			return nil, err
		}
		t.txs[i] = tx
	}
	return t.txs[i], nil
}

// participants returns the shard indexes this transaction has touched.
func (t *STx) participants() []int {
	var parts []int
	for i, tx := range t.txs {
		if tx != nil {
			parts = append(parts, i)
		}
	}
	return parts
}

// Abort aborts the transaction on every touched shard; safe to call
// after failure or repeatedly.
func (t *STx) Abort() {
	if t.done {
		return
	}
	t.done = true
	for _, tx := range t.txs {
		if tx != nil {
			tx.Abort()
		}
	}
}

// Commit commits the transaction. One touched shard commits on that
// shard's ordinary path; several commit atomically through two-phase
// commit. On a nil return every participant has either committed or
// holds a durably decided commit it will apply on redelivery; on
// ErrInDoubt see the type's comment; on any other error the
// transaction has aborted everywhere.
func (t *STx) Commit() error {
	if t.done {
		return ode.ErrTxDone
	}
	t.done = true
	parts := t.participants()
	switch len(parts) {
	case 0:
		return nil
	case 1:
		t.s.met.SingleCommits.Inc()
		return t.txs[parts[0]].Commit()
	}
	return t.s.commit2PC(t.ctx, t.txs, parts)
}

// commit2PC runs the coordinator role of two-phase commit over the
// participating shards. parts is sorted ascending (participants walks
// the shard array in order); the lowest index is the coordinator.
func (s *Sharded) commit2PC(ctx context.Context, txs []*Tx, parts []int) error {
	coord := parts[0]
	gid := s.mintGID(coord)

	// Phase 1: every prepare is sent before any vote is read. Each nil
	// vote is a durable yes; each failure has already aborted locally.
	ptxs := make([]*Tx, len(parts))
	for k, i := range parts {
		ptxs[k] = txs[i]
	}
	var prepErr error
	exchange(ptxs, wire.CmdPrepare, wire.GIDBody(gid), func(k int, resp *wire.Frame, err error) {
		if err = ptxs[k].prepared(resp, err); prepErr == nil { // lowest participating index wins
			prepErr = err
		}
	})
	if prepErr != nil {
		// Global abort, delivered to every participant — including the
		// ones whose Prepare failed: a transport-level failure (request
		// processed, response lost) may have prepared server-side, and a
		// non-coordinator participant has no orphan timeout, so skipping
		// it would strand its locks until ResolveInDoubt. AbortPrepared
		// is idempotent (unknown gids succeed), so over-delivery is
		// free. Still best effort: a shard that misses the abort stays
		// prepared until the coordinator's presumed-abort verdict
		// reaches it through ResolveInDoubt (or its own timeout, if it
		// is the coordinator).
		for _, i := range parts {
			for try := 0; ; try++ {
				if err := s.Shard(i).AbortPrepared(ctx, gid); err == nil ||
					ctx.Err() != nil || try >= decisionRetries {
					break
				}
			}
		}
		s.met.CrossAborts.Inc()
		return prepErr
	}

	// Phase 2: the decision. Committing the coordinator's prepared
	// batch makes the decision durable there — the global commit point.
	// Until this succeeds no participant has committed, so a definite
	// refusal still aborts the whole transaction.
	var derr error
	for try := 0; ; try++ {
		_, _, derr = s.Shard(coord).CommitPrepared(ctx, gid)
		if derr == nil || errors.Is(derr, ode.ErrNoPrepared) ||
			ctx.Err() != nil || try >= decisionRetries {
			break
		}
	}
	if errors.Is(derr, ode.ErrNoPrepared) {
		// The coordinator holds neither the prepared entry nor a commit
		// decision for it: the prepare timed out and was presumed
		// aborted (only the coordinator may do that). No participant can
		// have committed; finish the global abort.
		for _, i := range parts {
			if i != coord {
				_ = s.Shard(i).AbortPrepared(ctx, gid)
			}
		}
		s.met.CrossAborts.Inc()
		return fmt.Errorf("client: cross-shard transaction %s aborted by coordinator timeout: %w", gid, derr)
	}
	if derr != nil {
		// Transport failure: the decision's fate is unknown. Neither
		// acking nor aborting is sound; the transaction stays in doubt
		// for ResolveInDoubt.
		s.met.InDoubt.Inc()
		return fmt.Errorf("%w (gid %s): %v", ErrInDoubt, gid, derr)
	}

	// Phase 3: deliver the decided commit to the other participants.
	// The outcome can no longer change; a participant that cannot be
	// reached keeps its prepared state (and locks) until redelivery or
	// ResolveInDoubt, and the commit acks regardless.
	for _, i := range parts {
		if i == coord {
			continue
		}
		var err error
		for try := 0; ; try++ {
			_, _, err = s.Shard(i).CommitPrepared(ctx, gid)
			if err == nil || ctx.Err() != nil || try >= decisionRetries {
				break
			}
		}
		if err != nil {
			s.met.InDoubt.Inc()
		}
	}
	s.met.CrossCommits.Inc()
	return nil
}

// PNew creates a persistent object on a round-robin-chosen shard (each
// shard's allocator only mints OIDs that route back to it, so
// placement is load balancing, not addressing) and returns its OID.
func (t *STx) PNew(c *ode.Class, init *ode.Object) (ode.OID, error) {
	i := int(t.s.rr.Add(1)-1) % len(t.s.shards)
	tx, err := t.shardTx(i)
	if err != nil {
		return ode.NilOID, err
	}
	oid, err := tx.PNew(c, init)
	if err != nil {
		return ode.NilOID, err
	}
	if home := t.s.ShardFor(oid); home != i && len(t.s.shards) > 1 {
		// The shard allocated an OID that routes elsewhere: it was not
		// opened with -shard-slot/-shard-count matching this router.
		return ode.NilOID, fmt.Errorf(
			"client: shard %d allocated oid %d, which routes to shard %d: server shard options mismatch", i, oid, home)
	}
	return oid, nil
}

// byOID routes one point operation to oid's owning shard.
func (t *STx) byOID(oid ode.OID) (*Tx, error) { return t.shardTx(t.s.ShardFor(oid)) }

// Deref reads the current image of oid from its owning shard.
func (t *STx) Deref(oid ode.OID) (*ode.Object, error) {
	tx, err := t.byOID(oid)
	if err != nil {
		return nil, err
	}
	return tx.Deref(oid)
}

// Update replaces the image of oid on its owning shard.
func (t *STx) Update(oid ode.OID, o *ode.Object) error {
	tx, err := t.byOID(oid)
	if err != nil {
		return err
	}
	return tx.Update(oid, o)
}

// PDelete deletes oid on its owning shard.
func (t *STx) PDelete(oid ode.OID) error {
	tx, err := t.byOID(oid)
	if err != nil {
		return err
	}
	return tx.PDelete(oid)
}

// CurrentVersion returns the newest frozen version number of oid.
func (t *STx) CurrentVersion(oid ode.OID) (uint32, error) {
	tx, err := t.byOID(oid)
	if err != nil {
		return 0, err
	}
	return tx.CurrentVersion(oid)
}

// NewVersion freezes the current image of oid as a new version.
func (t *STx) NewVersion(oid ode.OID) (ode.VRef, error) {
	tx, err := t.byOID(oid)
	if err != nil {
		return ode.VRef{}, err
	}
	return tx.NewVersion(oid)
}

// Versions lists the frozen version numbers of oid.
func (t *STx) Versions(oid ode.OID) ([]uint32, error) {
	tx, err := t.byOID(oid)
	if err != nil {
		return nil, err
	}
	return tx.Versions(oid)
}

// DerefVersion reads a frozen version image.
func (t *STx) DerefVersion(ref ode.VRef) (*ode.Object, error) {
	tx, err := t.byOID(ref.OID)
	if err != nil {
		return nil, err
	}
	return tx.DerefVersion(ref)
}

// DeleteVersion deletes one frozen version.
func (t *STx) DeleteVersion(ref ode.VRef) error {
	tx, err := t.byOID(ref.OID)
	if err != nil {
		return err
	}
	return tx.DeleteVersion(ref)
}

// everyShard pins the transaction on every shard before a scan goes to
// all of them; each begin then rides its shard's scan request.
func (t *STx) everyShard() ([]*Tx, error) {
	txs := make([]*Tx, len(t.s.shards))
	for i := range txs {
		tx, err := t.shardTx(i)
		if err != nil {
			return nil, err
		}
		txs[i] = tx
	}
	if len(txs) > 1 {
		t.s.met.ScatterScans.Inc()
	}
	return txs, nil
}

// Forall sends the scan to every shard at once and streams the k-way
// merge of their result streams through fn, all on the caller's
// goroutine. On an extent path each shard streams its rows class by
// class in Schema.Hierarchy order (one class unless the scan takes
// subtypes) and in OID order within a class, so the merge orders rows
// by their class's place in that hierarchy and then by OID, and yields
// the same rows in the same order a single unsharded server would. An
// index path streams a shard's writes and then key order, so there the
// merged order is not a single server's. fn's
// contract matches Tx.Forall: returning false stops the scan, an error
// ends it with that error; either way each shard has been sent only the
// windows the merge pulled, and the transaction's next request on a
// shard ends its scan. When several shards fail, the lowest shard
// index's error is reported, deterministically.
func (t *STx) Forall(sc *Scan, fn func(oid ode.OID, obj *ode.Object) (bool, error)) (int, error) {
	txs, err := t.everyShard()
	if err != nil {
		return 0, err
	}
	cs := make([]*cursor, len(txs))
	for i, tx := range txs {
		cs[i] = tx.scan(sc)
	}
	var rank map[string]int
	if sc.Subtypes {
		rank = make(map[string]int)
		for i, c := range txs[0].c.schema.Hierarchy(sc.Class) {
			rank[c.Name] = i
		}
	}
	return merge(cs, rank, fn)
}

// Collect runs the scan and returns every row, in Forall's order.
func (t *STx) Collect(sc *Scan) ([]ode.OID, []*ode.Object, error) {
	var oids []ode.OID
	var objs []*ode.Object
	_, err := t.Forall(sc, func(oid ode.OID, obj *ode.Object) (bool, error) {
		oids = append(oids, oid)
		objs = append(objs, obj)
		return true, nil
	})
	return oids, objs, err
}

// Count asks every shard for its count at once and returns the sum: no
// rows travel and, order not being observable, nothing is merged. When
// several shards fail, the lowest shard index's error is reported.
func (t *STx) Count(sc *Scan) (int, error) {
	txs, err := t.everyShard()
	if err != nil {
		return 0, err
	}
	return count(txs, sc)
}

// ShardMetrics counts the sharded router's behavior, registered under
// the client.shard.* names documented in docs/OBSERVABILITY.md.
type ShardMetrics struct {
	SingleCommits obs.Counter `metric:"client.shard.single_commits"` // commits that stayed on one shard (fast path)
	CrossCommits  obs.Counter `metric:"client.shard.cross_commits"`  // cross-shard transactions committed through 2PC
	CrossAborts   obs.Counter `metric:"client.shard.cross_aborts"`   // cross-shard transactions aborted (a prepare failed or the coordinator presumed abort)
	InDoubt       obs.Counter `metric:"client.shard.indoubt"`        // decisions whose delivery failed, leaving a participant (or the whole transaction) in doubt
	Resolved      obs.Counter `metric:"client.shard.resolved"`       // in-doubt transactions settled by ResolveInDoubt
	ScatterScans  obs.Counter `metric:"client.shard.scatter_scans"`  // scatter-gather scans fanned out over all shards
}

// Attach registers the router metrics into reg; at most once per
// registry, as elsewhere in obs.
func (m *ShardMetrics) Attach(reg *obs.Registry) { reg.Attach(m) }
