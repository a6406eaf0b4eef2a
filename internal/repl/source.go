package repl

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ode"
	"ode/internal/wire"
)

// SourceOptions tunes the primary side of replication.
type SourceOptions struct {
	// HeartbeatEvery is the idle-stream heartbeat interval (default 1s).
	// Heartbeats carry the primary's epoch and LSN, so a quiet stream
	// still proves the primary alive and keeps replicas' lag gauges and
	// fencing epochs current.
	HeartbeatEvery time.Duration
	// Logf, when set, receives one line per source-initiated subscriber
	// drop and resync demand.
	Logf func(format string, args ...any)
}

const (
	// maxRetainBytes bounds how much WAL the retention gate will keep
	// for lagging subscribers. Past the bound a checkpoint truncates
	// anyway: a stalled replica must not hold the primary's log
	// hostage, and will be forced into a full resync when it returns.
	maxRetainBytes = 256 << 20
	// queueFrames bounds the per-subscriber in-flight frame queue. A
	// subscriber that falls further behind than the queue is dropped
	// and must reconnect (catching up from the WAL, or resyncing).
	queueFrames = 4096
	// snapshotOps is the operation count per synthetic snapshot batch.
	snapshotOps = 64
)

func (o *SourceOptions) withDefaults() SourceOptions {
	var out SourceOptions
	if o != nil {
		out = *o
	}
	if out.HeartbeatEvery <= 0 {
		out.HeartbeatEvery = time.Second
	}
	return out
}

// shipFrame is one committed batch queued for a subscriber.
type shipFrame struct {
	lsn uint64
	raw []byte
}

// subscriber is the source-side state of one connected replica.
type subscriber struct {
	ch     chan shipFrame
	done   chan struct{} // closed to drop the subscriber
	once   sync.Once
	reason string        // why the source killed it ("" if it wasn't the source)
	floor  uint64        // registration LSN: the backlog/snapshot covers everything ≤ floor
	acked  atomic.Uint64 // last LSN the replica acknowledged applying
	queued atomic.Int64  // bytes sitting in ch
}

func (sub *subscriber) kill(reason string) {
	sub.once.Do(func() {
		sub.reason = reason
		close(sub.done)
	})
}

func (sub *subscriber) killed() bool {
	select {
	case <-sub.done:
		return true
	default:
		return false
	}
}

// Source is the primary side of replication: it fans every committed
// batch out to connected subscribers and gates WAL truncation so a
// briefly-lagging subscriber can catch up from the log instead of
// resyncing. A Source is attached to every served database (a replica
// carries one too, for cascading and for life after promotion).
type Source struct {
	db   *ode.DB
	met  *Metrics
	opts SourceOptions

	// Lock order: the engine commit lock and its announcer lock are
	// always taken before mu (the retention gate runs under the commit
	// lock, fanout under the announcer lock, and both acquire mu;
	// nothing under mu re-enters the engine).
	mu       sync.Mutex
	subs     map[*subscriber]struct{}
	lastKill string        // most recent source-initiated drop/resync cause
	ackGen   chan struct{} // closed and replaced whenever an ack lands (WaitAcked wakeup)
}

// NewSource attaches a replication source to db, installing the
// commit fan-out and the WAL retention gate. Attach before serving
// traffic. met may be nil for an unregistered metric set.
func NewSource(db *ode.DB, met *Metrics, opts *SourceOptions) *Source {
	if met == nil {
		met = &Metrics{}
	}
	s := &Source{
		db:     db,
		met:    met,
		opts:   opts.withDefaults(),
		subs:   make(map[*subscriber]struct{}),
		ackGen: make(chan struct{}),
	}
	db.OnCommitBatch(s.fanout)
	db.SetWALRetention(s.retain)
	met.LSN.Set(int64(db.LSN()))
	met.Epoch.Set(int64(db.Epoch()))
	return s
}

// Close drops every connected subscriber and detaches the source's
// hooks from the database.
func (s *Source) Close() {
	s.db.WithCommitLock(func() error {
		s.db.OnCommitBatch(nil)
		return nil
	})
	s.db.SetWALRetention(nil)
	s.mu.Lock()
	for sub := range s.subs {
		sub.kill("source shutting down")
	}
	s.mu.Unlock()
}

// noteKill records a source-initiated drop or resync demand: the
// metric, the last-kill cause CmdReplStatus reports, and a log line.
// Callers hold s.mu.
func (s *Source) noteKill(reason string) {
	s.met.SubscriberKills.Inc()
	s.lastKill = reason
	if s.opts.Logf != nil {
		s.opts.Logf("repl: dropped subscriber: %s", reason)
	}
}

// LastKill returns the cause of the most recent source-initiated
// subscriber drop or resync demand ("" if there has been none).
func (s *Source) LastKill() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastKill
}

// ackArrived wakes every WaitAcked waiter to re-check its quorum.
func (s *Source) ackArrived() {
	s.mu.Lock()
	close(s.ackGen)
	s.ackGen = make(chan struct{})
	s.mu.Unlock()
}

// ackedCount returns the live subscribers that have acknowledged
// applying lsn, and the current wakeup channel (closed on the next
// ack). Checking the count after taking the channel makes the
// check-then-wait race-free.
func (s *Source) ackedCount(lsn uint64) (int, <-chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for sub := range s.subs {
		if !sub.killed() && sub.acked.Load() >= lsn {
			n++
		}
	}
	return n, s.ackGen
}

// WaitAcked blocks until quorum live subscribers have acknowledged
// applying lsn, or timeout elapses. The server's semi-synchronous
// commit gate (Options.CommitAckQuorum) calls it after local
// durability; quorum <= 0 returns immediately. On timeout the commit
// is durable locally but unacknowledged — the caller surfaces that as
// a retryable ambiguity, not a rollback.
func (s *Source) WaitAcked(lsn uint64, quorum int, timeout time.Duration) error {
	if quorum <= 0 {
		return nil
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		n, wake := s.ackedCount(lsn)
		if n >= quorum {
			return nil
		}
		select {
		case <-wake:
		case <-deadline.C:
			return fmt.Errorf("repl: %d replica ack(s) of lsn %d not received within %v (have %d): %w",
				quorum, lsn, timeout, n, ode.ErrTxTimeout)
		}
	}
}

// fanout runs in strict LSN order after every committed batch is
// durable and applied (the engine's announcer; with group commit that
// is outside the commit lock) and queues the batch for each live
// subscriber past its registration floor.
func (s *Source) fanout(lsn uint64, raw []byte) {
	s.met.LSN.Set(int64(lsn))
	s.mu.Lock()
	defer s.mu.Unlock()
	minAcked := lsn
	var maxQueued int64
	for sub := range s.subs {
		if sub.killed() {
			continue
		}
		if lsn <= sub.floor {
			// Announced after the subscriber registered but already
			// covered by its backlog or snapshot (the registration ran
			// under the commit lock at floor ≥ lsn); shipping it again
			// would duplicate the batch.
			continue
		}
		select {
		case sub.ch <- shipFrame{lsn, raw}:
			sub.queued.Add(int64(len(raw)))
		default:
			// The replica is further behind than the whole queue; drop
			// it rather than stall commits or buffer without bound. It
			// reconnects and catches up from the WAL (or resyncs).
			reason := fmt.Sprintf("queue overflow at lsn %d: replica %d frames behind (acked %d)",
				lsn, queueFrames, sub.acked.Load())
			sub.kill(reason)
			s.noteKill(reason)
			continue
		}
		if a := sub.acked.Load(); a < minAcked {
			minAcked = a
		}
		if q := sub.queued.Load(); q > maxQueued {
			maxQueued = q
		}
	}
	s.met.LagLSN.Set(int64(lsn - minAcked))
	s.met.LagBytes.Set(maxQueued)
}

// retain is the checkpoint truncation gate: keep the WAL while a live
// subscriber still needs batches from it, up to maxRetainBytes.
func (s *Source) retain(lsn uint64) bool {
	if s.db.WALSize() >= maxRetainBytes {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for sub := range s.subs {
		if !sub.killed() && sub.acked.Load() < lsn {
			return true
		}
	}
	return false
}

func (s *Source) register(sub *subscriber) {
	s.mu.Lock()
	s.subs[sub] = struct{}{}
	s.met.Subscribers.Set(int64(len(s.subs)))
	s.mu.Unlock()
}

func (s *Source) unregister(sub *subscriber) {
	sub.kill("")
	s.mu.Lock()
	delete(s.subs, sub)
	s.met.Subscribers.Set(int64(len(s.subs)))
	s.mu.Unlock()
}

// errSubscriberDropped ends a subscriber stream the source killed
// (queue overflow or source shutdown).
var errSubscriberDropped = errors.New("repl: subscriber dropped (queue overflow or source shutdown)")

// epochServiceable reports whether a subscriber's (epoch, lsn) pair can
// be served by WAL replay. Same epoch: yes, ordinary position check.
// Exactly one epoch behind with a position at or before the promotion
// boundary: yes — everything the subscriber holds predates the
// promotion, so its history cannot have diverged, and the replayed
// frames (stamped with the current epoch) carry it across the boundary.
// One epoch behind but past the boundary means the subscriber holds
// batches committed under a deposed primary's fork; two or more epochs
// behind cannot be validated without full epoch history. Both force a
// resync — conservative, never wrong.
func epochServiceable(reqEpoch, reqLSN, srcEpoch, srcEpochLSN uint64) bool {
	if reqEpoch == srcEpoch {
		return true
	}
	return reqEpoch+1 == srcEpoch && reqLSN <= srcEpochLSN
}

// ServeSubscriber takes over a server connection after a
// CmdWALSubscribe request and streams WAL frames on it until the
// subscriber disconnects, falls too far behind, or the source closes.
// The caller (the network server) must have flushed its own write
// buffer first; all subsequent I/O on the connection belongs to the
// stream. The return is the reason the stream ended; the caller just
// closes the connection.
//
// The position logic, under the commit lock so it is exact:
//
//   - Same replication id and every batch after req.LSN still in the
//     WAL: catch up from the log, then stream live.
//   - Otherwise, if the subscriber is empty (CanSnapshot): full fuzzy
//     snapshot at the current LSN, then stream live.
//   - Otherwise: a typed resync error — the replica must wipe.
func (s *Source) ServeSubscriber(nc net.Conn, br *bufio.Reader, reqID uint64, req *wire.SubscribeReq) error {
	bw := bufio.NewWriter(nc)
	sub := &subscriber{
		ch:   make(chan shipFrame, queueFrames),
		done: make(chan struct{}),
	}
	var (
		backlog     []shipFrame
		needSnap    bool
		startLSN    uint64
		srcEpoch    uint64
		srcEpochLSN uint64
	)
	err := s.db.WithCommitLock(func() error {
		// With group commit, the live LSN can include batches whose
		// shared fsync has not returned yet. Force durability before
		// advertising a position: a subscriber must never be told it
		// holds batches the primary could still lose.
		if err := s.db.SyncWAL(); err != nil {
			return err
		}
		cur, base := s.db.LSN(), s.db.WALBaseLSN()
		srcEpoch, srcEpochLSN = s.db.Epoch(), s.db.EpochStartLSN()
		switch {
		case req.Epoch > srcEpoch:
			// The subscriber has seen a promotion this node has not:
			// this node is the deposed one, and feeding its fork to a
			// newer-epoch follower would corrupt the group.
			return fmt.Errorf("%w: subscriber at epoch %d, this node still at %d",
				ode.ErrStaleEpoch, req.Epoch, srcEpoch)
		case req.ReplID == s.db.ReplicationID() && req.LSN >= base && req.LSN <= cur &&
			epochServiceable(req.Epoch, req.LSN, srcEpoch, srcEpochLSN):
			startLSN = req.LSN
			if req.LSN < cur {
				if err := s.db.ReadWALBatches(func(lsn uint64, raw []byte) error {
					if lsn > req.LSN {
						backlog = append(backlog, shipFrame{lsn, append([]byte(nil), raw...)})
					}
					return nil
				}); err != nil {
					return err
				}
			}
		case req.CanSnapshot:
			needSnap = true
			startLSN = cur
		default:
			err := fmt.Errorf("%w: subscriber id=%q lsn=%d epoch=%d, primary id=%q wal=(%d,%d] epoch=%d since lsn %d",
				wire.ErrResync, req.ReplID, req.LSN, req.Epoch,
				s.db.ReplicationID(), base, cur, srcEpoch, srcEpochLSN)
			s.met.Resyncs.Inc()
			s.mu.Lock()
			s.lastKill = err.Error()
			s.mu.Unlock()
			if s.opts.Logf != nil {
				s.opts.Logf("repl: demanded resync: %v", err)
			}
			return err
		}
		// Register under the commit lock: live frames on sub.ch start
		// exactly at cur+1, with no gap after the backlog/snapshot (no
		// new batch can stage while the lock is held) and no duplicate
		// (late announcements of batches ≤ cur stop at the floor).
		//
		// A snapshot subscriber holds *nothing* yet: its acked position
		// must start at 0, not the dump LSN, or it would satisfy the
		// semi-synchronous commit quorum (WaitAcked) the instant it
		// registered — before a single byte shipped — and a primary
		// death mid-dump would lose a commit the client saw acked. It
		// counts once it acks the completed dump. An incremental
		// subscriber's req.LSN is genuinely applied on its side, so that
		// position counts immediately.
		sub.floor = cur
		if needSnap {
			sub.acked.Store(0)
		} else {
			sub.acked.Store(startLSN)
		}
		s.register(sub)
		return nil
	})
	if err != nil {
		writeFrame(bw, reqID, wire.RespErr, wire.ErrBody(wire.Code(err), err.Error()))
		bw.Flush()
		return err
	}
	defer s.unregister(sub)

	// Accept: the subscriber learns the position the stream starts from
	// and the epoch it is served under.
	st := &wire.ReplStatus{
		ReadOnly: s.db.ReadOnly(),
		ReplID:   s.db.ReplicationID(),
		LSN:      startLSN,
		Epoch:    srcEpoch,
		EpochLSN: srcEpochLSN,
		LastKill: s.LastKill(),
	}
	if err := writeFrame(bw, reqID, wire.RespReplStatus, st.Append(nil)); err != nil {
		return err
	}
	if needSnap {
		s.met.Snapshots.Inc()
		if err := writeFrame(bw, reqID, wire.RespWALSnapBegin, wire.SnapBody(s.db.ReplicationID(), startLSN)); err != nil {
			return err
		}
		err := s.db.SnapshotBatches(snapshotOps, func(raw []byte) error {
			s.met.FramesShipped.Inc()
			s.met.BytesShipped.Add(uint64(len(raw)))
			return writeFrame(bw, reqID, wire.RespWALFrame, wire.WALFrameBody(0, srcEpoch, raw))
		})
		if err != nil {
			return err
		}
		if err := writeFrame(bw, reqID, wire.RespWALSnapEnd, wire.SnapBody(s.db.ReplicationID(), startLSN)); err != nil {
			return err
		}
	}
	for _, f := range backlog {
		s.met.FramesShipped.Inc()
		s.met.BytesShipped.Add(uint64(len(f.raw)))
		if err := writeFrame(bw, reqID, wire.RespWALFrame, wire.WALFrameBody(f.lsn, srcEpoch, f.raw)); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}

	// Ack reader: the only frames a subscriber sends after subscribing
	// are CmdWALAck (applied LSN). A read failure means the connection
	// is gone.
	connDead := make(chan error, 1)
	go func() {
		for {
			f, _, err := wire.ReadFrame(br, 0)
			if err != nil {
				connDead <- err
				return
			}
			if f.Type != wire.CmdWALAck {
				continue
			}
			d := wire.NewDec(f.Body)
			lsn := d.Uvarint()
			if d.Err() == nil {
				sub.acked.Store(lsn)
				s.met.Acks.Inc()
				s.ackArrived()
			}
		}
	}()

	hb := time.NewTicker(s.opts.HeartbeatEvery)
	defer hb.Stop()
	for {
		select {
		case f := <-sub.ch:
			sub.queued.Add(-int64(len(f.raw)))
			if err := writeFrame(bw, reqID, wire.RespWALFrame, wire.WALFrameBody(f.lsn, s.db.Epoch(), f.raw)); err != nil {
				return err
			}
			s.met.FramesShipped.Inc()
			s.met.BytesShipped.Add(uint64(len(f.raw)))
			if len(sub.ch) == 0 {
				if err := bw.Flush(); err != nil {
					return err
				}
			}
		case <-hb.C:
			// Liveness on an idle stream: the replica's failure detector
			// resets its window on any frame, and the epoch keeps a
			// long-quiet follower fenced.
			body := wire.HeartbeatBody(s.db.Epoch(), s.db.EpochStartLSN(), s.db.LSN())
			if err := writeFrame(bw, reqID, wire.RespWALHeartbeat, body); err != nil {
				return err
			}
			if err := bw.Flush(); err != nil {
				return err
			}
			s.met.HeartbeatsSent.Inc()
		case <-sub.done:
			if sub.reason != "" {
				return fmt.Errorf("%w: %s", errSubscriberDropped, sub.reason)
			}
			return errSubscriberDropped
		case err := <-connDead:
			if errors.Is(err, io.EOF) {
				return nil // subscriber went away cleanly
			}
			return err
		}
	}
}

func writeFrame(w io.Writer, reqID uint64, typ byte, body []byte) error {
	_, err := wire.WriteFrame(w, &wire.Frame{ReqID: reqID, Type: typ, Body: body})
	return err
}
