package repl

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"ode"
	"ode/internal/wal"
	"ode/internal/wire"
)

// ErrResyncRequired reports a subscription the primary cannot serve
// from this replica's position: different replication id (not a copy
// of that database), batches truncated past the replica's LSN, or a
// replica ahead of the primary (split brain). The local copy must be
// wiped and bootstrapped from a full snapshot; ode-server does that
// when started with -resync.
var ErrResyncRequired = wire.ErrResync

// ReplicaOptions tunes the follower side of replication.
type ReplicaOptions struct {
	// DialTimeout bounds connect plus handshake (default 5s).
	DialTimeout time.Duration
	// Backoff is the first reconnect delay (default 100ms); it doubles
	// per failed attempt up to MaxBackoff (default 5s).
	Backoff    time.Duration
	MaxBackoff time.Duration
	// HeartbeatTimeout is the longest silence tolerated on the stream
	// before the connection is declared dead and redialed (default 15s).
	// The primary heartbeats every SourceOptions.HeartbeatEvery, so a
	// healthy stream is never silent that long; keep this several
	// multiples of the heartbeat interval.
	HeartbeatTimeout time.Duration
}

func (o *ReplicaOptions) withDefaults() ReplicaOptions {
	var out ReplicaOptions
	if o != nil {
		out = *o
	}
	if out.DialTimeout <= 0 {
		out.DialTimeout = 5 * time.Second
	}
	if out.Backoff <= 0 {
		out.Backoff = 100 * time.Millisecond
	}
	if out.MaxBackoff <= 0 {
		out.MaxBackoff = 5 * time.Second
	}
	if out.HeartbeatTimeout <= 0 {
		out.HeartbeatTimeout = 15 * time.Second
	}
	return out
}

// Replica follows a primary: it subscribes at its current LSN, applies
// every shipped batch through DB.ApplyReplicatedBatch (durable in the
// local WAL before visible), and acknowledges the applied position.
// The local database is held read-only from Start until Promote.
//
// Lost connections reconnect with exponential backoff — the replica
// resubscribes at its new LSN and the primary replays the gap from its
// WAL. Two failures are fatal and stop the loop instead: a position
// the primary cannot serve (ErrResyncRequired — the copy must be
// wiped) and a local apply error (the local store is suspect; restart
// recovery must sort it out). Err reports the fatal error after Done.
type Replica struct {
	db   *ode.DB
	addr string
	met  *Metrics
	opts ReplicaOptions

	mu      sync.Mutex
	conn    net.Conn // live connection, closed by Stop to unblock reads
	stopped bool
	err     error

	stop chan struct{}
	done chan struct{}
}

// NewReplica prepares a replica of the primary at addr. met may be nil
// for an unregistered metric set.
func NewReplica(db *ode.DB, addr string, met *Metrics, opts *ReplicaOptions) *Replica {
	if met == nil {
		met = &Metrics{}
	}
	return &Replica{
		db:   db,
		addr: addr,
		met:  met,
		opts: opts.withDefaults(),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
}

// replConn is one subscribed connection to the primary.
type replConn struct {
	nc net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

// Start switches the database read-only, connects, and subscribes. A
// rejected position returns ErrResyncRequired synchronously (wipe the
// local copy and call Start again on a fresh database); any other
// connect failure is returned for the caller to retry. On success the
// streaming loop runs until Stop, Promote, or a fatal error.
//
// Stop the replica before closing its database.
func (r *Replica) Start() error {
	r.db.SetReadOnly(true)
	c, err := r.connect()
	if err != nil {
		return err
	}
	go r.loop(c)
	return nil
}

// Stop terminates the streaming loop and waits for it. Idempotent;
// the database stays read-only.
func (r *Replica) Stop() {
	r.mu.Lock()
	started := r.conn != nil || r.stopped
	if !r.stopped {
		r.stopped = true
		close(r.stop)
	}
	if r.conn != nil {
		r.conn.Close()
	}
	r.mu.Unlock()
	if started {
		<-r.done
	}
}

// Promote stops following, durably bumps the fencing epoch, and opens
// the local database for writes, returning the new epoch. The epoch
// bump lands on disk before the first write is possible, so even a
// promote-then-crash leaves the node fenced above its old primary. The
// old primary's unreplicated tail (if any) is forked history: it will
// be fenced out by the new epoch and can only rejoin by resync.
func (r *Replica) Promote() (uint64, error) {
	r.Stop()
	return PromoteDB(r.db, r.met)
}

// PromoteDB turns db writable at a freshly bumped fencing epoch,
// without a running replica: the election winner of a node that booted
// read-only (seeking its group's primary) promotes through here. met
// may be nil for an unregistered metric set.
func PromoteDB(db *ode.DB, met *Metrics) (uint64, error) {
	if met == nil {
		met = &Metrics{}
	}
	epoch, err := db.BumpEpoch()
	if err != nil {
		return 0, err
	}
	// Activations shipped to this node were never indexed: the first
	// local commit must see every armed trigger. A database that was
	// already writable kept its index current through the commit hooks.
	if db.ReadOnly() {
		if err := db.Triggers().Reload(); err != nil {
			return 0, err
		}
	}
	db.SetReadOnly(false)
	met.Promotions.Inc()
	met.Epoch.Set(int64(epoch))
	return epoch, nil
}

// adopt records a higher epoch learned from the primary (accept,
// heartbeat, or frame), durably, and mirrors it into the epoch gauge.
func (r *Replica) adopt(epoch, startLSN uint64) error {
	if epoch <= r.db.Epoch() {
		return nil
	}
	if err := r.db.AdoptEpoch(epoch, startLSN); err != nil {
		return err
	}
	r.met.Epoch.Set(int64(r.db.Epoch()))
	return nil
}

// Addr is the primary this replica follows.
func (r *Replica) Addr() string { return r.addr }

// Done is closed when the streaming loop has exited.
func (r *Replica) Done() <-chan struct{} { return r.done }

// Err returns the fatal error that stopped the loop, or nil after a
// clean Stop. Meaningful once Done is closed.
func (r *Replica) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

func (r *Replica) setErr(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
}

func (r *Replica) stopping() bool {
	select {
	case <-r.stop:
		return true
	default:
		return false
	}
}

func (r *Replica) setConn(nc net.Conn) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped {
		return false
	}
	r.conn = nc
	return true
}

// connect dials the primary and subscribes at the local position. The
// returned connection has consumed the accept frame and delivers WAL
// frames next.
func (r *Replica) connect() (*replConn, error) {
	nc, err := net.DialTimeout("tcp", r.addr, r.opts.DialTimeout)
	if err != nil {
		return nil, err
	}
	nc.SetDeadline(time.Now().Add(r.opts.DialTimeout))
	if err := wire.WriteHello(nc, wire.Version, 0); err != nil {
		nc.Close()
		return nil, err
	}
	v, _, err := wire.ReadHello(nc)
	if err != nil {
		nc.Close()
		return nil, err
	}
	if v != wire.Version {
		nc.Close()
		return nil, fmt.Errorf("%w: primary speaks version %d, replica %d", wire.ErrVersion, v, wire.Version)
	}
	c := &replConn{nc: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc)}
	// Subscribe at the local position and epoch. Only a virgin database
	// (nothing ever committed or applied) accepts a full snapshot:
	// overlaying a fuzzy dump onto existing state cannot undo local
	// deletes.
	req := &wire.SubscribeReq{
		ReplID:      r.db.ReplicationID(),
		LSN:         r.db.LSN(),
		CanSnapshot: r.db.LSN() == 0,
		Epoch:       r.db.Epoch(),
	}
	if err := writeFrame(c.bw, 1, wire.CmdWALSubscribe, req.Append(nil)); err != nil {
		nc.Close()
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		nc.Close()
		return nil, err
	}
	f, _, err := wire.ReadFrame(c.br, wire.DefaultMaxFrame)
	if err != nil {
		nc.Close()
		return nil, err
	}
	switch f.Type {
	case wire.RespReplStatus:
		// Accepted; the body's LSN is where the stream starts, and the
		// body's epoch is the primary's — adopt it (durably) before any
		// frame applies, so a crash mid-catchup cannot resurrect this
		// node at the pre-promotion epoch.
		st, err := wire.DecodeReplStatus(f.Body)
		if err != nil {
			nc.Close()
			return nil, err
		}
		if err := r.adopt(st.Epoch, st.EpochLSN); err != nil {
			nc.Close()
			return nil, &fatalError{err}
		}
	case wire.RespErr:
		nc.Close()
		return nil, wire.DecodeErrBody(f.Body)
	default:
		nc.Close()
		return nil, fmt.Errorf("%w: unexpected subscribe response 0x%02x", wire.ErrProto, f.Type)
	}
	nc.SetDeadline(time.Time{})
	if !r.setConn(nc) {
		nc.Close()
		return nil, errors.New("repl: replica stopped")
	}
	return c, nil
}

// fatalError marks a stream failure the reconnect loop must not retry.
type fatalError struct{ err error }

func (e *fatalError) Error() string { return e.err.Error() }
func (e *fatalError) Unwrap() error { return e.err }

// loop streams until Stop or a fatal error, reconnecting across
// connection failures.
func (r *Replica) loop(c *replConn) {
	defer close(r.done)
	backoff := r.opts.Backoff
	for {
		err := r.stream(c)
		c.nc.Close()
		if r.stopping() {
			return
		}
		var fatal *fatalError
		if errors.As(err, &fatal) {
			r.setErr(fatal.err)
			return
		}
		// Connection-level failure: reconnect with backoff from the
		// current (advanced) LSN.
		for {
			select {
			case <-r.stop:
				return
			case <-time.After(backoff):
			}
			r.met.Reconnects.Inc()
			c2, err := r.connect()
			if err == nil {
				c = c2
				backoff = r.opts.Backoff
				break
			}
			if errors.Is(err, ErrResyncRequired) || errors.Is(err, ode.ErrStaleEpoch) {
				r.setErr(err)
				return
			}
			if errors.As(err, &fatal) {
				r.setErr(fatal.err)
				return
			}
			if backoff *= 2; backoff > r.opts.MaxBackoff {
				backoff = r.opts.MaxBackoff
			}
		}
	}
}

// stream reads and applies frames from one connection until it fails
// (reconnectable) or a fatal condition ends the replica.
func (r *Replica) stream(c *replConn) error {
	var (
		inSnap  bool
		snapID  string
		snapLSN uint64
	)
	for {
		// The primary heartbeats HeartbeatEvery; a stream silent for the
		// whole timeout is a dead or partitioned connection, and the
		// deadline turns it into a reconnectable read error instead of a
		// hang.
		c.nc.SetReadDeadline(time.Now().Add(r.opts.HeartbeatTimeout))
		f, _, err := wire.ReadFrame(c.br, wire.DefaultMaxFrame)
		if err != nil {
			return err
		}
		switch f.Type {
		case wire.RespWALFrame:
			lsn, epoch, raw, err := wire.DecodeWALFrame(f.Body)
			if err != nil {
				return err
			}
			if local := r.db.Epoch(); epoch < local {
				// A deposed primary is still shipping. Refuse the frame
				// without applying — the applied LSN must not advance
				// into fenced history — and end the stream for good; the
				// owner decides whether to re-point or resync.
				r.met.StaleEpochRejects.Inc()
				return &fatalError{fmt.Errorf("%w: WAL frame lsn=%d at epoch %d, local epoch %d",
					ode.ErrStaleEpoch, lsn, epoch, local)}
			} else if epoch > local && lsn > 0 {
				// The primary was promoted mid-stream. The stream is
				// gap-free, so the first frame stamped with the new
				// epoch marks the promotion boundary at the previous
				// position.
				if err := r.adopt(epoch, lsn-1); err != nil {
					return &fatalError{err}
				}
			}
			if lsn == 0 && !inSnap {
				return &fatalError{fmt.Errorf("%w: snapshot frame outside a snapshot", wire.ErrProto)}
			}
			if err := r.db.ApplyReplicatedBatch(lsn, raw); err != nil {
				if errors.Is(err, wal.ErrLSNGap) {
					// The stream skipped a batch (source-side drop racing
					// the kill). Reconnecting resubscribes at the exact
					// local position and the primary replays the gap from
					// its WAL — self-healing, not fatal.
					return err
				}
				// The local store is suspect; restart recovery must sort
				// it out.
				return &fatalError{err}
			}
			r.met.FramesApplied.Inc()
			r.met.BytesApplied.Add(uint64(len(raw)))
			if lsn != 0 {
				r.met.LSN.Set(int64(lsn))
				if err := r.ack(c, lsn); err != nil {
					return err
				}
			}
		case wire.RespWALSnapBegin:
			snapID, snapLSN, err = wire.DecodeSnapBody(f.Body)
			if err != nil {
				return err
			}
			inSnap = true
		case wire.RespWALSnapEnd:
			if !inSnap {
				return &fatalError{fmt.Errorf("%w: snapshot end without begin", wire.ErrProto)}
			}
			// The dump is fully applied: adopt the primary's identity
			// and position; live frames continue from snapLSN+1.
			if err := r.db.CompleteResync(snapLSN, snapID); err != nil {
				return &fatalError{err}
			}
			inSnap = false
			r.met.Snapshots.Inc()
			r.met.LSN.Set(int64(snapLSN))
			if err := r.ack(c, snapLSN); err != nil {
				return err
			}
		case wire.RespWALHeartbeat:
			epoch, epochLSN, lsn, err := wire.DecodeHeartbeat(f.Body)
			if err != nil {
				return err
			}
			if local := r.db.Epoch(); epoch < local {
				r.met.StaleEpochRejects.Inc()
				return &fatalError{fmt.Errorf("%w: heartbeat at epoch %d, local epoch %d",
					ode.ErrStaleEpoch, epoch, local)}
			}
			if err := r.adopt(epoch, epochLSN); err != nil {
				return &fatalError{err}
			}
			r.met.HeartbeatsRecv.Inc()
			if local := r.db.LSN(); lsn >= local {
				r.met.LagLSN.Set(int64(lsn - local))
			}
		case wire.RespErr:
			// Mid-stream server error (e.g. the source dropped us for
			// lagging): reconnect unless it is a resync demand or an
			// epoch fence.
			err := wire.DecodeErrBody(f.Body)
			if errors.Is(err, ErrResyncRequired) || errors.Is(err, ode.ErrStaleEpoch) {
				return &fatalError{err}
			}
			return err
		default:
			return fmt.Errorf("%w: unexpected stream frame 0x%02x", wire.ErrProto, f.Type)
		}
	}
}

// ack reports the applied LSN to the primary (flow control and
// WAL-retention input; not a durability wait — shipping stays
// asynchronous).
func (r *Replica) ack(c *replConn, lsn uint64) error {
	if err := writeFrame(c.bw, 1, wire.CmdWALAck, wire.AppendUvarint(nil, lsn)); err != nil {
		return err
	}
	return c.bw.Flush()
}
