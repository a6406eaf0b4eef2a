// Package server is the network front end of an Ode database: a TCP
// listener speaking the internal/wire protocol, one goroutine and one
// session per connection, a bounded session table that sheds overload
// with typed wire errors, and a graceful drain on shutdown that mirrors
// DB.Close semantics (active transactions get a window, then their
// contexts are canceled).
//
// A connection owns at most one transaction at a time (as an embedded
// Tx is owned by one goroutine); concurrency comes from connections.
// Client transaction deadlines arrive with CmdBegin and are mapped
// onto DB.BeginCtx, so admission control, lock-wait deadlines, and
// scan-boundary cancellation all behave exactly as they do embedded —
// the typed rejections travel back as wire error codes.
//
// docs/SERVER.md describes the deployment surface and failure
// semantics; docs/OBSERVABILITY.md documents the server.* metrics.
package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ode"
	"ode/internal/core"
	"ode/internal/object"
	"ode/internal/obs"
	"ode/internal/oql"
	"ode/internal/repl"
	"ode/internal/wire"
)

// Options configures a Server.
type Options struct {
	// MaxConns bounds the session table (default 256). Connections
	// beyond the bound complete the handshake and are then shed with a
	// typed ErrOverloaded wire error, so a flooded server degrades to
	// fast rejection, mirroring transaction admission control.
	MaxConns int
	// MaxDeadline clamps client-requested transaction deadlines; 0
	// leaves them unclamped. A client that requests none gets
	// MaxDeadline when set (every served transaction then has a bound).
	MaxDeadline time.Duration
	// DrainTimeout bounds Close's graceful drain (default 5s): active
	// connections get this long to finish their in-flight request and
	// transaction, then their contexts are canceled and sockets closed.
	DrainTimeout time.Duration
	// Repl, when set, serves CmdWALSubscribe streams: replicas of this
	// database subscribe here. Without it, subscription requests are
	// rejected as protocol errors.
	Repl *repl.Source
	// CommitAckQuorum, when > 0 with Repl set, makes commits
	// semi-synchronous: the RespOK for a commit waits until that many
	// subscribed replicas have acknowledged applying its LSN. With a
	// quorum of the group acking every commit, a failover election that
	// requires the same quorum reachable provably includes a node
	// holding every acknowledged write.
	CommitAckQuorum int
	// AckTimeout bounds the semi-synchronous ack wait (default 2s).
	// On expiry the commit is durable locally but unacknowledged; the
	// client gets a retryable ErrTxTimeout-wrapped error and must treat
	// the outcome as ambiguous (see docs/REPLICATION.md).
	AckTimeout time.Duration
	// Advertise is the address peers reach this node at, reported in
	// repl-status as the node's stable election identity (monitors rank
	// tie-broken candidates by it, so it must be configured identically
	// across restarts). Empty is fine for single-node serving.
	Advertise string
	// Promote, when set, handles CmdPromote (the remote form of
	// SIGUSR1 on ode-server): it should detach the node from its
	// primary and open it for writes. Without it, promote requests are
	// rejected as protocol errors.
	Promote func() error
	// Logf, when set, receives connection-level diagnostics.
	Logf func(format string, args ...any)
}

func (o *Options) withDefaults() Options {
	var out Options
	if o != nil {
		out = *o
	}
	if out.MaxConns <= 0 {
		out.MaxConns = 256
	}
	if out.DrainTimeout <= 0 {
		out.DrainTimeout = 5 * time.Second
	}
	if out.AckTimeout <= 0 {
		out.AckTimeout = 2 * time.Second
	}
	return out
}

// Server serves one database over TCP.
type Server struct {
	db   *ode.DB
	opts Options
	met  *Metrics

	mu      sync.Mutex
	ln      net.Listener
	conns   map[*conn]struct{}
	closing atomic.Bool
	done    chan struct{}
	wg      sync.WaitGroup

	// oqlMu serializes remote O++ execution across connections: class
	// declarations mutate the shared schema, and the shell path is
	// interactive, so a server-wide critical section is the simple,
	// safe choice.
	oqlMu sync.Mutex
}

// New builds a server over an open database and registers the server.*
// metrics into the database's registry, so a database has at most one
// Server.
func New(db *ode.DB, opts *Options) *Server {
	s := &Server{
		db:    db,
		opts:  opts.withDefaults(),
		met:   &Metrics{},
		conns: make(map[*conn]struct{}),
		done:  make(chan struct{}),
	}
	s.met.Attach(db.MetricsRegistry())
	return s
}

// Metrics exposes the live server metric set.
func (s *Server) Metrics() *Metrics { return s.met }

// DB returns the served database.
func (s *Server) DB() *ode.DB { return s.db }

// ErrServerClosed is returned by Serve after Close.
var ErrServerClosed = errors.New("server: closed")

// ListenAndServe listens on addr and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Listen binds addr and returns the listener's address; call Serve on
// the result. It exists so callers can bind :0 and learn the port
// before serving.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	return ln.Addr(), nil
}

// Serve accepts connections on ln until Close. Passing nil serves the
// listener installed by Listen.
func (s *Server) Serve(ln net.Listener) error {
	if ln == nil {
		s.mu.Lock()
		ln = s.ln
		s.mu.Unlock()
		if ln == nil {
			return fmt.Errorf("server: Serve(nil) without Listen")
		}
	} else {
		s.mu.Lock()
		s.ln = ln
		s.mu.Unlock()
	}
	if s.closing.Load() {
		ln.Close()
		return ErrServerClosed
	}
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.closing.Load() {
				return ErrServerClosed
			}
			return err
		}
		s.met.ConnsTotal.Inc()
		c := &conn{s: s, nc: nc}
		// The closing check and wg.Add happen under s.mu as one step:
		// Close sets closing before taking s.mu to drain, so any accept
		// that gets past this check has already bumped the WaitGroup
		// before Close can reach wg.Wait (Add concurrent with Wait at a
		// zero counter is forbidden, and the goroutine would escape the
		// drain).
		s.mu.Lock()
		if s.closing.Load() {
			s.mu.Unlock()
			nc.Close()
			continue
		}
		full := len(s.conns) >= s.opts.MaxConns
		if !full {
			s.conns[c] = struct{}{}
			s.met.Conns.Set(int64(len(s.conns)))
		}
		s.wg.Add(1)
		s.mu.Unlock()
		if full {
			s.met.Sheds.Inc()
			go func() {
				defer s.wg.Done()
				s.shed(nc)
			}()
			continue
		}
		go func() {
			defer s.wg.Done()
			c.serve()
		}()
	}
}

// shed completes the handshake and rejects the connection with a typed
// overload error at request id 0 (a connection-level failure).
func (s *Server) shed(nc net.Conn) {
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(2 * time.Second))
	if _, _, err := wire.ReadHello(nc); err != nil {
		return
	}
	wire.WriteHello(nc, wire.Version, 0)
	n, _ := wire.WriteFrame(nc, &wire.Frame{
		ReqID: 0,
		Type:  wire.RespErr,
		Body:  wire.ErrBody(wire.CodeOverloaded, "server session table full"),
	})
	s.met.BytesOut.Add(uint64(n))
}

// Close stops accepting, drains active connections for DrainTimeout,
// then cancels their transaction contexts and closes their sockets.
// Idle connections are closed immediately. Safe to call repeatedly and
// concurrently; later calls wait for the first to finish.
func (s *Server) Close() error {
	if !s.closing.CompareAndSwap(false, true) {
		<-s.done
		return nil
	}
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	s.mu.Unlock()

	deadline := time.Now().Add(s.opts.DrainTimeout)
	for {
		s.mu.Lock()
		active := 0
		for c := range s.conns {
			if c.idle() {
				c.nc.Close() // kicks the blocked ReadFrame
			} else {
				active++
			}
		}
		s.mu.Unlock()
		if active == 0 || !time.Now().Before(deadline) {
			break
		}
		time.Sleep(200 * time.Microsecond)
	}
	// Force: cancel straggler transactions and close their sockets.
	s.mu.Lock()
	for c := range s.conns {
		c.force()
	}
	s.mu.Unlock()
	s.wg.Wait()
	close(s.done)
	return nil
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// conn is one client session: the socket, its buffered reader/writer,
// and at most one open transaction.
type conn struct {
	s    *Server
	nc   net.Conn
	br   *bufio.Reader     // over a connReader counting server.bytes_in
	fr   *wire.FrameReader // reused-buffer frame reads over br
	out  []byte            // response bytes, flushed once per request burst
	refs []wire.CachedRef  // reused deref-cached request entries

	// next is a frame a forall read while it waited for more: it ended
	// the scan, and the serve loop dispatches it without another read.
	next *wire.Frame
	// waited is how long the request in dispatch spent waiting for its
	// client (a forall between windows): time that is not the request's.
	waited time.Duration

	busy atomic.Bool // a request is being processed

	mu       sync.Mutex // guards tx/txCancel/paused against force()
	tx       *ode.Tx
	txCancel context.CancelFunc
	paused   bool // a forall waits for the client's next frame

	oqlSess *oql.Session
	oqlOut  bytes.Buffer
}

// connReader counts bytes into the server metric as frames are read.
type connReader struct {
	r   io.Reader
	met *obs.Counter
}

func (cr *connReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.met.Add(uint64(n))
	return n, err
}

// idle reports whether the connection can be closed without
// interrupting work: no in-flight request and no open transaction.
func (c *conn) idle() bool {
	if c.busy.Load() {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tx == nil
}

// force cancels the connection's transaction context (waking lock
// waits and scan boundaries) and closes the socket, which wakes a read.
// A session whose forall is paused between windows is told why first,
// at request id 0 (a connection-level failure), so its client fails with
// a typed error rather than a closed socket, whether it is still inside
// the forall or has stopped it and sent its next request: the session is
// blocked reading, so force is the only writer, and the short deadline
// keeps a client that reads nothing from holding up Close.
func (c *conn) force() {
	c.mu.Lock()
	if c.txCancel != nil {
		c.txCancel()
	}
	if c.paused {
		c.nc.SetWriteDeadline(time.Now().Add(100 * time.Millisecond))
		n, _ := wire.WriteFrame(c.nc, &wire.Frame{Type: wire.RespErr,
			Body: wire.ErrBody(wire.CodeDBClosed, "server closed while the forall waited for more")})
		c.s.met.BytesOut.Add(uint64(n))
	}
	c.mu.Unlock()
	c.nc.Close()
}

// setTx installs (or clears) the session transaction.
func (c *conn) setTx(tx *ode.Tx, cancel context.CancelFunc) {
	c.mu.Lock()
	c.tx, c.txCancel = tx, cancel
	c.mu.Unlock()
}

// sessionTx returns the open transaction, or nil.
func (c *conn) sessionTx() *ode.Tx {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tx
}

func (c *conn) serve() {
	defer func() {
		// A dropped connection aborts its transaction and releases its
		// locks; so does a shell session's ambient transaction.
		c.mu.Lock()
		tx, cancel := c.tx, c.txCancel
		c.tx, c.txCancel = nil, nil
		c.mu.Unlock()
		if tx != nil {
			tx.Abort()
		}
		if cancel != nil {
			cancel()
		}
		if c.oqlSess != nil {
			c.s.oqlMu.Lock()
			c.oqlSess.AbortTx()
			c.s.oqlMu.Unlock()
		}
		c.nc.Close()
		c.s.mu.Lock()
		delete(c.s.conns, c)
		c.s.met.Conns.Set(int64(len(c.s.conns)))
		c.s.mu.Unlock()
	}()

	// Handshake, bounded so a silent client cannot hold a table slot.
	c.nc.SetDeadline(time.Now().Add(5 * time.Second))
	v, _, err := wire.ReadHello(c.nc)
	if err != nil {
		return
	}
	if v != wire.Version {
		wire.WriteHello(c.nc, 0, 0) // version 0: rejected
		return
	}
	if err := wire.WriteHello(c.nc, wire.Version, 0); err != nil {
		return
	}
	c.nc.SetDeadline(time.Time{})

	c.br = bufio.NewReader(&connReader{r: c.nc, met: &c.s.met.BytesIn})
	c.fr = wire.NewFrameReader(c.br, wire.DefaultMaxFrame)
	for {
		// The frame (and its body) aliases the reader's reused buffer:
		// valid through dispatch, overwritten by the next Read. Handlers
		// decode bodies into their own copies (object.Decode and the
		// string readers copy), so nothing retains the alias. A frame a
		// paused forall read is dispatched next, with no read between.
		f := c.next
		c.next = nil
		if f == nil {
			var err error
			if f, _, err = c.fr.Read(); err != nil {
				if !sessionEnd(err) {
					c.s.logf("server: %s: read: %v", c.nc.RemoteAddr(), err)
				}
				return
			}
		}
		c.s.met.Requests.Inc()
		typ := f.Type // a forall's pause reads into f's buffer
		c.busy.Store(true)
		start := time.Now()
		c.waited = 0
		err := c.dispatch(f)
		// Pipelined clients write bursts of request frames; when more
		// requests are already buffered, hold the responses and write
		// the whole burst's replies in one send.
		if err == nil && c.br.Buffered() == 0 {
			err = c.flush()
		}
		c.s.met.latency(typ).Observe(time.Since(start) - c.waited)
		c.busy.Store(false)
		if err != nil {
			// A forall paused for more reads the socket too, so the
			// ordinary ends of a session can surface here as well.
			if !sessionEnd(err) {
				c.s.logf("server: %s: %s: %v", c.nc.RemoteAddr(), wire.CmdName(typ), err)
			}
			return
		}
	}
}

// sessionEnd reports whether a read error is an ordinary end of the
// session, not worth a log line: the client hung up, or force closed
// the socket.
func sessionEnd(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed)
}

// reply buffers one response frame, serialized straight into the
// connection's reused output buffer (no per-frame allocation).
func (c *conn) reply(reqID uint64, typ byte, body []byte) error {
	c.out = wire.AppendFrame(c.out, &wire.Frame{ReqID: reqID, Type: typ, Body: body})
	return nil
}

// flush writes the buffered response frames to the socket in one send.
func (c *conn) flush() error {
	if len(c.out) == 0 {
		return nil
	}
	n, err := c.nc.Write(c.out)
	c.s.met.BytesOut.Add(uint64(n))
	c.out = c.out[:0]
	return err
}

// replyErr buffers a typed error response.
func (c *conn) replyErr(reqID uint64, err error) error {
	return c.reply(reqID, wire.RespErr, wire.ErrBody(wire.Code(err), err.Error()))
}

// protoErr builds a protocol-violation error.
func protoErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", wire.ErrProto, fmt.Sprintf(format, args...))
}

// dispatch handles one request frame. The returned error is
// connection-fatal (write failures, malformed frames that leave the
// stream untrustworthy); request-level failures travel to the client
// as RespErr and return nil here.
func (c *conn) dispatch(f *wire.Frame) error {
	var err error
	switch f.Type {
	case wire.CmdPing:
		err = c.reply(f.ReqID, wire.RespOK, nil)
	case wire.CmdBegin:
		err = c.handleBegin(f)
	case wire.CmdCommit:
		err = c.handleCommit(f)
	case wire.CmdAbort:
		err = c.handleAbort(f)
	case wire.CmdPNew, wire.CmdUpdate:
		err = c.handleWrite(f)
	case wire.CmdDeref, wire.CmdPDelete, wire.CmdCurrentVersion, wire.CmdNewVersion,
		wire.CmdVersions:
		err = c.handleOID(f)
	case wire.CmdDerefCached:
		err = c.handleDerefCached(f)
	case wire.CmdDeleteVersion, wire.CmdDerefVersion:
		err = c.handleVRef(f)
	case wire.CmdForall:
		err = c.handleForall(f)
	case wire.CmdForallMore:
		err = c.replyErr(f.ReqID, protoErr("forall-more for request %d, which is not a paused forall", f.ReqID))
	case wire.CmdExplain:
		err = c.handleExplain(f)
	case wire.CmdOQL:
		err = c.handleOQL(f)
	case wire.CmdMetrics:
		err = c.handleMetrics(f)
	case wire.CmdWALSubscribe:
		err = c.handleSubscribe(f)
	case wire.CmdReplStatus:
		err = c.handleReplStatus(f)
	case wire.CmdPromote:
		err = c.handlePromote(f)
	case wire.CmdPrepare:
		err = c.handlePrepare(f)
	case wire.CmdCommitPrepared:
		err = c.handleCommitPrepared(f)
	case wire.CmdAbortPrepared:
		err = c.handleAbortPrepared(f)
	case wire.CmdTxStatus:
		err = c.handleTxStatus(f)
	case wire.CmdShardStatus:
		err = c.handleShardStatus(f)
	default:
		err = c.replyErr(f.ReqID, protoErr("unknown command 0x%02x", f.Type))
	}
	return err
}

func (c *conn) handleBegin(f *wire.Frame) error {
	if c.sessionTx() != nil {
		return c.replyErr(f.ReqID, protoErr("transaction already open on this connection"))
	}
	d := wire.NewDec(f.Body)
	ms := d.Uvarint()
	if err := d.Err(); err != nil {
		return c.replyErr(f.ReqID, protoErr("begin: %v", err))
	}
	// A deadline too large to represent as a time.Duration would
	// overflow to a negative value and dodge the MaxDeadline clamp;
	// saturate it to "no deadline" first so the clamp still applies.
	if ms > uint64(math.MaxInt64/int64(time.Millisecond)) {
		ms = 0
	}
	deadline := time.Duration(ms) * time.Millisecond
	if max := c.s.opts.MaxDeadline; max > 0 && (deadline == 0 || deadline > max) {
		deadline = max
	}
	// Every transaction gets a cancelable context, deadline or not, so
	// force() during Close can interrupt lock waits and scan boundaries.
	var ctx context.Context
	var cancel context.CancelFunc
	if deadline > 0 {
		ctx, cancel = context.WithTimeout(context.Background(), deadline)
	} else {
		ctx, cancel = context.WithCancel(context.Background())
	}
	tx := c.s.db.BeginCtx(ctx)
	if !tx.Active() {
		// Never admitted: Commit surfaces the typed rejection
		// (ErrOverloaded, ErrDBClosed) without committing anything.
		rejErr := tx.Commit()
		cancel()
		return c.replyErr(f.ReqID, rejErr)
	}
	c.setTx(tx, cancel)
	// ID, then the node's fencing epoch (a failover-aware client pins
	// the epoch it began under and refuses to fall back to an older
	// one), then the applied LSN — the freshness this node can actually
	// prove, so floored reads detect a replica that regressed by
	// wipe-resync instead of trusting a stale cached position.
	body := wire.AppendUvarint(nil, tx.ID())
	body = wire.AppendUvarint(body, c.s.db.Epoch())
	body = wire.AppendUvarint(body, c.s.db.AppliedLSN())
	return c.reply(f.ReqID, wire.RespOK, body)
}

func (c *conn) handleCommit(f *wire.Frame) error {
	tx := c.sessionTx()
	if tx == nil {
		return c.replyErr(f.ReqID, protoErr("commit without transaction"))
	}
	err := tx.Commit()
	c.clearTx()
	if err != nil {
		return c.replyErr(f.ReqID, err)
	}
	// Semi-synchronous gate: the reply waits for the configured number
	// of replica acks. A timeout leaves the commit durable locally but
	// unacknowledged — surfaced as a retryable error, with the ambiguity
	// documented (the client cannot know whether the write survives a
	// failover).
	if q := c.s.opts.CommitAckQuorum; q > 0 && c.s.opts.Repl != nil {
		if err := c.s.opts.Repl.WaitAcked(tx.CommitLSN(), q, c.s.opts.AckTimeout); err != nil {
			return c.replyErr(f.ReqID, err)
		}
	}
	// The body carries the commit's LSN so clients can demand
	// read-your-writes freshness from replicas (client.Replicated),
	// then the epoch the commit happened under.
	body := wire.AppendUvarint(nil, tx.CommitLSN())
	body = wire.AppendUvarint(body, c.s.db.Epoch())
	return c.reply(f.ReqID, wire.RespOK, body)
}

func (c *conn) handleAbort(f *wire.Frame) error {
	if tx := c.sessionTx(); tx != nil {
		tx.Abort()
	}
	c.clearTx()
	return c.reply(f.ReqID, wire.RespOK, nil)
}

func (c *conn) clearTx() {
	c.mu.Lock()
	cancel := c.txCancel
	c.tx, c.txCancel = nil, nil
	c.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// decodeImage decodes a client object image against the server schema,
// verifying the class ids agree (the client must register the same
// schema as the server, like every opener of the same file).
func (c *conn) decodeImage(class *core.Class, image []byte) (*core.Object, error) {
	cid, err := object.ImageClassID(image)
	if err != nil {
		return nil, err
	}
	if cid != class.ID() {
		return nil, fmt.Errorf("%w: image class id %d, server id %d for %s (client and server schemas must be registered identically)",
			wire.ErrSchema, cid, class.ID(), class.Name)
	}
	return object.Decode(c.s.db.Schema(), image)
}

// handleWrite covers pnew and update: class/oid plus an object image.
func (c *conn) handleWrite(f *wire.Frame) error {
	tx := c.sessionTx()
	if tx == nil {
		return c.replyErr(f.ReqID, protoErr("%s without transaction", wire.CmdName(f.Type)))
	}
	d := wire.NewDec(f.Body)
	switch f.Type {
	case wire.CmdPNew:
		name := d.String()
		image := d.Bytes()
		if err := d.Err(); err != nil {
			return c.replyErr(f.ReqID, protoErr("pnew: %v", err))
		}
		class, ok := c.s.db.Schema().ClassNamed(name)
		if !ok {
			return c.replyErr(f.ReqID, fmt.Errorf("%w: %q", wire.ErrNoClass, name))
		}
		obj, err := c.decodeImage(class, image)
		if err != nil {
			return c.replyErr(f.ReqID, err)
		}
		oid, err := tx.PNew(class, obj)
		if err != nil {
			return c.replyErr(f.ReqID, err)
		}
		return c.reply(f.ReqID, wire.RespOID, wire.AppendUvarint(nil, uint64(oid)))
	default: // CmdUpdate
		oid := core.OID(d.Uvarint())
		image := d.Bytes()
		if err := d.Err(); err != nil {
			return c.replyErr(f.ReqID, protoErr("update: %v", err))
		}
		obj, err := object.Decode(c.s.db.Schema(), image)
		if err != nil {
			return c.replyErr(f.ReqID, err)
		}
		if err := tx.Update(oid, obj); err != nil {
			return c.replyErr(f.ReqID, err)
		}
		return c.reply(f.ReqID, wire.RespOK, nil)
	}
}

// handleOID covers the commands whose body is one oid.
func (c *conn) handleOID(f *wire.Frame) error {
	tx := c.sessionTx()
	if tx == nil {
		return c.replyErr(f.ReqID, protoErr("%s without transaction", wire.CmdName(f.Type)))
	}
	d := wire.NewDec(f.Body)
	oid := core.OID(d.Uvarint())
	if err := d.Err(); err != nil {
		return c.replyErr(f.ReqID, protoErr("%s: %v", wire.CmdName(f.Type), err))
	}
	switch f.Type {
	case wire.CmdDeref:
		obj, err := tx.Deref(oid)
		if err != nil {
			return c.replyErr(f.ReqID, err)
		}
		return c.reply(f.ReqID, wire.RespObject, wire.AppendBytes(nil, object.Encode(obj)))
	case wire.CmdPDelete:
		if err := tx.PDelete(oid); err != nil {
			return c.replyErr(f.ReqID, err)
		}
		return c.reply(f.ReqID, wire.RespOK, nil)
	case wire.CmdCurrentVersion:
		v, err := tx.CurrentVersion(oid)
		if err != nil {
			return c.replyErr(f.ReqID, err)
		}
		return c.reply(f.ReqID, wire.RespVersion, wire.AppendUvarint(nil, uint64(v)))
	case wire.CmdNewVersion:
		ref, err := tx.NewVersion(oid)
		if err != nil {
			return c.replyErr(f.ReqID, err)
		}
		return c.reply(f.ReqID, wire.RespVersion, wire.AppendUvarint(nil, uint64(ref.Version)))
	default: // CmdVersions
		vs, err := tx.Versions(oid)
		if err != nil {
			return c.replyErr(f.ReqID, err)
		}
		body := wire.AppendUvarint(nil, uint64(len(vs)))
		for _, v := range vs {
			body = wire.AppendUvarint(body, uint64(v))
		}
		return c.reply(f.ReqID, wire.RespVersions, body)
	}
}

// handleDerefCached is a conditional deref of a client's cached
// neighbourhood: the body carries (oid, content tag) pairs, the oid the
// client asked for first, then up to wire.MaxDerefCached-1 cached
// objects reachable from it. The first entry is revalidated under the
// lock a deref takes (Tx.Revalidate), and its outcome is the request's:
// an error, RespOK ("not modified" — the client reuses its decoded copy)
// or RespObject with the current image. Every further entry is
// speculative: locked only if the lock is free now, and answered by one
// status appended to the reply — proven, modified with the image, or
// skipped. A proven entry costs its lock and a compare against the
// engine cache's memoized tag; only a modified entry is copied and
// encoded. A one-entry body gets exactly the single-object reply. The
// outcomes are counted in server.reval_*, once per frame.
func (c *conn) handleDerefCached(f *wire.Frame) error {
	tx := c.sessionTx()
	if tx == nil {
		return c.replyErr(f.ReqID, protoErr("deref-cached without transaction"))
	}
	refs, err := wire.DecodeDerefCached(f.Body, c.refs)
	if err != nil {
		return c.replyErr(f.ReqID, protoErr("deref-cached: %v", err))
	}
	c.refs = refs
	obj, err := tx.Revalidate(core.OID(refs[0].OID), refs[0].Tag, false)
	if err != nil {
		return c.replyErr(f.ReqID, err)
	}
	var proven, modified, skipped uint64
	typ, body := byte(wire.RespOK), []byte(nil)
	if obj == nil {
		proven++
	} else {
		modified++
		typ, body = wire.RespObject, wire.AppendBytes(nil, object.Encode(obj))
	}
	for _, r := range refs[1:] {
		obj, err := tx.Revalidate(core.OID(r.OID), r.Tag, true)
		switch {
		case err != nil:
			skipped++
			body = append(body, wire.CachedSkipped)
		case obj == nil:
			proven++
			body = append(body, wire.CachedProven)
		default:
			modified++
			body = wire.AppendBytes(append(body, wire.CachedModified), object.Encode(obj))
		}
	}
	c.s.met.RevalProven.Add(proven)
	c.s.met.RevalModified.Add(modified)
	c.s.met.RevalSkipped.Add(skipped)
	return c.reply(f.ReqID, typ, body)
}

// handleVRef covers the commands whose body is oid + version.
func (c *conn) handleVRef(f *wire.Frame) error {
	tx := c.sessionTx()
	if tx == nil {
		return c.replyErr(f.ReqID, protoErr("%s without transaction", wire.CmdName(f.Type)))
	}
	d := wire.NewDec(f.Body)
	ref := core.VRef{OID: core.OID(d.Uvarint()), Version: uint32(d.Uvarint())}
	if err := d.Err(); err != nil {
		return c.replyErr(f.ReqID, protoErr("%s: %v", wire.CmdName(f.Type), err))
	}
	switch f.Type {
	case wire.CmdDeleteVersion:
		if err := tx.DeleteVersion(ref); err != nil {
			return c.replyErr(f.ReqID, err)
		}
		return c.reply(f.ReqID, wire.RespOK, nil)
	default: // CmdDerefVersion
		obj, err := tx.DerefVersion(ref)
		if err != nil {
			return c.replyErr(f.ReqID, err)
		}
		return c.reply(f.ReqID, wire.RespObject, wire.AppendBytes(nil, object.Encode(obj)))
	}
}

// The windows a forall's rows travel in: the first is small, so a scan
// its client stops early costs few rows; each later one is
// windowGrowth times the last, up to maxWindow, so a long scan costs few
// pauses. A window also closes once its rows reach maxWindowBytes, so a
// frame of large objects stays far under the peer's frame limit
// (wire.DefaultMaxFrame): the row that crosses the bound adds one object
// image, at most storage.MaxRecordSize. Constants of the protocol, not
// options.
const (
	firstWindow    = 64
	windowGrowth   = 8
	maxWindow      = 8192
	maxWindowBytes = 1 << 20
)

// scanOf decodes a wire forall request into the scan descriptor the
// client encoded; ode.Scan.Query plans it.
func (c *conn) scanOf(req *wire.ForallReq) (*ode.Scan, error) {
	class, ok := c.s.db.Schema().ClassNamed(req.Class)
	if !ok {
		return nil, fmt.Errorf("%w: %q", wire.ErrNoClass, req.Class)
	}
	s := &ode.Scan{
		Class:    class,
		Subtypes: req.Flags&wire.ForallSubtypes != 0,
		NoIndex:  req.Flags&wire.ForallNoIndex != 0,
		Field:    req.Field,
		Op:       ode.CmpOp(req.Op),
	}
	if req.Field != "" {
		v, rest, err := object.DecodeValue(req.Value)
		if err != nil || len(rest) != 0 {
			return nil, protoErr("forall operand: %v", err)
		}
		s.Value = v
	}
	return s, nil
}

// handleForall runs a scan and sends its rows a window at a time
// (wire.ForallReq describes the bodies). A full window goes out as one
// RespBatch frame and the scan waits, inside Query.Do's callback, for
// the client's next frame: CmdForallMore under the scan's id resumes
// it; any other frame ends it silently and is dispatched next. So a
// scan its client stopped costs the windows it was sent, and the
// client's next request is its end. The last window rides the RespDone
// that carries the total; a ForallCount request gets the total alone.
// An error ends the scan with RespErr instead.
func (c *conn) handleForall(f *wire.Frame) error {
	id := f.ReqID // f aliases the read buffer a pause reuses
	tx := c.sessionTx()
	if tx == nil {
		return c.replyErr(id, protoErr("forall without transaction"))
	}
	req, err := wire.DecodeForallReq(f.Body)
	if err != nil {
		return c.replyErr(id, protoErr("forall: %v", err))
	}
	scan, err := c.scanOf(req)
	if err != nil {
		return c.replyErr(id, err)
	}
	if req.Flags&wire.ForallCount != 0 {
		n, err := scan.Query(tx).Count()
		if err != nil {
			return c.replyErr(id, err)
		}
		return c.reply(id, wire.RespDone, wire.AppendUvarint(wire.AppendUvarint(nil, uint64(n)), 0))
	}
	var (
		rows   []byte // the window being filled
		n      int    // rows in it
		total  uint64
		window = firstWindow
		werr   error // the socket failed: connection-fatal
	)
	// rowsAfter appends the window to head as a row count and the rows.
	rowsAfter := func(head []byte) []byte {
		return append(wire.AppendUvarint(head, uint64(n)), rows...)
	}
	// Snapshot: a frame that is not forall-more ends the scan (pause), so
	// nothing joins the extent while it runs and the fixpoint's visited
	// set would buy nothing.
	scanErr := scan.Query(tx).Snapshot().Do(func(it ode.Item) (bool, error) {
		rows = wire.AppendUvarint(rows, uint64(it.OID))
		rows = wire.AppendBytes(rows, object.Encode(it.Obj))
		n++
		total++
		if n < window && len(rows) < maxWindowBytes {
			return true, nil
		}
		var more bool
		if more, werr = c.pause(id, rowsAfter(nil)); werr != nil {
			return false, werr
		}
		rows, n, window = rows[:0], 0, min(window*windowGrowth, maxWindow)
		return more, nil
	})
	switch {
	case werr != nil:
		return werr
	case scanErr != nil:
		// An error frame ends the scan; the client reports it in place
		// of the rows it did not get.
		return c.replyErr(id, scanErr)
	case c.next != nil: // the client's next frame ended the scan
		return nil
	}
	return c.reply(id, wire.RespDone, rowsAfter(wire.AppendUvarint(nil, total)))
}

// pause sends a full window of forall id and waits for the client's
// next frame, reporting whether it asks for more. Any other frame ends
// the scan and is left in c.next for the serve loop. While it waits the
// session is between requests: not busy, so Server.Close drains it like
// any open transaction and then forces it (force closing the socket
// ends the read), and the wait is not the request's time.
func (c *conn) pause(id uint64, window []byte) (bool, error) {
	if err := c.reply(id, wire.RespBatch, window); err != nil {
		return false, err
	}
	if err := c.flush(); err != nil {
		return false, err
	}
	start := time.Now()
	c.mu.Lock()
	c.paused = true
	c.mu.Unlock()
	c.busy.Store(false)
	f, _, err := c.fr.Read()
	c.busy.Store(true)
	c.mu.Lock()
	c.paused = false
	c.mu.Unlock()
	c.waited += time.Since(start)
	if err != nil {
		return false, err
	}
	if f.Type == wire.CmdForallMore && f.ReqID == id {
		c.s.met.Requests.Inc()
		return true, nil
	}
	c.next = f
	return false, nil
}

// handleExplain renders the access-path plan a forall would use,
// without running it. It borrows the session transaction when one is
// open and otherwise uses a short read-only view.
func (c *conn) handleExplain(f *wire.Frame) error {
	req, err := wire.DecodeForallReq(f.Body)
	if err != nil {
		return c.replyErr(f.ReqID, protoErr("explain: %v", err))
	}
	scan, err := c.scanOf(req)
	if err != nil {
		return c.replyErr(f.ReqID, err)
	}
	var plan string
	if tx := c.sessionTx(); tx != nil {
		plan = scan.Query(tx).Explain().String()
	} else {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		err = c.s.db.ViewCtx(ctx, func(tx *ode.Tx) error {
			plan = scan.Query(tx).Explain().String()
			return nil
		})
		cancel()
		if err != nil {
			return c.replyErr(f.ReqID, err)
		}
	}
	return c.reply(f.ReqID, wire.RespText, wire.AppendString(nil, plan))
}

// handleOQL executes O++ source in the connection's shell session (the
// remote ode-sh path): zero or one RespText frame with the printed
// output, then RespOK or RespErr. Execution is serialized server-wide
// because class declarations mutate the shared schema.
func (c *conn) handleOQL(f *wire.Frame) error {
	d := wire.NewDec(f.Body)
	src := d.String()
	if err := d.Err(); err != nil {
		return c.replyErr(f.ReqID, protoErr("oql: %v", err))
	}
	if c.sessionTx() != nil {
		return c.replyErr(f.ReqID, protoErr("oql on a connection with a wire transaction open"))
	}
	c.s.oqlMu.Lock()
	if c.oqlSess == nil {
		c.oqlSess = oql.NewSession(c.s.db, &c.oqlOut)
	}
	execErr := c.oqlSess.Exec(src)
	if errs := c.s.db.Triggers().Errors(); len(errs) > 0 {
		for _, e := range errs {
			fmt.Fprintf(&c.oqlOut, "trigger error: %v\n", e)
		}
	}
	out := c.oqlOut.String()
	c.oqlOut.Reset()
	c.s.oqlMu.Unlock()
	if out != "" {
		if err := c.reply(f.ReqID, wire.RespText, wire.AppendString(nil, out)); err != nil {
			return err
		}
	}
	if execErr != nil {
		return c.replyErr(f.ReqID, execErr)
	}
	return c.reply(f.ReqID, wire.RespOK, nil)
}

// handleMetrics returns the full metric registry snapshot (engine plus
// server.*) as JSON text — the wire twin of the daemon's HTTP endpoint.
func (c *conn) handleMetrics(f *wire.Frame) error {
	buf, err := json.Marshal(c.reg())
	if err != nil {
		return c.replyErr(f.ReqID, err)
	}
	return c.reply(f.ReqID, wire.RespText, wire.AppendBytes(nil, buf))
}

func (c *conn) reg() map[string]any { return c.s.db.MetricsRegistry().Snapshot() }

// handleSubscribe hands the connection over to the replication source:
// after a CmdWALSubscribe the socket carries only WAL frames one way
// and acks the other, until the subscriber disconnects or is dropped.
// The return is always non-nil — a hijacked connection never rejoins
// the request loop.
func (c *conn) handleSubscribe(f *wire.Frame) error {
	src := c.s.opts.Repl
	if src == nil {
		return c.replyErr(f.ReqID, protoErr("this server has no replication source"))
	}
	if c.sessionTx() != nil {
		return c.replyErr(f.ReqID, protoErr("wal-subscribe on a connection with a transaction open"))
	}
	req, err := wire.DecodeSubscribeReq(f.Body)
	if err != nil {
		return c.replyErr(f.ReqID, protoErr("wal-subscribe: %v", err))
	}
	// Nothing useful can be buffered (a subscriber sends nothing before
	// subscribing), but flush defensively: all writes now bypass c.bw.
	if err := c.flush(); err != nil {
		return err
	}
	// Mark the session idle so Close's drain closes the socket instead
	// of waiting out the drain window: the stream is read-interruptible
	// and holds no transaction.
	c.busy.Store(false)
	err = src.ServeSubscriber(c.nc, c.br, f.ReqID, req)
	if err == nil {
		err = io.EOF
	}
	return fmt.Errorf("wal-subscribe stream ended: %w", err)
}

// handleReplStatus reports the node's replication position: role
// (read-only = replica), replication id, applied LSN, fencing epoch,
// and the last source-initiated subscriber drop. Served from the
// database directly, so it works on primaries and replicas alike; the
// failover monitor's probes land here.
func (c *conn) handleReplStatus(f *wire.Frame) error {
	st := &wire.ReplStatus{
		ReadOnly: c.s.db.ReadOnly(),
		ReplID:   c.s.db.ReplicationID(),
		// AppliedLSN, not LSN: the position must not run ahead of read
		// visibility — the Replicated router trusts it as a freshness
		// proof.
		LSN:       c.s.db.AppliedLSN(),
		Epoch:     c.s.db.Epoch(),
		EpochLSN:  c.s.db.EpochStartLSN(),
		Advertise: c.s.opts.Advertise,
	}
	if c.s.opts.Repl != nil {
		st.LastKill = c.s.opts.Repl.LastKill()
	}
	return c.reply(f.ReqID, wire.RespReplStatus, st.Append(nil))
}

// handlePromote invokes the operator-supplied promotion hook (the wire
// twin of SIGUSR1 on ode-server).
func (c *conn) handlePromote(f *wire.Frame) error {
	if c.s.opts.Promote == nil {
		return c.replyErr(f.ReqID, protoErr("this server has no promotion hook"))
	}
	if err := c.s.opts.Promote(); err != nil {
		return c.replyErr(f.ReqID, err)
	}
	return c.reply(f.ReqID, wire.RespOK, nil)
}
