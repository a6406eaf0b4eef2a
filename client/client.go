// Package client is the remote twin of the embedded ode API: it
// connects to an ode-server daemon over TCP, speaks the
// internal/wire protocol, and exposes transactions whose methods
// mirror ode.Tx (PNew, Deref, Update, PDelete, the version
// operations, and streamed forall scans).
//
// The client and server must register the same schema (same classes,
// declared in the same order) — exactly the rule every embedded opener
// of a shared database file already follows. Object images and
// predicate operands travel in the storage codec's encoding, so the
// class ids embedded in images agree end to end; the server verifies
// them per operation.
//
// Error semantics are preserved across the wire: a remote deadlock
// satisfies errors.Is(err, ode.ErrDeadlock), remote admission-control
// rejection satisfies errors.Is(err, ode.ErrOverloaded), and
// ode.IsRetryable classifies remote errors exactly as embedded ones.
// RunTx applies the same capped-backoff retry policy as the embedded
// retry loop (ode.RetryBackoff).
//
// Connections are pooled; a transaction pins one connection from
// Begin to Commit/Abort (the server binds transaction state to the
// connection). Pipeline batches several operations into one network
// round trip. docs/SERVER.md documents the protocol.
package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"ode"
	"ode/internal/obs"
	"ode/internal/wire"
)

// Options configures a Client.
type Options struct {
	// PoolSize bounds the idle-connection pool (default 4). Demand
	// beyond the pool dials new connections; surplus connections are
	// closed on release instead of pooled.
	PoolSize int
	// DialTimeout bounds connect plus handshake (default 5s).
	DialTimeout time.Duration
	// TxDeadline is sent with Begin when the context carries no
	// deadline; zero defers to the server's MaxDeadline policy.
	TxDeadline time.Duration
	// MaxFrame bounds one response frame (default wire.DefaultMaxFrame).
	MaxFrame int
	// CacheSize bounds the decoded-object cache in objects (default
	// 4096; negative disables caching). Cached objects are tagged with
	// the content hash of their encoded image; a deref revalidates the
	// tag with the server (one cheap "not modified" round trip, no
	// image shipping or decode, that also revalidates the cached
	// objects reachable from it) or serves locally when the transaction
	// has already proven the tag. docs/SERVER.md describes the
	// coherence protocol.
	CacheSize int
}

func (o *Options) withDefaults() Options {
	var out Options
	if o != nil {
		out = *o
	}
	if out.PoolSize <= 0 {
		out.PoolSize = 4
	}
	if out.DialTimeout <= 0 {
		out.DialTimeout = 5 * time.Second
	}
	if out.MaxFrame <= 0 {
		out.MaxFrame = wire.DefaultMaxFrame
	}
	if out.CacheSize == 0 {
		out.CacheSize = 4096
	}
	return out
}

// ErrClosed is returned by operations on a closed client.
var ErrClosed = errors.New("client: closed")

// Client is a connection pool to one ode-server.
type Client struct {
	addr   string
	schema *ode.Schema
	opts   Options
	cache  *objCache // nil when Options.CacheSize < 0
	met    Metrics

	mu     sync.Mutex
	idle   []*wconn
	closed bool
}

// Dial returns a client for the server at addr. The schema must be
// registered identically to the server's; it is used to encode and
// decode object images locally. Dial verifies reachability with one
// pooled connection.
func Dial(addr string, schema *ode.Schema, opts *Options) (*Client, error) {
	c := &Client{addr: addr, schema: schema, opts: opts.withDefaults()}
	if c.opts.CacheSize > 0 {
		c.cache = newObjCache(c.opts.CacheSize)
	}
	cn, err := c.dial()
	if err != nil {
		return nil, err
	}
	c.put(cn)
	return c, nil
}

// Schema returns the schema images are decoded against.
func (c *Client) Schema() *ode.Schema { return c.schema }

// CacheMetrics returns the client's counters: object-cache hits, misses
// and invalidations, and round trips. The set is owned by the Client;
// call Metrics.Attach to export it through an obs registry.
func (c *Client) CacheMetrics() *Metrics { return &c.met }

// InvalidateCache drops every cached decoded object. The Replicated
// router calls it when a routing decision moves reads past what the
// cache was filled at; it is also the coarse hammer for tests and for
// callers that know the database changed out of band. Stale entries
// are never served without revalidation, so flushing is purely a
// freshness/footprint decision, not a correctness one.
func (c *Client) InvalidateCache() {
	if c.cache != nil {
		c.met.Invalidations.Add(c.cache.flush())
	}
}

// Close closes every pooled connection. Transactions in flight keep
// their pinned connections and fail on next use.
func (c *Client) Close() error {
	c.mu.Lock()
	idle := c.idle
	c.idle, c.closed = nil, true
	c.mu.Unlock()
	for _, cn := range idle {
		cn.nc.Close()
	}
	return nil
}

// dial opens and handshakes one connection.
func (c *Client) dial() (*wconn, error) {
	nc, err := net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
	if err != nil {
		return nil, err
	}
	nc.SetDeadline(time.Now().Add(c.opts.DialTimeout))
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
		return nil, fmt.Errorf("%w: server speaks version %d, client %d", wire.ErrVersion, v, wire.Version)
	}
	nc.SetDeadline(time.Time{})
	br := bufio.NewReader(nc)
	return &wconn{nc: nc, br: br, fr: wire.NewFrameReader(br, c.opts.MaxFrame), trips: &c.met.RoundTrips}, nil
}

// get returns an idle connection or dials a new one.
func (c *Client) get() (*wconn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if n := len(c.idle); n > 0 {
		cn := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return cn, nil
	}
	c.mu.Unlock()
	return c.dial()
}

// put returns a healthy connection to the pool (or closes it if the
// pool is full or the client closed).
func (c *Client) put(cn *wconn) {
	if cn.broken {
		cn.nc.Close()
		return
	}
	c.mu.Lock()
	if c.closed || len(c.idle) >= c.opts.PoolSize {
		c.mu.Unlock()
		cn.nc.Close()
		return
	}
	c.idle = append(c.idle, cn)
	c.mu.Unlock()
}

// Ping round-trips a no-op request.
func (c *Client) Ping(ctx context.Context) error {
	cn, err := c.get()
	if err != nil {
		return err
	}
	defer c.put(cn)
	resp, err := cn.roundTrip(ctx, wire.CmdPing, nil)
	if err != nil {
		return err
	}
	return respErrOnly(resp)
}

// MetricsJSON fetches the server's metric registry snapshot (engine
// plus server.* names) as JSON.
func (c *Client) MetricsJSON(ctx context.Context) ([]byte, error) {
	cn, err := c.get()
	if err != nil {
		return nil, err
	}
	defer c.put(cn)
	resp, err := cn.roundTrip(ctx, wire.CmdMetrics, nil)
	if err != nil {
		return nil, err
	}
	if err := respErr(resp); err != nil {
		return nil, err
	}
	if resp.Type != wire.RespText {
		cn.broken = true
		return nil, protoErr("metrics: unexpected response 0x%02x", resp.Type)
	}
	d := wire.NewDec(resp.Body)
	buf := d.Bytes()
	if err := d.Err(); err != nil {
		cn.broken = true
		return nil, err
	}
	return append([]byte(nil), buf...), nil
}

// RunTx runs fn in a remote transaction, committing on nil return and
// aborting otherwise, retrying transient conflicts (ode.IsRetryable:
// deadlocks, deadline expiries) under the same capped-backoff policy
// and budget as the embedded ode.DB.RunTx.
func (c *Client) RunTx(ctx context.Context, fn func(tx *Tx) error) error {
	return runWithRetry(ctx, func() error {
		tx, err := c.Begin(ctx)
		if err != nil {
			return err
		}
		if err := fn(tx); err != nil {
			tx.Abort()
			return err
		}
		return tx.Commit()
	}, ode.IsRetryable)
}

// View runs fn in a read-only transaction: begin, fn, abort. Nothing
// fn does is committed, mirroring the embedded DB.View contract. It is
// the read path Replicated routes to replicas.
func (c *Client) View(ctx context.Context, fn func(tx *Tx) error) error {
	tx, err := c.Begin(ctx)
	if err != nil {
		return err
	}
	defer tx.Abort()
	return fn(tx)
}

// Begin opens a remote transaction pinned to one pooled connection. It
// sends nothing: the begin frame rides in front of the transaction's
// first request (Tx.send), so a transaction costs no round trip of its
// own, and one that sends nothing costs none at all. The context's
// deadline (or Options.TxDeadline when it has none) travels with that
// begin and bounds the transaction on the server — lock waits, scans,
// and commit observe it server-side; the same context also bounds every
// round trip client-side. A server's refusal to begin (overload, a
// closed database) is therefore the error of the first operation, as
// with an embedded transaction admission control turned away.
func (c *Client) Begin(ctx context.Context) (*Tx, error) {
	if dl, ok := ctx.Deadline(); ok && time.Until(dl) <= 0 {
		return nil, fmt.Errorf("%w: %v", ode.ErrTxTimeout, context.DeadlineExceeded)
	}
	cn, err := c.get()
	if err != nil {
		return nil, err
	}
	return &Tx{c: c, cn: cn, ctx: ctx, beginID: cn.newID()}, nil
}

// beginFrame builds the begin request, carrying the time left before
// the context's deadline (or Options.TxDeadline), and leaves room for
// the frames that follow it.
func (c *Client) beginFrame(ctx context.Context, id uint64, room int) []byte {
	var ms uint64
	if dl, ok := ctx.Deadline(); ok {
		ms = uint64(max((time.Until(dl)+time.Millisecond-1)/time.Millisecond, 1))
	} else if c.opts.TxDeadline > 0 {
		ms = uint64(c.opts.TxDeadline / time.Millisecond)
	}
	return wire.AppendFrame(make([]byte, 0, 32+room), &wire.Frame{ReqID: id, Type: wire.CmdBegin, Body: wire.AppendUvarint(nil, ms)})
}

// wconn is one protocol connection: socket, buffered reader, request
// id counter. A wconn is used by one goroutine at a time (the pool
// hands it to one transaction or one-shot request).
type wconn struct {
	nc     net.Conn
	br     *bufio.Reader
	fr     *wire.FrameReader // reused frame+buffer; see recv
	nextID uint64
	broken bool
	trips  *obs.Counter // the owning client's client.round_trips
}

// newID numbers the next request on the connection.
func (cn *wconn) newID() uint64 {
	cn.nextID++
	return cn.nextID
}

// send writes request frames (one syscall for a pipeline batch).
func (cn *wconn) send(buf []byte) error {
	if _, err := cn.nc.Write(buf); err != nil {
		cn.broken = true
		return err
	}
	return nil
}

// recv reads one response frame, translating connection-level errors
// (request id 0) into typed failures that poison the connection. The
// frame and its body alias the connection's reused read buffer and are
// valid only until the next recv on the same connection: every caller
// decodes into its own memory before reading again (object.Decode,
// string conversion, explicit append copies).
func (cn *wconn) recv(wantID uint64) (*wire.Frame, error) {
	f, _, err := cn.fr.Read()
	if err != nil {
		cn.broken = true
		return nil, err
	}
	if f.ReqID == 0 && f.Type == wire.RespErr {
		cn.broken = true
		return nil, wire.DecodeErrBody(f.Body)
	}
	if f.ReqID != wantID {
		cn.broken = true
		return nil, protoErr("response for request %d, want %d", f.ReqID, wantID)
	}
	return f, nil
}

// roundTrip sends one request and reads its response under ctx: the
// context's deadline becomes the socket deadline, and cancellation
// unblocks the read.
func (cn *wconn) roundTrip(ctx context.Context, typ byte, body []byte) (*wire.Frame, error) {
	id := cn.newID()
	buf := wire.AppendFrame(nil, &wire.Frame{ReqID: id, Type: typ, Body: body})
	var resp *wire.Frame
	err := cn.do(ctx, func() error {
		if err := cn.send(buf); err != nil {
			return err
		}
		var err error
		resp, err = cn.recv(id)
		return err
	})
	return resp, err
}

// do runs one socket exchange — a send and the reads of its replies —
// with ctx governing the socket deadline. Each exchange is one round
// trip, and counted as one.
func (cn *wconn) do(ctx context.Context, fn func() error) error {
	cn.trips.Inc()
	if dl, ok := ctx.Deadline(); ok {
		cn.nc.SetDeadline(dl)
	} else {
		cn.nc.SetDeadline(time.Time{})
	}
	stop := context.AfterFunc(ctx, func() {
		// Cancellation wakes the blocked read; the connection is
		// poisoned (a response may be in flight) and discarded.
		cn.nc.SetDeadline(time.Unix(1, 0))
	})
	err := fn()
	if !stop() || ctx.Err() != nil {
		cn.broken = true
		if ctxErr := ctx.Err(); ctxErr != nil && err != nil {
			return fmt.Errorf("%w: %v", mapCtxErr(ctxErr), err)
		}
	}
	return err
}

// mapCtxErr translates a context failure into the engine's taxonomy,
// matching txn.FromContextErr.
func mapCtxErr(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return ode.ErrTxTimeout
	}
	return ode.ErrCanceled
}

// respErr converts a RespErr frame into its typed error (nil for any
// other response type).
func respErr(f *wire.Frame) error {
	if f.Type != wire.RespErr {
		return nil
	}
	return wire.DecodeErrBody(f.Body)
}

// respErrOnly expects RespOK and converts anything else.
func respErrOnly(f *wire.Frame) error {
	if err := respErr(f); err != nil {
		return err
	}
	if f.Type != wire.RespOK {
		return protoErr("unexpected response 0x%02x", f.Type)
	}
	return nil
}

// protoErr builds a protocol-violation error.
func protoErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", wire.ErrProto, fmt.Sprintf(format, args...))
}
