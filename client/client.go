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
	// DialTimeout bounds connect plus handshake (default 5s).
	DialTimeout time.Duration
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
	if out.DialTimeout <= 0 {
		out.DialTimeout = 5 * time.Second
	}
	if out.CacheSize == 0 {
		out.CacheSize = 4096
	}
	return out
}

// poolSize bounds the idle-connection pool. Demand beyond it dials new
// connections; surplus connections are closed on release instead of
// pooled.
const poolSize = 4

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
		c.met.Invalidations.Add(uint64(c.cache.Clear()))
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
	return &wconn{nc: nc, br: br, fr: wire.NewFrameReader(br, wire.DefaultMaxFrame), trips: &c.met.RoundTrips}, nil
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
	if c.closed || len(c.idle) >= poolSize {
		c.mu.Unlock()
		cn.nc.Close()
		return
	}
	c.idle = append(c.idle, cn)
	c.mu.Unlock()
}

// call runs one request outside any transaction, on a pooled
// connection, and hands the body of its reply, which must be of type
// want, to decode (when not nil). A reply of another type, or one
// decode cannot read, is a protocol error that breaks the connection.
func (c *Client) call(ctx context.Context, typ byte, body []byte, want byte, decode func(body []byte) error) error {
	cn, err := c.get()
	if err != nil {
		return err
	}
	defer c.put(cn)
	resp, err := cn.roundTrip(ctx, typ, body)
	if err == nil {
		err = respErr(resp)
	}
	if err != nil {
		return err
	}
	if resp.Type != want {
		err = fmt.Errorf("response 0x%02x", resp.Type)
	} else if decode != nil {
		err = decode(resp.Body)
	}
	if err != nil {
		cn.broken = true
		return protoErr("%s: %v", wire.CmdName(typ), err)
	}
	return nil
}

// Ping round-trips a no-op request.
func (c *Client) Ping(ctx context.Context) error {
	return c.call(ctx, wire.CmdPing, nil, wire.RespOK, nil)
}

// MetricsJSON fetches the server's metric registry snapshot (engine
// plus server.* names) as JSON.
func (c *Client) MetricsJSON(ctx context.Context) (buf []byte, err error) {
	err = c.call(ctx, wire.CmdMetrics, nil, wire.RespText, func(body []byte) error {
		d := wire.NewDec(body)
		buf = append([]byte(nil), d.Bytes()...)
		return d.Err()
	})
	return buf, err
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
// deadline, if it has one, travels with that begin and bounds the
// transaction on the server — lock waits, scans, and commit observe it
// server-side; the same context also bounds every round trip
// client-side. A server's refusal to begin (overload, a
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
// the context's deadline (0, none: the server's MaxDeadline policy
// applies), and leaves room for the frames that follow it.
func (c *Client) beginFrame(ctx context.Context, id uint64, room int) []byte {
	var ms uint64
	if dl, ok := ctx.Deadline(); ok {
		ms = uint64(max((time.Until(dl)+time.Millisecond-1)/time.Millisecond, 1))
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

	// The exchange in flight, between post and await: its context and
	// the disarm of its cancellation.
	ctx  context.Context
	stop func() bool
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

// roundTrip sends one request and reads its response under ctx.
func (cn *wconn) roundTrip(ctx context.Context, typ byte, body []byte) (resp *wire.Frame, err error) {
	id := cn.newID()
	if err = cn.post(ctx, wire.AppendFrame(nil, &wire.Frame{ReqID: id, Type: typ, Body: body})); err != nil {
		return nil, err
	}
	err = cn.await(func() (err error) {
		resp, err = cn.recv(id)
		return err
	})
	return resp, err
}

// post begins one socket exchange: it writes buf with ctx's deadline
// as the socket deadline, and arms ctx's cancellation to unblock the
// reads that await ends the exchange with. Each exchange is one round
// trip, and counted as one. Between post and await the caller may post
// on other connections: that is how the router has every shard's
// request in flight before it reads any reply. A post that fails has
// ended its exchange.
func (cn *wconn) post(ctx context.Context, buf []byte) error {
	cn.trips.Inc()
	if dl, ok := ctx.Deadline(); ok {
		cn.nc.SetDeadline(dl)
	} else {
		cn.nc.SetDeadline(time.Time{})
	}
	cn.ctx = ctx
	cn.stop = context.AfterFunc(ctx, func() {
		// Cancellation wakes the blocked read; the connection is
		// poisoned (a response may be in flight) and discarded.
		cn.nc.SetDeadline(time.Unix(1, 0))
	})
	if err := cn.send(buf); err != nil {
		return cn.await(func() error { return err })
	}
	return nil
}

// await ends the exchange post began: read consumes its replies, and a
// cancellation or deadline that cut it short is the error.
func (cn *wconn) await(read func() error) error {
	err := read()
	ctx := cn.ctx
	if !cn.stop() || ctx.Err() != nil {
		cn.broken = true
		if ctxErr := ctx.Err(); ctxErr != nil && err != nil {
			err = fmt.Errorf("%w: %v", mapCtxErr(ctxErr), err)
		}
	}
	cn.ctx, cn.stop = nil, nil
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
