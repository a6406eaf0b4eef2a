package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ode"
	"ode/client"
	"ode/internal/failpoint"
	"ode/internal/object"
	"ode/internal/server"
	"ode/internal/wire"
)

// invSchema builds the stockitem schema both sides register — the
// identical-registration rule clients of a shared database file
// already follow.
func invSchema() (*ode.Schema, *ode.Class) {
	schema := ode.NewSchema()
	stock := ode.NewClass("stockitem").
		Field("name", ode.TString).
		Field("price", ode.TFloat).
		Field("qty", ode.TInt).
		Constraint("nonneg-qty", "qty >= 0", func(_ ode.Store, o *ode.Object) (bool, error) {
			return o.MustGet("qty").Int() >= 0, nil
		}).
		Register(schema)
	return schema, stock
}

func item(stock *ode.Class, name string, qty int64, price float64) *ode.Object {
	o := ode.NewObject(stock)
	o.MustSet("name", ode.Str(name))
	o.MustSet("qty", ode.Int(qty))
	o.MustSet("price", ode.Float(price))
	return o
}

// startServer opens (or reopens) the database at path and serves it on
// a loopback port.
func startServer(t testing.TB, path string, srvOpts *server.Options) (*ode.DB, *server.Server, string, *ode.Class) {
	t.Helper()
	schema, stock := invSchema()
	db, err := ode.Open(path, schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !db.HasCluster(stock) {
		if err := db.CreateCluster(stock); err != nil {
			t.Fatal(err)
		}
	}
	srv := server.New(db, srvOpts)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(nil)
	t.Cleanup(func() {
		srv.Close()
		db.Close()
	})
	return db, srv, addr.String(), stock
}

func startEnv(t testing.TB, srvOpts *server.Options) (*ode.DB, *server.Server, *client.Client, *ode.Class) {
	t.Helper()
	db, srv, c, stock, _ := startEnvAddr(t, srvOpts)
	return db, srv, c, stock
}

func startEnvAddr(t testing.TB, srvOpts *server.Options) (*ode.DB, *server.Server, *client.Client, *ode.Class, string) {
	t.Helper()
	db, srv, addr, _ := startServer(t, filepath.Join(t.TempDir(), "srv.odb"), srvOpts)
	schema, stock := invSchema()
	c, err := client.Dial(addr, schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return db, srv, c, stock, addr
}

// TestRemoteFullTransaction is the acceptance path: a full transaction
// (pnew → update → predicated forall → newversion → commit) over TCP
// with a per-request deadline enforced server-side, then a second
// transaction verifying durability, versions, and EXPLAIN.
func TestRemoteFullTransaction(t *testing.T) {
	db, _, c, stock := startEnv(t, nil)
	if err := db.CreateIndex(stock, "qty"); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	tx, err := c.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	oid, err := tx.PNew(stock, item(stock, "512k dram", 7500, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.PNew(stock, item(stock, "resistor", 10, 0.01)); err != nil {
		t.Fatal(err)
	}
	o, err := tx.Deref(oid)
	if err != nil {
		t.Fatal(err)
	}
	o.MustSet("qty", ode.Int(7000))
	if err := tx.Update(oid, o); err != nil {
		t.Fatal(err)
	}
	// Predicated scan sees the uncommitted update (degree-3 within the
	// transaction) and respects the comparison.
	var names []string
	n, err := tx.Forall(&client.Scan{Class: stock, Field: "qty", Op: client.CmpGe, Value: ode.Int(100)},
		func(_ ode.OID, obj *ode.Object) (bool, error) {
			names = append(names, obj.MustGet("name").Str())
			return true, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || len(names) != 1 || names[0] != "512k dram" {
		t.Fatalf("scan rows = %d %v, want the dram item only", n, names)
	}
	ref, err := tx.NewVersion(oid)
	if err != nil {
		t.Fatal(err)
	}
	if ref.OID != oid {
		t.Fatalf("NewVersion = %+v, want OID %d", ref, oid)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Fresh transaction: everything is durable and the version is
	// frozen at the pre-freeze image.
	err = c.RunTx(ctx, func(tx *client.Tx) error {
		o, err := tx.Deref(oid)
		if err != nil {
			return err
		}
		if got := o.MustGet("qty").Int(); got != 7000 {
			t.Errorf("qty after commit = %d, want 7000", got)
		}
		vs, err := tx.Versions(oid)
		if err != nil {
			return err
		}
		if len(vs) != 1 || vs[0] != ref.Version {
			t.Errorf("Versions = %v, want [%d]", vs, ref.Version)
		}
		frozen, err := tx.DerefVersion(ref)
		if err != nil {
			return err
		}
		if got := frozen.MustGet("qty").Int(); got != 7000 {
			t.Errorf("frozen qty = %d, want 7000", got)
		}
		plan, err := tx.Explain(&client.Scan{Class: stock, Field: "qty", Op: client.CmpGe, Value: ode.Int(100)})
		if err != nil {
			return err
		}
		if !strings.Contains(plan, "qty") {
			t.Errorf("explain plan %q does not mention the predicate field", plan)
		}
		n, err := tx.Count(&client.Scan{Class: stock})
		if err != nil {
			return err
		}
		if n != 2 {
			t.Errorf("count = %d, want 2", n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRemoteErrorTaxonomy checks that engine errors keep their types
// across the wire: errors.Is and ode.IsRetryable classify remote
// failures exactly as embedded ones.
func TestRemoteErrorTaxonomy(t *testing.T) {
	_, _, c, stock := startEnv(t, nil)
	ctx := context.Background()

	// Constraint violation at commit.
	tx, err := c.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.PNew(stock, item(stock, "bad", -5, 1)); err != nil {
		t.Fatal(err)
	}
	err = tx.Commit()
	if !errors.Is(err, ode.ErrConstraintViolation) {
		t.Fatalf("commit err = %v, want ErrConstraintViolation", err)
	}
	if ode.IsRetryable(err) {
		t.Fatal("constraint violation classified retryable")
	}

	// Missing object.
	err = c.RunTx(ctx, func(tx *client.Tx) error {
		_, err := tx.Deref(ode.OID(1 << 40))
		return err
	})
	if !errors.Is(err, ode.ErrNoObject) {
		t.Fatalf("deref err = %v, want ErrNoObject", err)
	}

	// Operations after commit fail client-side.
	tx, err = c.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Deref(1); !errors.Is(err, ode.ErrTxDone) {
		t.Fatalf("op after commit = %v, want ErrTxDone", err)
	}
}

// TestRemoteDeadline runs a transaction whose deadline expires
// mid-flight: the failure is a typed timeout, client and server agree,
// and the session survives for the next transaction.
func TestRemoteDeadline(t *testing.T) {
	_, _, c, stock := startEnv(t, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
	tx, err := c.Begin(ctx)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)
	o := item(stock, "late", 1, 1)
	err = tx.Update(ode.OID(1), o)
	if err == nil {
		err = tx.Commit()
	} else {
		tx.Abort()
	}
	cancel()
	if !errors.Is(err, ode.ErrTxTimeout) && !errors.Is(err, ode.ErrCanceled) {
		t.Fatalf("expired-deadline err = %v, want timeout/canceled taxonomy", err)
	}
	// The pool recovers: a fresh transaction works.
	if err := c.RunTx(context.Background(), func(tx *client.Tx) error {
		_, err := tx.PNew(stock, item(stock, "after", 1, 1))
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

// rawConn is a hand-rolled protocol client for tests that need precise
// control over the socket (abrupt disconnects, holding a session slot).
type rawConn struct {
	t  testing.TB
	nc net.Conn
	id uint64
}

func dialRaw(t testing.TB, addr string) *rawConn {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteHello(nc, wire.Version, 0); err != nil {
		t.Fatal(err)
	}
	if v, _, err := wire.ReadHello(nc); err != nil || v != wire.Version {
		t.Fatalf("handshake: v=%d err=%v", v, err)
	}
	return &rawConn{t: t, nc: nc}
}

func (rc *rawConn) roundTrip(typ byte, body []byte) *wire.Frame {
	rc.t.Helper()
	rc.id++
	if _, err := wire.WriteFrame(rc.nc, &wire.Frame{ReqID: rc.id, Type: typ, Body: body}); err != nil {
		rc.t.Fatal(err)
	}
	f, _, err := wire.ReadFrame(rc.nc, 0)
	if err != nil {
		rc.t.Fatal(err)
	}
	return f
}

func (rc *rawConn) ok(typ byte, body []byte) {
	rc.t.Helper()
	if f := rc.roundTrip(typ, body); f.Type == wire.RespErr {
		rc.t.Fatalf("command 0x%02x: %v", typ, wire.DecodeErrBody(f.Body))
	}
}

// TestDisconnectMidTxReleasesLocks is a lifecycle edge from the issue:
// a client that vanishes mid-transaction must not strand its locks.
// The server aborts the ambient transaction when the connection drops,
// and a second client's blocked write proceeds.
func TestDisconnectMidTxReleasesLocks(t *testing.T) {
	_, _, c, stock, srvAddr := startEnvAddr(t, nil)

	var oid ode.OID
	if err := c.RunTx(context.Background(), func(tx *client.Tx) error {
		var err error
		oid, err = tx.PNew(stock, item(stock, "locked", 5, 1))
		return err
	}); err != nil {
		t.Fatal(err)
	}

	// Raw client: begin, take the exclusive lock with an update, then
	// drop the socket without commit or abort.
	rc := dialRaw(t, srvAddr)
	rc.ok(wire.CmdBegin, wire.AppendUvarint(nil, 0))
	body := wire.AppendUvarint(nil, uint64(oid))
	body = wire.AppendBytes(body, object.Encode(item(stock, "locked", 6, 1)))
	rc.ok(wire.CmdUpdate, body)
	rc.nc.Close()

	// The well-behaved client's conflicting write must succeed once the
	// server reaps the dead session — well inside the deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	err := c.RunTx(ctx, func(tx *client.Tx) error {
		return tx.Update(oid, item(stock, "locked", 7, 1))
	})
	if err != nil {
		t.Fatalf("write after peer disconnect: %v (waited %v)", err, time.Since(start))
	}
	// The abandoned update was rolled back, ours applied.
	if err := c.RunTx(ctx, func(tx *client.Tx) error {
		o, err := tx.Deref(oid)
		if err != nil {
			return err
		}
		if got := o.MustGet("qty").Int(); got != 7 {
			t.Errorf("qty = %d, want 7 (dead session's 6 must be rolled back)", got)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestOverloadShed fills the session table and checks the overflow
// burst is rejected fast with the typed overload error — the wire twin
// of admission control.
func TestOverloadShed(t *testing.T) {
	_, srv, addr, _ := startServer(t, filepath.Join(t.TempDir(), "shed.odb"), &server.Options{MaxConns: 2})
	schema, _ := invSchema()

	// Occupy both slots.
	rc1, rc2 := dialRaw(t, addr), dialRaw(t, addr)
	defer rc1.nc.Close()
	defer rc2.nc.Close()
	rc1.ok(wire.CmdPing, nil)
	rc2.ok(wire.CmdPing, nil)

	// A burst over the bound: every extra connection gets ErrOverloaded
	// quickly — no hanging, no silent close.
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, 6)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := client.Dial(addr, schema, nil)
			if err != nil {
				errs[i] = err
				return
			}
			defer c.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
			defer cancel()
			errs[i] = c.Ping(ctx)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for i, err := range errs {
		if !errors.Is(err, ode.ErrOverloaded) {
			t.Errorf("burst conn %d: err = %v, want ErrOverloaded", i, err)
		}
	}
	if elapsed > 3*time.Second {
		t.Errorf("shed burst took %v, want fast rejection", elapsed)
	}
	if got := srv.Metrics().Sheds.Load(); got < 6 {
		t.Errorf("server.sheds = %d, want >= 6", got)
	}

	// Releasing a slot readmits new sessions.
	rc1.nc.Close()
	deadline := time.Now().Add(3 * time.Second)
	for {
		c, err := client.Dial(addr, schema, nil)
		if err == nil {
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			err = c.Ping(ctx)
			cancel()
			c.Close()
		}
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never released: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestKillMidCommitRecovery crashes the process after the WAL append
// but before apply (the window the issue's torture scenario names),
// then reopens: the commit must be replayed whole — both correlated
// fields updated, never torn.
func TestKillMidCommitRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kill.odb")
	db, srv, addr, stock := startServer(t, path, nil)
	schema, _ := invSchema()
	c, err := client.Dial(addr, schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var oid ode.OID
	if err := c.RunTx(context.Background(), func(tx *client.Tx) error {
		var err error
		oid, err = tx.PNew(stock, item(stock, "pair", 1, 1))
		return err
	}); err != nil {
		t.Fatal(err)
	}

	// qty and price move together; recovery must never observe one
	// without the other.
	if err := failpoint.Arm("txn.commit_apply", failpoint.Spec{Action: failpoint.ActError, OneShot: true}); err != nil {
		t.Fatal(err)
	}
	defer failpoint.DisarmAll()
	tx, err := c.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Update(oid, item(stock, "pair", 2, 2)); err != nil {
		t.Fatal(err)
	}
	err = tx.Commit()
	if err == nil {
		t.Fatal("commit succeeded despite armed apply failpoint")
	}

	// Kill the server mid-commit: drop the front end, crash the engine
	// without flushing, reopen from disk.
	srv.Close()
	db.CrashForTesting()
	db2, err := ode.Open(path, mustSchema(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if err := db2.View(func(tx *ode.Tx) error {
		o, err := tx.Deref(oid)
		if err != nil {
			return err
		}
		qty, price := o.MustGet("qty").Int(), o.MustGet("price").Float()
		if qty != int64(price) {
			t.Errorf("torn commit after recovery: qty=%d price=%v", qty, price)
		}
		if qty != 2 {
			t.Errorf("qty = %d, want 2 (the append was durable before the crash)", qty)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestKillBeforeWALCleanAbort is the twin: a crash before the WAL
// append leaves no trace — reopen sees the old state.
func TestKillBeforeWALCleanAbort(t *testing.T) {
	path := filepath.Join(t.TempDir(), "killw.odb")
	db, srv, addr, stock := startServer(t, path, nil)
	schema, _ := invSchema()
	c, err := client.Dial(addr, schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var oid ode.OID
	if err := c.RunTx(context.Background(), func(tx *client.Tx) error {
		var err error
		oid, err = tx.PNew(stock, item(stock, "pair", 1, 1))
		return err
	}); err != nil {
		t.Fatal(err)
	}

	if err := failpoint.Arm("txn.commit_wal", failpoint.Spec{Action: failpoint.ActError, OneShot: true}); err != nil {
		t.Fatal(err)
	}
	defer failpoint.DisarmAll()
	tx, err := c.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Update(oid, item(stock, "pair", 9, 9)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("commit succeeded despite armed WAL failpoint")
	}
	srv.Close()
	db.CrashForTesting()
	db2, err := ode.Open(path, mustSchema(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if err := db2.View(func(tx *ode.Tx) error {
		o, err := tx.Deref(oid)
		if err != nil {
			return err
		}
		if got := o.MustGet("qty").Int(); got != 1 {
			t.Errorf("qty = %d, want 1 (nothing was logged)", got)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func mustSchema(t testing.TB) *ode.Schema {
	t.Helper()
	schema, _ := invSchema()
	return schema
}

// TestCloseDrainsInFlightCommit starts Close while a transaction is in
// flight: the commit inside the drain window succeeds, and afterwards
// the listener is gone.
func TestCloseDrainsInFlightCommit(t *testing.T) {
	_, srv, addr, _ := startServer(t, filepath.Join(t.TempDir(), "drain.odb"), &server.Options{DrainTimeout: 3 * time.Second})
	schema, stock := invSchema()
	c, err := client.Dial(addr, schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	tx, err := c.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.PNew(stock, item(stock, "drained", 3, 3)); err != nil {
		t.Fatal(err)
	}

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	// Give Close a moment to shut the listener and enter the drain.
	time.Sleep(50 * time.Millisecond)
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit inside drain window: %v", err)
	}
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the session finished")
	}
	if _, err := net.DialTimeout("tcp", addr, 300*time.Millisecond); err == nil {
		t.Fatal("listener still accepting after Close")
	}
}

// TestPipeline batches creations and reads into single round trips and
// checks per-operation failures stay isolated in their futures.
func TestPipeline(t *testing.T) {
	_, _, c, stock := startEnv(t, nil)
	ctx := context.Background()
	tx, err := c.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	p := tx.Pipeline()
	futs := make([]*client.Future, 8)
	for i := range futs {
		futs[i] = p.PNew(stock, item(stock, "batch", int64(i), 1))
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	oids := make([]ode.OID, len(futs))
	for i, f := range futs {
		if oids[i], err = f.OID(); err != nil {
			t.Fatalf("pnew %d: %v", i, err)
		}
	}
	// Mixed batch: reads of every object plus one doomed read; the
	// failure stays in its own future.
	reads := make([]*client.Future, len(oids))
	for i, oid := range oids {
		reads[i] = p.Deref(oid)
	}
	doomed := p.Deref(ode.OID(1 << 40))
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, f := range reads {
		o, err := f.Object(c.Schema())
		if err != nil {
			t.Fatalf("deref %d: %v", i, err)
		}
		if got := o.MustGet("qty").Int(); got != int64(i) {
			t.Errorf("deref %d: qty = %d", i, got)
		}
	}
	if _, err := doomed.Object(c.Schema()); !errors.Is(err, ode.ErrNoObject) {
		t.Errorf("doomed deref err = %v, want ErrNoObject", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Operations queued after Commit must not touch the connection (it
	// belongs to the pool again); the future carries the typed failure
	// and nothing is queued.
	late := p.PNew(stock, item(stock, "late", 1, 1))
	if _, err := late.OID(); !errors.Is(err, ode.ErrTxDone) {
		t.Errorf("late pnew err = %v, want ErrTxDone", err)
	}
	if p.Len() != 0 {
		t.Errorf("late enqueue queued a frame: len = %d", p.Len())
	}
	if err := p.Flush(); err != nil {
		t.Errorf("empty flush after done: %v", err)
	}
}

// TestRemoteOQL drives the server-side O++ interpreter through a
// pinned session: state persists across Exec calls, printed output
// comes back, and statement errors are surfaced without killing the
// session.
func TestRemoteOQL(t *testing.T) {
	_, _, c, _ := startEnv(t, nil)
	ctx := context.Background()
	sess, err := c.Session(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	out, err := sess.Exec(ctx, `print(2 + 3 * 4);`)
	if err != nil {
		t.Fatal(err)
	}
	if out != "14\n" {
		t.Fatalf("output %q, want \"14\\n\"", out)
	}
	// Interpreter state persists across round trips.
	if _, err := sess.Exec(ctx, `x := 21;`); err != nil {
		t.Fatal(err)
	}
	out, err = sess.Exec(ctx, `print(x * 2);`)
	if err != nil || out != "42\n" {
		t.Fatalf("persistent state: out=%q err=%v", out, err)
	}
	// Persistent objects through the interpreter.
	out, err = sess.Exec(ctx, `
class gadget { public: int n; };
create cluster gadget;
g := pnew gadget{n: 7};
print(g.n);
`)
	if err != nil || out != "7\n" {
		t.Fatalf("oql pnew: out=%q err=%v", out, err)
	}
	// A statement error comes back typed but leaves the session alive.
	if _, err := sess.Exec(ctx, `print(undeclared_variable);`); err == nil {
		t.Fatal("bad statement succeeded")
	}
	out, err = sess.Exec(ctx, `print(x);`)
	if err != nil || out != "21\n" {
		t.Fatalf("session after error: out=%q err=%v", out, err)
	}
}

// TestMetricsOverWire checks the daemon-facing metrics surface: the
// wire metrics command returns one JSON snapshot holding both engine
// and server.* names, with the request counters advancing.
func TestMetricsOverWire(t *testing.T) {
	_, srv, c, stock := startEnv(t, nil)
	ctx := context.Background()
	var oid ode.OID
	if err := c.RunTx(ctx, func(tx *client.Tx) error {
		var err error
		oid, err = tx.PNew(stock, item(stock, "m", 1, 1))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// Two transactions deref the object: the first fetches its image
	// (CmdDeref), the second revalidates the client's cached copy
	// (CmdDerefCached). Both are derefs to the server's histogram.
	for i := 0; i < 2; i++ {
		if err := c.View(ctx, func(tx *client.Tx) error {
			_, err := tx.Deref(oid)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	if c.CacheMetrics().Hits.Load() == 0 {
		t.Fatal("second deref did not go through the client cache")
	}
	if got := srv.Metrics().LatDeref.Snapshot().Count; got != 2 {
		t.Errorf("server.req_ns.deref counted %d derefs, want 2 (one full, one cached revalidation)", got)
	}
	buf, err := c.MetricsJSON(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	if err := json.Unmarshal(buf, &snap); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	for _, name := range []string{"server.conns", "server.requests", "server.bytes_in", "server.bytes_out", "server.req_ns.pnew", "txn.commits"} {
		if _, ok := snap[name]; !ok {
			t.Errorf("metric %q missing from wire snapshot", name)
		}
	}
	if srv.Metrics().Requests.Load() == 0 {
		t.Error("server.requests did not advance")
	}
	if srv.Metrics().BytesIn.Load() == 0 || srv.Metrics().BytesOut.Load() == 0 {
		t.Error("byte counters did not advance")
	}
}

// TestRemoteRunTxRetry hammers one object from concurrent remote
// transactions: lock-upgrade deadlocks are typed retryable across the
// wire, RunTx's backoff rereuns them, and no increment is lost.
func TestRemoteRunTxRetry(t *testing.T) {
	_, _, c, stock := startEnv(t, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var oid ode.OID
	if err := c.RunTx(ctx, func(tx *client.Tx) error {
		var err error
		oid, err = tx.PNew(stock, item(stock, "ctr", 0, 1))
		return err
	}); err != nil {
		t.Fatal(err)
	}

	const workers, perWorker = 4, 15
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				err := c.RunTx(ctx, func(tx *client.Tx) error {
					o, err := tx.Deref(oid)
					if err != nil {
						return err
					}
					o.MustSet("qty", ode.Int(o.MustGet("qty").Int()+1))
					return tx.Update(oid, o)
				})
				if err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	if err := c.RunTx(ctx, func(tx *client.Tx) error {
		o, err := tx.Deref(oid)
		if err != nil {
			return err
		}
		if got := o.MustGet("qty").Int(); got != workers*perWorker {
			t.Errorf("counter = %d, want %d", got, workers*perWorker)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestSessionCloseDiscardsServerState: Session.Close must tear the
// pinned connection down rather than return it to the pool — the
// server-side interpreter state (variables, declared classes, the
// uncommitted ambient transaction and its locks) lives on the
// connection and is only discarded when the socket drops. Pooling it
// would hand all of that to the connection's next owner.
func TestSessionCloseDiscardsServerState(t *testing.T) {
	_, _, c, stock := startEnv(t, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	sess, err := c.Session(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Interpreter variable state plus an uncommitted ambient-transaction
	// write that holds a lock on the new object.
	if _, err := sess.Exec(ctx, `x := 21; s := pnew stockitem{name: "leak", qty: 1, price: 1.0};`); err != nil {
		t.Fatal(err)
	}
	sess.Close()

	// A new session (which would be handed the pooled connection had
	// Close pooled it) must not inherit the old interpreter state.
	sess2, err := c.Session(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer sess2.Close()
	if _, err := sess2.Exec(ctx, `print(x);`); err == nil {
		t.Fatal("interpreter state survived Session.Close")
	}

	// The ambient transaction died with the socket: a wire transaction
	// scans the cluster without blocking on its locks, and the
	// uncommitted pnew is invisible.
	scanCtx, scanCancel := context.WithTimeout(ctx, 5*time.Second)
	defer scanCancel()
	tx, err := c.Begin(scanCtx)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()
	n, err := tx.Count(&client.Scan{Class: stock})
	if err != nil {
		t.Fatalf("scan after session close: %v", err)
	}
	if n != 0 {
		t.Fatalf("uncommitted session write visible after close: %d rows", n)
	}
}

// TestBeginDeadlineOverflowClamped sends a deadline too large for
// time.Duration: it must not overflow to a negative duration and dodge
// the MaxDeadline clamp — the transaction still expires on schedule.
func TestBeginDeadlineOverflowClamped(t *testing.T) {
	_, _, addr, stock := startServer(t, filepath.Join(t.TempDir(), "ovf.odb"),
		&server.Options{MaxDeadline: 50 * time.Millisecond})
	rc := dialRaw(t, addr)
	defer rc.nc.Close()
	rc.ok(wire.CmdBegin, wire.AppendUvarint(nil, math.MaxUint64))
	time.Sleep(150 * time.Millisecond)
	body := wire.AppendUvarint(nil, 1)
	body = wire.AppendBytes(body, object.Encode(item(stock, "late", 1, 1)))
	f := rc.roundTrip(wire.CmdUpdate, body)
	if f.Type != wire.RespErr {
		t.Fatalf("update on expired tx: response 0x%02x, want error", f.Type)
	}
	err := wire.DecodeErrBody(f.Body)
	if !errors.Is(err, ode.ErrTxTimeout) && !errors.Is(err, ode.ErrCanceled) {
		t.Fatalf("err = %v, want deadline taxonomy (MaxDeadline clamp skipped?)", err)
	}
}

// TestCloseCancelsUnboundedLockWait: a transaction begun with no
// deadline at all (client ms=0, MaxDeadline=0) must still carry a
// cancelable context, or Close cannot interrupt its lock waits and
// shutdown hangs behind the blocked handler.
func TestCloseCancelsUnboundedLockWait(t *testing.T) {
	db, srv, addr, stock := startServer(t, filepath.Join(t.TempDir(), "wait.odb"),
		&server.Options{DrainTimeout: 200 * time.Millisecond})

	var oid ode.OID
	if err := db.RunTx(func(tx *ode.Tx) error {
		var err error
		oid, err = tx.PNew(stock, item(stock, "held", 1, 1))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// An embedded transaction takes the exclusive lock and keeps it.
	holder := db.Begin()
	if err := holder.Update(oid, item(stock, "held", 2, 1)); err != nil {
		t.Fatal(err)
	}
	defer holder.Abort()

	// Remote no-deadline transaction blocks in the write-lock wait; the
	// response is never read — the handler is parked server-side.
	rc := dialRaw(t, addr)
	defer rc.nc.Close()
	rc.ok(wire.CmdBegin, wire.AppendUvarint(nil, 0))
	body := wire.AppendUvarint(nil, uint64(oid))
	body = wire.AppendBytes(body, object.Encode(item(stock, "held", 3, 1)))
	rc.id++
	if _, err := wire.WriteFrame(rc.nc, &wire.Frame{ReqID: rc.id, Type: wire.CmdUpdate, Body: body}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // let the handler enter the lock wait

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung: the unbounded lock wait was not canceled")
	}
}
