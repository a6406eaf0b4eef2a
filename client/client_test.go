package client_test

import (
	"context"
	"errors"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ode"
	"ode/client"
	"ode/internal/server"
	"ode/internal/wire"
)

// gadgetSchema builds the test schema; the client must register the
// identical class list the server did (docs/SERVER.md).
func gadgetSchema() (*ode.Schema, *ode.Class) {
	s := ode.NewSchema()
	c := ode.NewClass("gadget").
		Field("name", ode.TString).
		Field("qty", ode.TInt).
		Register(s)
	return s, c
}

// startServer serves a fresh database on loopback and returns a
// connected client.
func startServer(t *testing.T) (*client.Client, *ode.Class) {
	t.Helper()
	schema, gadget := gadgetSchema()
	db, err := ode.Open(filepath.Join(t.TempDir(), "c.odb"), schema, &ode.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateCluster(gadget); err != nil {
		t.Fatal(err)
	}
	srv := server.New(db, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(nil)
	t.Cleanup(func() {
		srv.Close()
		db.Close()
	})

	cs, cc := gadgetSchema()
	_ = cc
	c, err := client.Dial(addr.String(), cs, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, cc
}

func gadget(c *ode.Class, name string, qty int64) *ode.Object {
	o := ode.NewObject(c)
	o.MustSet("name", ode.Str(name))
	o.MustSet("qty", ode.Int(qty))
	return o
}

func TestClientEndToEnd(t *testing.T) {
	c, cls := startServer(t)
	ctx := context.Background()

	if err := c.Ping(ctx); err != nil {
		t.Fatalf("ping: %v", err)
	}

	var oid ode.OID
	err := c.RunTx(ctx, func(tx *client.Tx) error {
		var err error
		if oid, err = tx.PNew(cls, gadget(cls, "widget", 3)); err != nil {
			return err
		}
		o, err := tx.Deref(oid)
		if err != nil {
			return err
		}
		o.MustSet("qty", ode.Int(5))
		return tx.Update(oid, o)
	})
	if err != nil {
		t.Fatalf("RunTx: %v", err)
	}

	// Pipelined writes, then a streamed scan over everything.
	tx, err := c.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	p := tx.Pipeline()
	var futs []*client.Future
	for i := 0; i < 10; i++ {
		futs = append(futs, p.PNew(cls, gadget(cls, "bulk", int64(i))))
	}
	if err := p.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	for _, f := range futs {
		if _, err := f.OID(); err != nil {
			t.Fatalf("pipelined pnew: %v", err)
		}
	}
	n, err := tx.Count(&client.Scan{Class: cls})
	if err != nil {
		t.Fatalf("count: %v", err)
	}
	if n != 11 {
		t.Fatalf("count = %d, want 11", n)
	}
	got := 0
	_, err = tx.Forall(&client.Scan{
		Class: cls, Field: "qty", Op: client.CmpGe, Value: ode.Int(5),
	}, func(id ode.OID, o *ode.Object) (bool, error) {
		got++
		if q := o.MustGet("qty").Int(); q < 5 {
			t.Errorf("scan yielded qty %d", q)
		}
		return true, nil
	})
	if err != nil {
		t.Fatalf("forall: %v", err)
	}
	if got != 6 { // qty 5 plus bulk 5..9
		t.Fatalf("scan matched %d, want 6", got)
	}
	plan, err := tx.Explain(&client.Scan{Class: cls})
	if err != nil || !strings.Contains(plan, "gadget") {
		t.Fatalf("explain = %q, %v", plan, err)
	}
	ref, err := tx.NewVersion(oid)
	if err != nil || ref.OID != oid {
		t.Fatalf("newversion = %+v, %v", ref, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}

	// Typed errors survive the wire.
	err = c.RunTx(ctx, func(tx *client.Tx) error {
		_, err := tx.Deref(ode.OID(1 << 40))
		return err
	})
	if !errors.Is(err, ode.ErrNoObject) {
		t.Fatalf("bogus deref: %v, want ErrNoObject", err)
	}

	snap, err := c.MetricsJSON(ctx)
	if err != nil || !strings.Contains(string(snap), "server.requests") {
		t.Fatalf("metrics: %v (%d bytes)", err, len(snap))
	}
}

func TestClientSessionOQL(t *testing.T) {
	c, _ := startServer(t)
	ctx := context.Background()
	sess, err := c.Session(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	out, err := sess.Exec(ctx, "x := 6 * 7; print(x);")
	if err != nil {
		t.Fatalf("exec: %v", err)
	}
	if !strings.Contains(out, "42") {
		t.Fatalf("output = %q, want 42", out)
	}
}

func TestClientDialFailure(t *testing.T) {
	s, _ := gadgetSchema()
	if _, err := client.Dial("127.0.0.1:1", s, &client.Options{DialTimeout: time.Second}); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

// TestShortBeginReplyBreaksConnection: every server the hello admits
// sends the fencing epoch and the applied LSN in its begin reply, so a
// reply without them is a protocol error, and the connection it
// arrived on is closed rather than pooled. The transaction sends
// nothing more: a later operation returns the error that broke it, and
// Abort closes the connection without a round trip.
func TestShortBeginReplyBreaksConnection(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	closed := make(chan struct{})
	var got []byte // the request types the server read, until closed
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		if _, _, err := wire.ReadHello(nc); err != nil || wire.WriteHello(nc, wire.Version, 0) != nil {
			return
		}
		for {
			f, _, err := wire.ReadFrame(nc, wire.DefaultMaxFrame)
			if err != nil {
				close(closed) // the client hung up
				return
			}
			got = append(got, f.Type)
			var body []byte
			if f.Type == wire.CmdBegin {
				body = wire.AppendUvarint(nil, 7) // the id alone
			}
			if _, err := wire.WriteFrame(nc, &wire.Frame{ReqID: f.ReqID, Type: wire.RespOK, Body: body}); err != nil {
				return
			}
		}
	}()
	schema, cls := gadgetSchema()
	c, err := client.Dial(ln.Addr().String(), schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tx, err := c.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	_, broke := tx.PNew(cls, gadget(cls, "x", 1))
	if !errors.Is(broke, wire.ErrProto) {
		t.Fatalf("first request after a short begin reply: %v, want a protocol error", broke)
	}
	if _, err := tx.Deref(1); err != broke {
		t.Fatalf("Deref after the connection broke: %v, want the error that broke it (%v)", err, broke)
	}
	if err := tx.Commit(); err != broke {
		t.Fatalf("Commit after the connection broke: %v, want the error that broke it (%v)", err, broke)
	}
	tx.Abort()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("the connection was kept after a short begin reply")
	}
	if want := []byte{wire.CmdBegin, wire.CmdPNew}; string(got) != string(want) {
		t.Fatalf("the server read requests %x, want %x: nothing after the reply that broke the connection", got, want)
	}
}
