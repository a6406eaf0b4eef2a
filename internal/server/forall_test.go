package server_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ode"
	"ode/client"
	"ode/internal/server"
	"ode/internal/wire"
)

// A forall is pulled a window at a time: the server sends 64 rows, then
// 512, then 4 096 …, each as one RespBatch frame, and scans on only when
// the client asks with CmdForallMore; any other frame ends the scan. These
// tests hold the protocol, and what a paused scan means to the rest of
// the server: Close, a vanished client, a deadline, and the latency
// metrics.

// loadItems commits n stockitems, qty = position, directly on db.
func loadItems(t testing.TB, db *ode.DB, stock *ode.Class, n int) []ode.OID {
	t.Helper()
	oids := make([]ode.OID, n)
	if err := db.RunTx(func(tx *ode.Tx) error {
		for i := range oids {
			var err error
			if oids[i], err = tx.PNew(stock, item(stock, fmt.Sprint("item-", i), int64(i), 1)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return oids
}

// read reads the next frame the server sent.
func (rc *rawConn) read() *wire.Frame {
	rc.t.Helper()
	rc.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	f, _, err := wire.ReadFrame(rc.nc, 0)
	if err != nil {
		rc.t.Fatal(err)
	}
	return f
}

// send writes one frame under id without reading.
func (rc *rawConn) send(id uint64, typ byte, body []byte) {
	rc.t.Helper()
	if _, err := wire.WriteFrame(rc.nc, &wire.Frame{ReqID: id, Type: typ, Body: body}); err != nil {
		rc.t.Fatal(err)
	}
}

// window checks f is a window frame of forall id and returns its row
// count (and, for a RespDone, the scan's total).
func window(t *testing.T, f *wire.Frame, id uint64, typ byte) (rows, total uint64) {
	t.Helper()
	if f.ReqID != id || f.Type != typ {
		if f.Type == wire.RespErr {
			t.Fatalf("request %d: %v", f.ReqID, wire.DecodeErrBody(f.Body))
		}
		t.Fatalf("frame 0x%02x for request %d, want 0x%02x for %d", f.Type, f.ReqID, typ, id)
	}
	d := wire.NewDec(f.Body)
	if typ == wire.RespDone {
		total = d.Uvarint()
	}
	rows = d.Uvarint()
	for i := uint64(0); i < rows; i++ {
		d.Uvarint()
		d.Bytes()
	}
	if d.Err() != nil || len(d.Rest()) != 0 {
		t.Fatalf("window body of %d rows: %v, %d bytes left", rows, d.Err(), len(d.Rest()))
	}
	return rows, total
}

var allStock = (&wire.ForallReq{Class: "stockitem"}).Append(nil)

// TestForallWindowsOnTheWire drives the protocol by hand: windows of 64
// and 512 rows, each waiting for forall-more; the rest on the RespDone
// with the total; a frame other than forall-more ends a paused scan
// with no reply of its own, after which forall-more for it is a
// protocol error; and a count is a RespDone with the total and no rows.
func TestForallWindowsOnTheWire(t *testing.T) {
	db, _, addr, stock := startServer(t, filepath.Join(t.TempDir(), "win.odb"), nil)
	loadItems(t, db, stock, 700)
	rc := dialRaw(t, addr)
	defer rc.nc.Close()
	rc.ok(wire.CmdBegin, wire.AppendUvarint(nil, 0))

	rc.send(10, wire.CmdForall, allStock)
	if n, _ := window(t, rc.read(), 10, wire.RespBatch); n != 64 {
		t.Fatalf("first window %d rows, want 64", n)
	}
	rc.send(10, wire.CmdForallMore, nil)
	if n, _ := window(t, rc.read(), 10, wire.RespBatch); n != 512 {
		t.Fatalf("second window %d rows, want 512", n)
	}
	rc.send(10, wire.CmdForallMore, nil)
	if n, total := window(t, rc.read(), 10, wire.RespDone); n != 700-576 || total != 700 {
		t.Fatalf("last window %d rows of %d, want %d of 700", n, total, 700-576)
	}

	// A ping ends a paused scan: its reply is the next frame.
	rc.send(11, wire.CmdForall, allStock)
	window(t, rc.read(), 11, wire.RespBatch)
	rc.send(12, wire.CmdPing, nil)
	if f := rc.read(); f.ReqID != 12 || f.Type != wire.RespOK {
		t.Fatalf("ping after a paused forall: 0x%02x for %d", f.Type, f.ReqID)
	}
	rc.send(11, wire.CmdForallMore, nil)
	if f := rc.read(); f.Type != wire.RespErr || !errors.Is(wire.DecodeErrBody(f.Body), wire.ErrProto) {
		t.Fatalf("forall-more for an ended scan: 0x%02x, want a protocol error", f.Type)
	}

	// A new forall ends a paused one and starts from the first row.
	rc.send(13, wire.CmdForall, allStock)
	window(t, rc.read(), 13, wire.RespBatch)
	rc.send(14, wire.CmdForall, (&wire.ForallReq{Class: "stockitem", Flags: wire.ForallCount}).Append(nil))
	if n, total := window(t, rc.read(), 14, wire.RespDone); n != 0 || total != 700 {
		t.Fatalf("count: %d rows, total %d; want 0 rows, total 700", n, total)
	}
}

// TestHelloRefusesVersion1: a version-1 peer would wait forever on a
// paused scan, so the hello turns it away with a version-0 reply.
func TestHelloRefusesVersion1(t *testing.T) {
	_, _, addr, _ := startServer(t, filepath.Join(t.TempDir(), "v1.odb"), nil)
	nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := wire.WriteHello(nc, 1, 0); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if v, _, err := wire.ReadHello(nc); err != nil || v != 0 {
		t.Fatalf("hello to a version-1 client: version %d, %v; want 0", v, err)
	}
}

// pausedForall starts a forall over stock through c and returns once the
// client holds the first window and the server waits for more; release
// lets the callback go on, and its first row's answer is more. done
// receives the forall's outcome once the transaction has been aborted.
func pausedForall(t *testing.T, c *client.Client, stock *ode.Class, more bool) (release func(), done <-chan error) {
	t.Helper()
	tx, err := c.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	first, proceed, out := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	go func() {
		rows := 0
		_, err := tx.Forall(&client.Scan{Class: stock}, func(ode.OID, *ode.Object) (bool, error) {
			if rows++; rows == 1 {
				close(first)
				<-proceed
				return more, nil
			}
			return true, nil
		})
		tx.Abort()
		out <- err
	}()
	select {
	case <-first:
	case <-time.After(5 * time.Second):
		t.Fatal("the forall's first row never arrived")
	}
	return func() { close(proceed) }, out
}

// serverLog collects a server's log lines.
type serverLog struct {
	mu    sync.Mutex
	lines []string
}

func (l *serverLog) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

// quiet fails t if the server logged anything: a session that ends while
// its forall waits for more has ended normally.
func (l *serverLog) quiet(t *testing.T) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.lines) > 0 {
		t.Errorf("server logged %q", l.lines)
	}
}

const drain = 200 * time.Millisecond

// closeDraining closes srv and checks it waited out the drain window for
// a session with an open transaction, and not much longer.
func closeDraining(t *testing.T, srv *server.Server) {
	t.Helper()
	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < drain || took > drain+time.Second {
		t.Errorf("Close took %v, want the drain window %v and a little", took, drain)
	}
}

// TestCloseDuringPausedForall: a session paused between windows holds a
// transaction, so Close drains it like any other and then forces it —
// within DrainTimeout and a little — and the client learns why with a
// typed error, not a closed socket, and the server logs nothing.
func TestCloseDuringPausedForall(t *testing.T) {
	var log serverLog
	db, srv, c, stock := startEnv(t, &server.Options{DrainTimeout: drain, Logf: log.logf})
	loadItems(t, db, stock, 100)
	release, done := pausedForall(t, c, stock, true)

	closeDraining(t, srv)
	release()
	select {
	case err := <-done:
		if !errors.Is(err, ode.ErrDBClosed) {
			t.Fatalf("forall after Close: %v, want ErrDBClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the forall did not return after Close")
	}
	log.quiet(t)
}

// TestCloseAfterStoppedForall: a client that stopped its scan has sent
// nothing the server could see, so to the server the scan is still
// paused. Close forces the session all the same, and the client's next
// request in the transaction fails with the typed error.
func TestCloseAfterStoppedForall(t *testing.T) {
	var log serverLog
	db, srv, c, stock := startEnv(t, &server.Options{DrainTimeout: drain, Logf: log.logf})
	loadItems(t, db, stock, 100)
	tx, err := c.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n, err := tx.Forall(&client.Scan{Class: stock}, func(ode.OID, *ode.Object) (bool, error) {
		return false, nil
	}); n != 1 || err != nil {
		t.Fatalf("stopped forall: %d rows, %v; want 1 row", n, err)
	}

	closeDraining(t, srv)
	if err := tx.Commit(); !errors.Is(err, ode.ErrDBClosed) {
		t.Fatalf("commit after Close: %v, want ErrDBClosed", err)
	}
	log.quiet(t)
}

// TestDisconnectWhilePausedReleasesLocks: a client that vanishes while
// its scan waits for more gets the server's read error, which aborts its
// transaction, releases the shared locks the window took, and is not
// logged.
func TestDisconnectWhilePausedReleasesLocks(t *testing.T) {
	var log serverLog
	db, srv, c, stock, addr := startEnvAddr(t, &server.Options{Logf: log.logf})
	oids := loadItems(t, db, stock, 100)
	rc := dialRaw(t, addr)
	rc.ok(wire.CmdBegin, wire.AppendUvarint(nil, 0))
	rc.send(2, wire.CmdForall, allStock)
	window(t, rc.read(), 2, wire.RespBatch) // row 0 is S-locked now
	rc.nc.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.RunTx(ctx, func(tx *client.Tx) error {
		return tx.Update(oids[0], item(stock, "taken", 1, 1))
	}); err != nil {
		t.Fatalf("update of a row the vanished scan had locked: %v", err)
	}
	// The update can commit before the vanished session has finished
	// ending: Close waits for every session to end.
	srv.Close()
	log.quiet(t)
}

// TestForallWindowBoundsBytes: a window closes at 1 MiB of rows as well
// as at its row count, so a scan of large objects sends no frame near the
// client's limit (wire.DefaultMaxFrame, 8 MiB). Here 4 200 rows of about
// 2 KB: a 4 096-row window of them would be over 8 MiB.
func TestForallWindowBoundsBytes(t *testing.T) {
	const rows, size = 4200, 2048
	db, _, c, stock, addr := startEnvAddr(t, nil)
	name := strings.Repeat("x", size)
	if err := db.RunTx(func(tx *ode.Tx) error {
		for i := 0; i < rows; i++ {
			if _, err := tx.PNew(stock, item(stock, name, int64(i), 1)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	rc := dialRaw(t, addr)
	defer rc.nc.Close()
	rc.ok(wire.CmdBegin, wire.AppendUvarint(nil, 0))
	rc.send(2, wire.CmdForall, allStock)
	var got uint64
	for frames := 1; ; frames++ {
		f := rc.read()
		if len(f.Body) > 1<<20+2*size {
			t.Fatalf("frame %d: %d bytes, want at most 1 MiB and a row", frames, len(f.Body))
		}
		typ := byte(wire.RespBatch)
		if f.Type == wire.RespDone {
			typ = wire.RespDone
		}
		n, total := window(t, f, 2, typ)
		got += n
		if typ == wire.RespDone {
			if got != rows || total != rows {
				t.Fatalf("%d rows in %d frames, total %d; want %d", got, frames, total, rows)
			}
			break
		}
		rc.send(2, wire.CmdForallMore, nil)
	}

	tx, err := c.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()
	oids, _, err := tx.Collect(&client.Scan{Class: stock})
	if err != nil || len(oids) != rows {
		t.Fatalf("collect: %d rows, %v; want %d", len(oids), err, rows)
	}
}

// TestDeadlineExpiresWhilePaused: the transaction's deadline keeps
// running while the scan waits, and the forall-more that comes too late
// is answered with ErrTxTimeout.
func TestDeadlineExpiresWhilePaused(t *testing.T) {
	db, _, addr, stock := startServer(t, filepath.Join(t.TempDir(), "dl.odb"), nil)
	loadItems(t, db, stock, 100)
	rc := dialRaw(t, addr)
	defer rc.nc.Close()
	rc.ok(wire.CmdBegin, wire.AppendUvarint(nil, 50)) // ms
	rc.send(2, wire.CmdForall, allStock)
	window(t, rc.read(), 2, wire.RespBatch)
	time.Sleep(150 * time.Millisecond)
	rc.send(2, wire.CmdForallMore, nil)
	f := rc.read()
	if f.ReqID != 2 || f.Type != wire.RespErr || !errors.Is(wire.DecodeErrBody(f.Body), ode.ErrTxTimeout) {
		t.Fatalf("forall-more after the deadline: 0x%02x for %d, want ErrTxTimeout", f.Type, f.ReqID)
	}
}

// TestForallLatencyExcludesPause: server.req_ns.forall times the scan,
// not the client's think time between windows, and the abort that ends
// the stopped scan is timed under its own command.
func TestForallLatencyExcludesPause(t *testing.T) {
	const think = 100 * time.Millisecond
	db, srv, c, stock := startEnv(t, nil)
	loadItems(t, db, stock, 100)
	release, done := pausedForall(t, c, stock, false)
	time.Sleep(think)
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	m := srv.Metrics()
	if n, sum := m.LatForall.Count(), m.LatForall.Sum(); n != 1 || sum >= think {
		t.Errorf("server.req_ns.forall: %d foralls, %v; want 1, under the %v the client thought", n, sum, think)
	}
	// The abort is timed once its reply is on its way: wait for it.
	for deadline := time.Now().Add(5 * time.Second); m.LatAbort.Count() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := m.LatAbort.Count(); n != 1 {
		t.Errorf("server.req_ns.abort counted %d aborts, want 1", n)
	}
}
