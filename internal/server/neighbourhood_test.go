package server_test

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"ode"
	"ode/client"
	"ode/internal/object"
	"ode/internal/server"
	"ode/internal/wire"
)

// A deref-cached request carries a cached neighbourhood: the entry the
// client asked for, locked and answered as a plain deref would be, and
// speculative entries the server locks only when it can do so without
// waiting. These tests hold the speculative half to its promises:
// never wait, never fail the request, and report each entry truthfully.

func cellSchema() (*ode.Schema, *ode.Class) {
	s := ode.NewSchema()
	cell := ode.NewClass("cell").
		Field("value", ode.TInt).
		Field("next", ode.RefTo("cell")).
		Register(s)
	ode.NewClass("node").
		Field("kids", ode.SetOfType(ode.RefTo("node"))).
		Register(s)
	return s, cell
}

// startChainServer serves a database holding one chain of n cells,
// cell i holding value i, and returns the cells' oids in chain order.
func startChainServer(t testing.TB, n int) (*ode.DB, string, []ode.OID) {
	t.Helper()
	schema, cell := cellSchema()
	db, err := ode.Open(filepath.Join(t.TempDir(), "chain.odb"), schema, &ode.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	node, _ := schema.ClassNamed("node")
	for _, c := range []*ode.Class{cell, node} {
		if err := db.CreateCluster(c); err != nil {
			t.Fatal(err)
		}
	}
	oids := make([]ode.OID, n)
	if err := db.RunTx(func(tx *ode.Tx) error {
		next := ode.NilOID
		for i := n - 1; i >= 0; i-- {
			var err error
			if oids[i], err = tx.PNew(cell, setCell(cell, ode.NewObject(cell), int64(i), next)); err != nil {
				return err
			}
			next = oids[i]
		}
		return nil
	}); err != nil {
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
	return db, addr.String(), oids
}

func setCell(cell *ode.Class, o *ode.Object, value int64, next ode.OID) *ode.Object {
	o.MustSet("value", ode.Int(value))
	o.MustSet("next", ode.Ref(next))
	return o
}

// chainRefs is the deref-cached entry list for the whole chain as it is
// committed now: what a client that read it once would send.
func chainRefs(t *testing.T, db *ode.DB, oids []ode.OID) []wire.CachedRef {
	t.Helper()
	refs := make([]wire.CachedRef, len(oids))
	if err := db.View(func(tx *ode.Tx) error {
		for i, oid := range oids {
			o, err := tx.Deref(oid)
			if err != nil {
				return err
			}
			refs[i] = wire.CachedRef{OID: uint64(oid), Tag: object.ImageTag(object.Encode(o))}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return refs
}

// neighbourStatuses splits a deref-cached reply's status list: one
// status per speculative entry, and the image of each modified one.
func neighbourStatuses(t *testing.T, f *wire.Frame, n int) ([]byte, map[int][]byte) {
	t.Helper()
	if f.Type == wire.RespErr {
		t.Fatalf("deref-cached failed: %v", wire.DecodeErrBody(f.Body))
	}
	d := wire.NewDec(f.Body)
	if f.Type == wire.RespObject {
		d.Bytes()
	}
	statuses, images := make([]byte, n), map[int][]byte{}
	for i := range statuses {
		if statuses[i] = d.Byte(); statuses[i] == wire.CachedModified {
			images[i+1] = append([]byte(nil), d.Bytes()...)
		}
	}
	if d.Err() != nil || len(d.Rest()) != 0 {
		t.Fatalf("reply body does not hold %d statuses: %v, %d bytes left", n, d.Err(), len(d.Rest()))
	}
	return statuses, images
}

// A writer holds the X-lock on cell k: the reader's walk from cell 0
// comes back at once with k skipped and every other cell proven, and
// the reader's own deref of k then waits for the writer as it always
// has.
func TestNeighbourhoodSkipsBusyLock(t *testing.T) {
	const n, k = 8, 5
	db, addr, oids := startChainServer(t, n)
	refs := chainRefs(t, db, oids)
	_, cell := cellSchema()
	writer := db.Begin()
	defer writer.Abort()
	o, err := writer.Deref(oids[k])
	if err != nil {
		t.Fatal(err)
	}
	if err := writer.Update(oids[k], setCell(cell, o, 500, oids[k+1])); err != nil {
		t.Fatal(err)
	}
	waitsBefore := db.Metrics().Txn.LockWaits.Load()

	rc := dialRaw(t, addr)
	defer rc.nc.Close()
	rc.ok(wire.CmdBegin, wire.AppendUvarint(nil, 0))
	start := time.Now()
	f := rc.roundTrip(wire.CmdDerefCached, wire.AppendDerefCached(nil, refs))
	if took := time.Since(start); took > time.Second {
		t.Fatalf("the walk took %v: a speculative entry waited", took)
	}
	if f.Type != wire.RespOK {
		t.Fatalf("reply 0x%02x, want RespOK: cell 0 is unchanged", f.Type)
	}
	statuses, _ := neighbourStatuses(t, f, n-1)
	for i, st := range statuses {
		want := wire.CachedProven
		if i+1 == k {
			want = wire.CachedSkipped
		}
		if st != want {
			t.Errorf("cell %d: status %d, want %d", i+1, st, want)
		}
	}
	if got := db.Metrics().Txn.LockWaits.Load(); got != waitsBefore {
		t.Fatalf("txn.lock_waits moved %d -> %d during the walk", waitsBefore, got)
	}

	// The skipped cell is the reader's to read: that deref waits.
	reply := make(chan *wire.Frame, 1)
	go func() {
		f, _, err := wire.ReadFrame(rc.nc, 0)
		if err != nil {
			t.Error(err)
		}
		reply <- f
	}()
	if _, err := wire.WriteFrame(rc.nc, &wire.Frame{ReqID: 99, Type: wire.CmdDeref, Body: wire.AppendUvarint(nil, uint64(oids[k]))}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-reply:
		t.Fatal("deref of the X-locked cell did not wait for the writer")
	case <-time.After(50 * time.Millisecond):
	}
	if err := writer.Commit(); err != nil {
		t.Fatal(err)
	}
	f = <-reply
	if f.Type != wire.RespObject {
		t.Fatalf("deref after the writer committed: reply 0x%02x", f.Type)
	}
	got, err := object.Decode(db.Schema(), wire.NewDec(f.Body).Bytes())
	if err != nil || got.MustGet("value").Int() != 500 {
		t.Fatalf("deref after the writer committed = %v, %v; want value 500", got, err)
	}
}

// A neighbour deleted since the client cached it is skipped, and one
// updated since comes back modified with its new image; neither fails
// the request. A requested entry that is gone is the request's error,
// as it always was.
func TestNeighbourhoodDeletedAndModified(t *testing.T) {
	const n, gone, moved = 6, 2, 4
	db, addr, oids := startChainServer(t, n)
	refs := chainRefs(t, db, oids)
	_, cell := cellSchema()
	if err := db.RunTx(func(tx *ode.Tx) error {
		o, err := tx.Deref(oids[moved])
		if err != nil {
			return err
		}
		if err := tx.Update(oids[moved], setCell(cell, o, 400, oids[moved+1])); err != nil {
			return err
		}
		return tx.PDelete(oids[gone])
	}); err != nil {
		t.Fatal(err)
	}

	rc := dialRaw(t, addr)
	defer rc.nc.Close()
	rc.ok(wire.CmdBegin, wire.AppendUvarint(nil, 0))
	statuses, images := neighbourStatuses(t, rc.roundTrip(wire.CmdDerefCached, wire.AppendDerefCached(nil, refs)), n-1)
	for i, st := range statuses {
		want := wire.CachedProven
		switch i + 1 {
		case gone:
			want = wire.CachedSkipped
		case moved:
			want = wire.CachedModified
		}
		if st != want {
			t.Errorf("cell %d: status %d, want %d", i+1, st, want)
		}
	}
	if o, err := object.Decode(db.Schema(), images[moved]); err != nil || o.MustGet("value").Int() != 400 {
		t.Fatalf("modified cell's image = %v, %v; want value 400", o, err)
	}

	f := rc.roundTrip(wire.CmdDerefCached, wire.AppendDerefCached(nil, refs[gone:]))
	if err := wire.DecodeErrBody(f.Body); f.Type != wire.RespErr || !errors.Is(err, ode.ErrNoObject) {
		t.Fatalf("deref-cached of a deleted cell: reply 0x%02x %v, want ErrNoObject", f.Type, err)
	}
}

// Through the client: a neighbour committed by someone else after the
// reader's cache warmed comes back modified in the walk's one frame, and
// the walk then reads the new value locally — begin and that frame are
// one round trip, the abort the other, and nothing is a miss.
func TestNeighbourhoodModifiedServedLocally(t *testing.T) {
	const n, moved = 10, 6
	db, addr, oids := startChainServer(t, n)
	schema, cell := cellSchema()
	c, err := client.Dial(addr, schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	walk := func() []int64 {
		var values []int64
		if err := c.View(context.Background(), func(tx *client.Tx) error {
			for oid := oids[0]; oid != ode.NilOID; {
				o, err := tx.Deref(oid)
				if err != nil {
					return err
				}
				values = append(values, o.MustGet("value").Int())
				oid, _ = o.MustGet("next").AnyOID()
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return values
	}
	walk()
	if err := db.RunTx(func(tx *ode.Tx) error {
		o, err := tx.Deref(oids[moved])
		if err != nil {
			return err
		}
		return tx.Update(oids[moved], setCell(cell, o, 600, oids[moved+1]))
	}); err != nil {
		t.Fatal(err)
	}
	met := c.CacheMetrics()
	trips, misses, hits := met.RoundTrips.Load(), met.Misses.Load(), met.Hits.Load()
	values := walk()
	for i, v := range values {
		want := int64(i)
		if i == moved {
			want = 600
		}
		if v != want {
			t.Errorf("cell %d = %d, want %d", i, v, want)
		}
	}
	if len(values) != n {
		t.Fatalf("walked %d cells, want %d", len(values), n)
	}
	if d := met.RoundTrips.Load() - trips; d != 2 {
		t.Errorf("the walk took %d round trips, want 2", d)
	}
	if d := met.Misses.Load() - misses; d != 0 {
		t.Errorf("the walk missed %d times, want 0", d)
	}
	if d := met.Hits.Load() - hits; d != n {
		t.Errorf("the walk hit %d times, want %d", d, n)
	}
}

// A graph larger than one frame is revalidated a frame at a time in
// whatever order the program visits it: a depth-first walk of a
// 127-node binary tree meets, at its seventh deref, a leaf the first
// frame's breadth-first 64 did not reach, and that deref's frame
// resumes the cut-off walk and carries the other 63 leaves. Two frames,
// the first with the begin, then the abort: three round trips.
func TestNeighbourhoodResumesAcrossFrames(t *testing.T) {
	db, addr, _ := startChainServer(t, 1)
	schema, _ := cellSchema()
	node, _ := schema.ClassNamed("node")
	const depth = 7 // levels; 2^7-1 nodes
	var root ode.OID
	if err := db.RunTx(func(tx *ode.Tx) error {
		var build func(level int) (ode.OID, error)
		build = func(level int) (ode.OID, error) {
			o := ode.NewObject(node)
			for k := 0; level < depth-1 && k < 2; k++ {
				kid, err := build(level + 1)
				if err != nil {
					return ode.NilOID, err
				}
				o.MustGet("kids").Set().Insert(ode.Ref(kid))
			}
			return tx.PNew(node, o)
		}
		var err error
		root, err = build(0)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(addr, schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dfs := func() int {
		visited := 0
		if err := c.View(context.Background(), func(tx *client.Tx) error {
			var visit func(oid ode.OID) error
			visit = func(oid ode.OID) error {
				o, err := tx.Deref(oid)
				if err != nil {
					return err
				}
				visited++
				for _, kid := range o.MustGet("kids").Set().Elems() {
					if err := visit(kid.OID()); err != nil {
						return err
					}
				}
				return nil
			}
			return visit(root)
		}); err != nil {
			t.Fatal(err)
		}
		return visited
	}
	dfs()
	met := c.CacheMetrics()
	trips, misses := met.RoundTrips.Load(), met.Misses.Load()
	if n := dfs(); n != 1<<depth-1 {
		t.Fatalf("visited %d nodes, want %d", n, 1<<depth-1)
	}
	if d := met.RoundTrips.Load() - trips; d != 3 {
		t.Errorf("the second walk took %d round trips, want 3", d)
	}
	if d := met.Misses.Load() - misses; d != 0 {
		t.Errorf("the second walk missed %d times, want 0", d)
	}
}

// revals reads the server.reval_* counters: proven, modified, skipped.
func revals(db *ode.DB) [3]uint64 {
	snap := db.MetricsRegistry().Snapshot()
	var out [3]uint64
	for i, name := range []string{"server.reval_proven", "server.reval_modified", "server.reval_skipped"} {
		out[i], _ = snap[name].(uint64)
	}
	return out
}

// cellValue decodes an image a reply carried and returns its value.
func cellValue(t *testing.T, db *ode.DB, image []byte) int64 {
	t.Helper()
	o, err := object.Decode(db.Schema(), image)
	if err != nil {
		t.Fatal(err)
	}
	return o.MustGet("value").Int()
}

// A cell the remote transaction itself updated is answered from its
// write set, as its deref would be: the committed image's tag is not
// proven, neither as the requested entry nor as a neighbour, and the
// image sent back is the buffered one, whose own tag then proves.
func TestNeighbourhoodOwnWriteAnswersBuffered(t *testing.T) {
	const n, mine = 4, 2
	db, addr, oids := startChainServer(t, n)
	refs := chainRefs(t, db, oids)
	_, cell := cellSchema()
	before := revals(db)

	rc := dialRaw(t, addr)
	defer rc.nc.Close()
	rc.ok(wire.CmdBegin, wire.AppendUvarint(nil, 0))
	buffered := object.Encode(setCell(cell, ode.NewObject(cell), 700, oids[mine+1]))
	rc.ok(wire.CmdUpdate, wire.AppendBytes(wire.AppendUvarint(nil, uint64(oids[mine])), buffered))

	f := rc.roundTrip(wire.CmdDerefCached, wire.AppendDerefCached(nil, refs[mine:mine+1]))
	if f.Type != wire.RespObject {
		t.Fatalf("requested entry written in this transaction: reply 0x%02x, want RespObject", f.Type)
	}
	if v := cellValue(t, db, wire.NewDec(f.Body).Bytes()); v != 700 {
		t.Fatalf("requested entry's image holds %d, want the buffered 700", v)
	}

	statuses, images := neighbourStatuses(t, rc.roundTrip(wire.CmdDerefCached, wire.AppendDerefCached(nil, refs)), n-1)
	for i, st := range statuses {
		want := wire.CachedProven
		if i+1 == mine {
			want = wire.CachedModified
		}
		if st != want {
			t.Errorf("cell %d: status %d, want %d", i+1, st, want)
		}
	}
	if v := cellValue(t, db, images[mine]); v != 700 {
		t.Fatalf("neighbour's image holds %d, want the buffered 700", v)
	}

	own := []wire.CachedRef{{OID: uint64(oids[mine]), Tag: object.ImageTag(buffered)}}
	if f := rc.roundTrip(wire.CmdDerefCached, wire.AppendDerefCached(nil, own)); f.Type != wire.RespOK {
		t.Fatalf("the buffered image's own tag: reply 0x%02x, want RespOK", f.Type)
	}
	after := revals(db)
	if got, want := [3]uint64{after[0] - before[0], after[1] - before[1], after[2] - before[2]}, [3]uint64{1 + 3, 1 + 1, 0}; got != want {
		t.Fatalf("server.reval_{proven,modified,skipped} moved by %v, want %v", got, want)
	}
}

// A revalidation memoizes each cell's tag in the engine's cache; a
// commit by another session then replaces the cell's entry, and the
// next revalidation of the old tag answers modified with the committed
// image, as the requested entry and as a neighbour.
func TestNeighbourhoodMemoizedTagThenCommit(t *testing.T) {
	const n, moved = 5, 3
	db, addr, oids := startChainServer(t, n)
	refs := chainRefs(t, db, oids)
	_, cell := cellSchema()
	before := revals(db)

	rc := dialRaw(t, addr)
	defer rc.nc.Close()
	rc.ok(wire.CmdBegin, wire.AppendUvarint(nil, 0))
	statuses, _ := neighbourStatuses(t, rc.roundTrip(wire.CmdDerefCached, wire.AppendDerefCached(nil, refs)), n-1)
	for i, st := range statuses {
		if st != wire.CachedProven {
			t.Fatalf("cell %d: status %d before any commit, want proven", i+1, st)
		}
	}
	rc.ok(wire.CmdAbort, nil)

	if err := db.RunTx(func(tx *ode.Tx) error {
		o, err := tx.Deref(oids[moved])
		if err != nil {
			return err
		}
		return tx.Update(oids[moved], setCell(cell, o, 300, oids[moved+1]))
	}); err != nil {
		t.Fatal(err)
	}

	rc.ok(wire.CmdBegin, wire.AppendUvarint(nil, 0))
	statuses, images := neighbourStatuses(t, rc.roundTrip(wire.CmdDerefCached, wire.AppendDerefCached(nil, refs)), n-1)
	for i, st := range statuses {
		want := wire.CachedProven
		if i+1 == moved {
			want = wire.CachedModified
		}
		if st != want {
			t.Errorf("cell %d: status %d, want %d", i+1, st, want)
		}
	}
	if v := cellValue(t, db, images[moved]); v != 300 {
		t.Fatalf("modified neighbour's image holds %d, want 300", v)
	}
	f := rc.roundTrip(wire.CmdDerefCached, wire.AppendDerefCached(nil, refs[moved:]))
	if f.Type != wire.RespObject {
		t.Fatalf("requested entry committed since: reply 0x%02x, want RespObject", f.Type)
	}
	if v := cellValue(t, db, wire.NewDec(f.Body).Bytes()); v != 300 {
		t.Fatalf("requested entry's image holds %d, want 300", v)
	}
	after := revals(db)
	if got, want := [3]uint64{after[0] - before[0], after[1] - before[1], after[2] - before[2]}, [3]uint64{n + (n - 1) + 1, 1 + 1, 0}; got != want {
		t.Fatalf("server.reval_{proven,modified,skipped} moved by %v, want %v", got, want)
	}
}

// FuzzDerefCachedBody drives the deref-cached handler with arbitrary
// entry lists. Whatever the body, the reply is one well-formed answer —
// a malformed list (truncated inside an entry, empty, more than
// wire.MaxDerefCached entries) a protocol error — and the session
// survives to answer the next request.
func FuzzDerefCachedBody(f *testing.F) {
	one := wire.AppendDerefCached(nil, []wire.CachedRef{{OID: 1, Tag: 7}})
	three := wire.AppendDerefCached(nil, []wire.CachedRef{{OID: 1, Tag: 7}, {OID: 2, Tag: 8}, {OID: 3, Tag: 9}})
	over := make([]wire.CachedRef, wire.MaxDerefCached+1)
	for i := range over {
		over[i] = wire.CachedRef{OID: uint64(i + 1), Tag: 1}
	}
	f.Add(one)
	f.Add(three)
	f.Add(three[:len(three)-1])                            // last tag cut off
	f.Add(append(append([]byte(nil), one...), 0x80))       // a uvarint that never ends
	f.Add([]byte{})                                        // no entry at all
	f.Add(wire.AppendDerefCached(nil, over))               // one entry past the bound
	f.Add(wire.AppendDerefCached(nil, over[:len(over)-1])) // exactly the bound

	_, addr, _ := startChainServer(f, 3)
	f.Fuzz(func(t *testing.T, body []byte) {
		rc := dialRaw(t, addr)
		defer rc.nc.Close()
		rc.ok(wire.CmdBegin, wire.AppendUvarint(nil, 0))
		refs, derr := wire.DecodeDerefCached(body, nil)
		reply := rc.roundTrip(wire.CmdDerefCached, body)
		switch {
		case derr != nil:
			if err := wire.DecodeErrBody(reply.Body); reply.Type != wire.RespErr || !errors.Is(err, wire.ErrProto) {
				t.Fatalf("malformed body (%v): reply 0x%02x %v, want a protocol error", derr, reply.Type, err)
			}
		case len(refs) > wire.MaxDerefCached:
			t.Fatalf("decoder accepted %d entries", len(refs))
		case reply.Type != wire.RespOK && reply.Type != wire.RespObject && reply.Type != wire.RespErr:
			t.Fatalf("reply 0x%02x", reply.Type)
		}
		rc.ok(wire.CmdPing, nil)
	})
}
