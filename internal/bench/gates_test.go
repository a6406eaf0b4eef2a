package bench

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"ode"
	"ode/client"
	"ode/internal/node"
	"ode/internal/repl"
	"ode/internal/server"
)

// Work gates: each row runs one short script, on one goroutine, through
// ode.ObjectTx on a fresh deployment, and checks the work it caused —
// the delta of the deployment's counters — against numbers written
// here. A count that is a pure function of the script is held with eq;
// a count a later ROADMAP item is meant to lower is held with le, at
// what the code does today. Nothing is timed, so the same numbers hold
// on any runner, under -race and at GOMAXPROCS=1. docs/TESTING.md "Work
// gates" says how to read a failure and when a number may change.

// gateRows is how many stockitems a gate world holds, qty = position;
// gateHot is how many of them the warm-up view has already read;
// gateChain is the length of the cell chain a row's setup may build;
// gateFanout is the size of every subparts set above the last level
// of the part DAG a row's setup may build, and gateBOM its part count.
const (
	gateRows   = 1000
	gateHot    = 256
	gateChain  = 64
	gateFanout = 3
	gateBOM    = 1 + gateFanout + gateFanout
)

// bound holds one counter of a row's delta: exactly want, or at most
// want when it is a ceiling.
type bound struct {
	counter string
	ceiling bool
	want    int64
}

func eq(counter string, want int64) bound { return bound{counter, false, want} }
func le(counter string, want int64) bound { return bound{counter, true, want} }

// gateWorld is the database every row starts from: gateRows stockitems
// indexed on qty, the first gateHot of them read once, so the object
// cache — and a client's cache in front of it — holds exactly those.
type gateWorld struct {
	*Deployment
	oids  []ode.OID
	chain ode.OID // the chain's head, once setup built one
	bom   ode.OID // the part DAG's root, once setup built one
	// measured takes what a script counts itself; it is reported beside
	// the counter deltas.
	measured map[string]int64
}

func openGateWorld(t *testing.T, shape Shape) *gateWorld {
	t.Helper()
	d, err := Open(shape)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	w := &gateWorld{Deployment: d, measured: map[string]int64{}}
	if w.oids, err = d.LoadStock(gateRows); err != nil {
		t.Fatal(err)
	}
	if err := w.createQtyIndex(); err != nil {
		t.Fatal(err)
	}
	if err := w.readHot(); err != nil {
		t.Fatal(err)
	}
	return w
}

// createQtyIndex indexes stockitem.qty on every database under the
// deployment; a server is asked in O++, the one DDL path the wire has.
func (w *gateWorld) createQtyIndex() error {
	if w.DB != nil {
		return w.DB.CreateIndex(w.Stock, "qty")
	}
	ctx := context.Background()
	for _, c := range w.clients() {
		s, err := c.Session(ctx)
		if err != nil {
			return err
		}
		_, err = s.Exec(ctx, "create index stockitem on qty;")
		s.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

// readHot derefs the first gateHot stockitems in one view.
func (w *gateWorld) readHot() error {
	return w.View(func(tx ode.ObjectTx) error {
		for _, oid := range w.oids[:gateHot] {
			if _, err := tx.Deref(oid); err != nil {
				return err
			}
		}
		return nil
	})
}

// counters is Deployment.Counters plus the client-side counters no
// server knows: cache behaviour summed over the clients, and the
// router's commit paths.
func (w *gateWorld) counters(t *testing.T) map[string]int64 {
	t.Helper()
	m, err := w.Counters()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range w.clients() {
		cm := c.CacheMetrics()
		m["client.cache_hits"] += int64(cm.Hits.Load())
		m["client.cache_misses"] += int64(cm.Misses.Load())
		m["client.scan_hits"] += int64(cm.ScanHits.Load())
		m["client.scan_rows"] += int64(cm.ScanRows.Load())
		m["client.round_trips"] += int64(cm.RoundTrips.Load())
	}
	if w.Router != nil {
		sm := w.Router.ShardMetrics()
		m["client.shard.single_commits"] = int64(sm.SingleCommits.Load())
		m["client.shard.cross_commits"] = int64(sm.CrossCommits.Load())
		m["client.shard.scatter_scans"] = int64(sm.ScatterScans.Load())
	}
	return m
}

// delta runs script between two counter snapshots and returns what
// moved. Reading a server's counters is itself a request with a reply,
// so a snapshot pair taken back to back first prices that, and the
// price comes off the server.* family and client.round_trips. What is left of server.bytes_out
// is exact to the few bytes by which two metric replies differ in
// length, which is why byte counts are only ever held as ceilings.
func (w *gateWorld) delta(t *testing.T, script func(*gateWorld) error) map[string]int64 {
	t.Helper()
	idle, before := w.counters(t), w.counters(t)
	if err := script(w); err != nil {
		t.Fatal(err)
	}
	got := w.counters(t)
	for name, v := range got {
		got[name] = v - before[name]
	}
	for _, name := range []string{"server.requests", "server.bytes_in", "server.bytes_out", "client.round_trips"} {
		got[name] -= before[name] - idle[name]
	}
	for name, v := range w.measured {
		got[name] = v
	}
	return got
}

// The scripts. Each is written once against ode.ObjectTx and runs
// unchanged on every shape its row lists.

func countUpperHalf(w *gateWorld) error {
	return w.View(func(tx ode.ObjectTx) error { return countUpperHalfIn(w, tx) })
}

// countUpperHalfIn counts the stockitems with qty >= gateRows/2 by an
// extent scan in tx.
func countUpperHalfIn(w *gateWorld, tx ode.ObjectTx) error {
	n, err := tx.Count(&ode.Scan{Class: w.Stock, NoIndex: true, Field: "qty", Op: ode.CmpGe, Value: ode.Int(gateRows / 2)})
	if err == nil && n != gateRows/2 {
		err = fmt.Errorf("counted %d, want %d", n, gateRows/2)
	}
	return err
}

func collectTopFiftieth(w *gateWorld) error {
	return w.View(func(tx ode.ObjectTx) error {
		oids, _, err := tx.Collect(&ode.Scan{Class: w.Stock, Field: "qty", Op: ode.CmpGe, Value: ode.Int(gateRows - gateRows/50)})
		if err == nil && len(oids) != gateRows/50 {
			err = fmt.Errorf("collected %d, want %d", len(oids), gateRows/50)
		}
		return err
	})
}

func stopAfterTen(w *gateWorld) error {
	return w.View(func(tx ode.ObjectTx) error {
		seen := 0
		_, err := tx.Forall(&ode.Scan{Class: w.Stock, NoIndex: true}, func(ode.OID, *ode.Object) (bool, error) {
			seen++
			return seen < 10, nil
		})
		return err
	})
}

func forallAll(w *gateWorld) error {
	return w.View(func(tx ode.ObjectTx) error { return forallAllIn(w, tx) })
}

// forallAllIn runs an unfiltered extent forall over the stock in tx.
func forallAllIn(w *gateWorld, tx ode.ObjectTx) error {
	n, err := tx.Forall(&ode.Scan{Class: w.Stock, NoIndex: true}, func(ode.OID, *ode.Object) (bool, error) { return true, nil })
	if err == nil && n != gateRows {
		err = fmt.Errorf("forall delivered %d rows, want %d", n, gateRows)
	}
	return err
}

func createTwenty(w *gateWorld) error {
	return w.RunTx(func(tx ode.ObjectTx) error {
		for i := 0; i < 20; i++ {
			o := ode.NewObject(w.Cell)
			o.MustSet("value", ode.Int(int64(i)))
			if _, err := tx.PNew(w.Cell, o); err != nil {
				return err
			}
		}
		return nil
	})
}

// restock returns a script that adds a lot to n neighbouring stockitems
// in one transaction. Neighbours in load order sit on different shards.
func restock(n int) func(*gateWorld) error {
	return func(w *gateWorld) error {
		return w.RunTx(func(tx ode.ObjectTx) error {
			for _, oid := range w.oids[gateHot : gateHot+n] {
				o, err := tx.Deref(oid)
				if err != nil {
					return err
				}
				o.MustSet("qty", ode.Int(o.MustGet("qty").Int()+100))
				if err := tx.Update(oid, o); err != nil {
					return err
				}
			}
			return nil
		})
	}
}

// loadChain builds a chain of gateChain cells and reads it once, so a
// client's cache holds every cell.
func (w *gateWorld) loadChain() (err error) {
	if w.chain, err = w.LoadChain(gateChain); err != nil {
		return err
	}
	return walkChain(w)
}

// walkChain follows the chain from its head to its end in one view.
func walkChain(w *gateWorld) error {
	return w.View(func(tx ode.ObjectTx) error {
		oid := w.chain
		for i := 0; i < gateChain; i++ {
			o, err := tx.Deref(oid)
			if err != nil {
				return err
			}
			if v := o.MustGet("value").Int(); v != int64(i) {
				return fmt.Errorf("cell %d holds %d", i, v)
			}
			oid, _ = o.MustGet("next").AnyOID()
		}
		if oid != ode.NilOID {
			return fmt.Errorf("the chain goes on past %d cells", gateChain)
		}
		return nil
	})
}

// loadBOM builds a part DAG of three levels — the root, gateFanout
// parts under it, and gateFanout parts under every one of those — and
// walks it once, so a client's cache holds every part.
func (w *gateWorld) loadBOM() error {
	err := w.RunTx(func(tx ode.ObjectTx) error {
		var below []ode.OID
		for level := 0; level < 3; level++ {
			n := gateFanout
			if level == 2 {
				n = 1
			}
			var made []ode.OID
			for i := 0; i < n; i++ {
				o := ode.NewObject(w.Part)
				o.MustSet("name", ode.Str(fmt.Sprintf("p-%d-%d", level, i)))
				for _, kid := range below {
					o.MustGet("subparts").Set().Insert(ode.Ref(kid))
				}
				oid, err := tx.PNew(w.Part, o)
				if err != nil {
					return err
				}
				made = append(made, oid)
			}
			below = made
		}
		w.bom = below[0]
		return nil
	})
	if err != nil {
		return err
	}
	return w.View(func(tx ode.ObjectTx) error {
		_, err := bomClosure(tx, w.bom, nil)
		return err
	})
}

// bomClosure visits every part reachable from root once, breadth
// first, and returns them in visiting order in seen's storage.
func bomClosure(tx ode.ObjectTx, root ode.OID, seen []ode.OID) ([]ode.OID, error) {
	seen = append(seen[:0], root)
	for i := 0; i < len(seen); i++ {
		o, err := tx.Deref(seen[i])
		if err != nil {
			return seen, err
		}
		o.MustGet("subparts").Set().Iter(func(v ode.Value) bool {
			if oid := v.OID(); !slices.Contains(seen, oid) {
				seen = append(seen, oid)
			}
			return true
		})
	}
	if len(seen) != gateBOM {
		return seen, fmt.Errorf("the closure visited %d parts, want %d", len(seen), gateBOM)
	}
	return seen, nil
}

// bomAllocs measures the allocations of one warm closure over the part
// DAG, inside an open view: every part a cache hit.
func bomAllocs(w *gateWorld) error {
	return w.View(func(tx ode.ObjectTx) error {
		var err error
		seen := make([]ode.OID, 0, gateBOM)
		w.measured["bom_allocs"] = int64(testing.AllocsPerRun(20, func() {
			if seen, err = bomClosure(tx, w.bom, seen); err != nil {
				return
			}
		}))
		return err
	})
}

// cachedDerefAllocs measures the allocations of one deref the object
// cache answers, inside an open view.
func cachedDerefAllocs(w *gateWorld) error {
	return w.View(func(tx ode.ObjectTx) error {
		var err error
		w.measured["allocs_per_deref"] = int64(testing.AllocsPerRun(100, func() {
			if _, derr := tx.Deref(w.oids[0]); derr != nil {
				err = derr
			}
		}))
		return err
	})
}

// chaseAllocs measures the allocations of one warm walk down the chain,
// its view's begin and abort included. AllocsPerRun counts the whole
// process, so on a remote shape this is client, wire and in-process
// server together.
func chaseAllocs(w *gateWorld) error {
	var err error
	w.measured["chase_allocs"] = int64(testing.AllocsPerRun(20, func() {
		if werr := walkChain(w); werr != nil {
			err = werr
		}
	}))
	return err
}

// scanAllocs measures the allocations of one embedded extent-scan
// count over the whole stock, inside an open view.
func scanAllocs(w *gateWorld) error {
	return w.View(func(tx ode.ObjectTx) error {
		var err error
		w.measured["scan_allocs"] = int64(testing.AllocsPerRun(10, func() {
			if cerr := countUpperHalfIn(w, tx); cerr != nil {
				err = cerr
			}
		}))
		return err
	})
}

// forallAllocs measures the allocations of one warm forall over the
// whole stock inside an open view, after a first one has filled the
// caches. AllocsPerRun counts the whole process: on a remote shape this
// is client, wire and in-process server together.
func forallAllocs(w *gateWorld) error {
	return w.View(func(tx ode.ObjectTx) error {
		var err error
		scan := func() {
			if ferr := forallAllIn(w, tx); ferr != nil {
				err = ferr
			}
		}
		scan()
		w.measured["forall_allocs"] = int64(testing.AllocsPerRun(5, scan))
		return err
	})
}

// workGates is the table. A row lists the shapes it runs on by giving
// them bounds; a counter a row does not name is not held.
var workGates = []struct {
	name   string
	opts   *ode.Options           // of every database the row opens (nil: the Shape default)
	setup  func(*gateWorld) error // before the counters are read: what script needs in place
	script func(*gateWorld) error
	want   map[Kind][]bound
}{
	{
		// A second view over objects already read: the engine answers
		// from the object cache without touching a page, and a client
		// answers from its own cache for the price of a revalidation —
		// a reply of 17 bytes where the full image is about 50.
		// Stockitems hold no references, so each revalidation is of one
		// object: a request per deref, each entry proven. The begin
		// rides the first one.
		// A point read locks its row and no cluster: one grant per deref,
		// on the word the warm-up's release left resident, so the view
		// inserts no lock word.
		name: "hot-deref", script: (*gateWorld).readHot,
		want: map[Kind][]bound{
			Embedded: {eq("object.cache_hits", gateHot), eq("object.cache_misses", 0), eq("pool.pins", 0), eq("txn.lock_waits", 0),
				eq("txn.lock_grants", gateHot), eq("txn.lock_words", 0)},
			Remote: {eq("object.cache_hits", gateHot), eq("object.cache_misses", 0), eq("pool.pins", 0), eq("txn.lock_waits", 0),
				eq("txn.lock_grants", gateHot), eq("txn.lock_words", 0),
				eq("client.cache_hits", gateHot), eq("client.cache_misses", 0),
				eq("server.requests", gateHot+2), eq("client.round_trips", gateHot+1), le("server.bytes_out", gateHot*18),
				eq("server.reval_proven", gateHot), eq("server.reval_modified", 0), eq("server.reval_skipped", 0)},
			Sharded: {eq("object.cache_hits", gateHot), eq("object.cache_misses", 0), eq("pool.pins", 0), eq("txn.lock_waits", 0),
				eq("txn.lock_grants", gateHot), eq("txn.lock_words", 0),
				eq("client.cache_hits", gateHot), eq("client.cache_misses", 0),
				eq("server.requests", gateHot+3*2), eq("client.round_trips", gateHot+3), le("server.bytes_out", gateHot*18),
				eq("server.reval_proven", gateHot), eq("server.reval_modified", 0), eq("server.reval_skipped", 0)},
		},
	},
	{
		// A second walk down a chain already read: one revalidation
		// carries the whole cached neighbourhood (64 entries, the
		// protocol's bound), so every later hop is local — begin, one
		// deref-cached and abort are the requests, two round trips. On
		// three shards neighbouring cells live on different shards and a
		// Client caches only its own shard's objects, so each hop is its
		// own revalidation; those are ceilings, for the router that
		// splits one neighbourhood per shard to lower. Either way all 64
		// entries are proven: one frame of 64, or 64 frames of one.
		name: "chase", setup: (*gateWorld).loadChain, script: walkChain,
		want: map[Kind][]bound{
			Embedded: {eq("object.cache_hits", gateChain), eq("pool.pins", 0), eq("txn.lock_waits", 0)},
			Remote: {eq("object.cache_hits", gateChain), eq("txn.lock_waits", 0),
				eq("client.cache_hits", gateChain), eq("client.cache_misses", 0),
				eq("server.requests", 3), eq("client.round_trips", 2),
				eq("server.reval_proven", gateChain), eq("server.reval_modified", 0), eq("server.reval_skipped", 0)},
			Sharded: {eq("object.cache_hits", gateChain), eq("txn.lock_waits", 0),
				eq("client.cache_hits", gateChain), eq("client.cache_misses", 0),
				le("server.requests", gateChain+3*2), le("client.round_trips", gateChain+3),
				eq("server.reval_proven", gateChain), eq("server.reval_modified", 0), eq("server.reval_skipped", 0)},
		},
	},
	{
		// An unindexed count visits every row once on whichever server
		// holds it, and each server answers with the number alone: the
		// bytes out are the begin, count and abort replies, and the
		// router adds three numbers. The scan locks the stockitem
		// cluster S and reads its rows under it: one grant. A shard
		// takes no cluster S (Tx.LockCluster), so there the scan locks
		// each row it reads: one grant per row.
		name: "count-scan", script: countUpperHalf,
		want: map[Kind][]bound{
			Embedded: {eq("query.foralls", 1), eq("query.plan_extent_scan", 1), eq("query.rows_scanned", gateRows), eq("query.rows_yielded", gateRows/2),
				eq("txn.lock_grants", 1)},
			Remote: {eq("query.foralls", 1), eq("query.plan_extent_scan", 1), eq("query.rows_scanned", gateRows), eq("query.rows_yielded", gateRows/2),
				eq("txn.lock_grants", 1), eq("server.requests", 3), le("server.bytes_out", 100)},
			Sharded: {eq("query.foralls", 3), eq("query.plan_extent_scan", 3), eq("query.rows_scanned", gateRows), eq("query.rows_yielded", gateRows/2),
				eq("txn.lock_grants", gateRows), eq("client.shard.scatter_scans", 1), eq("server.requests", 3*3), le("server.bytes_out", 300)},
		},
	},
	{
		// A 2 % range through the qty index reads the rows it returns
		// and no others. An index scan keeps row locks, one per row
		// read, and takes no cluster word.
		name: "indexed-collect", script: collectTopFiftieth,
		want: map[Kind][]bound{
			Embedded: {eq("query.plan_index_range", 1), eq("query.plan_extent_scan", 0), eq("query.rows_scanned", gateRows/50), eq("query.rows_yielded", gateRows/50),
				eq("txn.lock_grants", gateRows/50)},
			Remote: {eq("query.plan_index_range", 1), eq("query.plan_extent_scan", 0), eq("query.rows_scanned", gateRows/50), eq("query.rows_yielded", gateRows/50),
				eq("txn.lock_grants", gateRows/50), eq("server.requests", 3), le("server.bytes_out", 800)},
			Sharded: {eq("query.plan_index_range", 3), eq("query.plan_extent_scan", 0), eq("query.rows_scanned", gateRows/50), eq("query.rows_yielded", gateRows/50),
				eq("txn.lock_grants", gateRows/50), eq("server.requests", 3*3), le("server.bytes_out", 950)},
		},
	},
	{
		// A forall stopped after ten rows reads ten rows in process. A
		// server scans one window (64 rows) and waits; the stop sends
		// nothing, and the abort ends the scan. Behind the router every
		// shard fills its first window before the merge stops, and no
		// shard is asked for a second: 3 × 64 rows. However many rows
		// a scan reads, it locks only the cluster: one grant; a shard
		// locks the rows it read instead.
		name: "early-stop", script: stopAfterTen,
		want: map[Kind][]bound{
			Embedded: {eq("query.rows_scanned", 10), eq("query.rows_yielded", 10), eq("txn.lock_grants", 1)},
			Remote: {eq("query.rows_scanned", 64), eq("txn.lock_grants", 1), le("server.bytes_out", 2300),
				eq("server.requests", 3), eq("client.round_trips", 2)},
			Sharded: {eq("query.rows_scanned", 3*64), eq("txn.lock_grants", 3*64), le("server.bytes_out", 7000),
				eq("server.requests", 3*3), eq("client.round_trips", 3*2)},
		},
	},
	{
		// A forall that reads every row: windows of 64 and 512 rows, each
		// followed by a forall-more, and the last 424 rows ride the
		// RespDone — begin, forall, two mores and abort in four round
		// trips. A shard holds a third of the rows: one window of 64 and
		// the rest (269 or 270 rows) with its RespDone, one forall-more.
		// The windows share one cluster S: one grant, or one per row on
		// a shard.
		name: "forall-all", script: forallAll,
		want: map[Kind][]bound{
			Embedded: {eq("query.rows_scanned", gateRows), eq("query.rows_yielded", gateRows), eq("txn.lock_grants", 1)},
			Remote: {eq("query.rows_scanned", gateRows), eq("query.rows_yielded", gateRows), eq("txn.lock_grants", 1),
				eq("server.requests", 5), eq("client.round_trips", 4)},
			Sharded: {eq("query.rows_scanned", gateRows), eq("query.rows_yielded", gateRows), eq("txn.lock_grants", gateRows),
				eq("server.requests", 3*4), eq("client.round_trips", 3*3)},
		},
	},
	{
		// A forall-all over rows both caches hold, in a view whose first
		// forall-all filled them. The server reads each row in place and
		// windows the engine cache's memoized image; the client finds the
		// image's tag in its own cache and hands out a copy of the cached
		// object. So a row costs the one header of that copy, and the
		// rest is per scan: windows, cursors, the plan. A copy and an
		// encode on the server and a decode on the client cost 5 090 on
		// one server, 5 197 on three. Every row of the measured runs (one
		// warm-up and five) is a scan hit, and of the view's first scan
		// the 256 the warm-up view read: 256 + 6 × 1 000, of the
		// 7 × 1 000 rows the seven scans received.
		name: "forall-allocs", script: forallAllocs,
		want: map[Kind][]bound{
			Remote:  {eq("forall_allocs", 1067), eq("client.scan_hits", gateHot+6*gateRows), eq("client.scan_rows", 7*gateRows)},
			Sharded: {eq("forall_allocs", 1145), eq("client.scan_hits", gateHot+6*gateRows), eq("client.scan_rows", 7*gateRows)},
		},
	},
	{
		// One transaction of twenty creates is one WAL append and, with
		// fsync on, one fsync; over the wire, one request per call. On
		// three shards (which run with fsync on) the creates stride over
		// all of them, so the commit is a three-way 2PC: a vote and a
		// decision fsynced on each. Each create locks its new row X, and
		// each database's first create also takes IX on the cell cluster.
		name: "commit-20", opts: &ode.Options{}, script: createTwenty,
		want: map[Kind][]bound{
			Embedded: {eq("object.creates", 20), eq("txn.commits", 1), eq("wal.appends", 1), eq("wal.fsyncs", 1),
				eq("txn.lock_grants", 20+1)},
			Remote: {eq("object.creates", 20), eq("txn.commits", 1), eq("wal.appends", 1), eq("wal.fsyncs", 1),
				eq("txn.lock_grants", 20+1), eq("server.requests", 20+2), eq("client.round_trips", 20+1)},
			Sharded: {eq("object.creates", 20), eq("txn.commits", 3), eq("wal.appends", 9), eq("wal.fsyncs", 6),
				eq("txn.lock_grants", 20+3),
				eq("txn.prepared_total", 3), eq("txn.prepared_commits", 3), eq("client.shard.cross_commits", 1),
				eq("server.requests", 20+3*3), eq("client.round_trips", 20+3*2)},
		},
	},
	{
		// An update that stays on one shard commits there directly: no
		// vote, one fsync; a deref carrying the begin, the update and the
		// commit are its round trips.
		name: "transfer-1", script: restock(1),
		want: map[Kind][]bound{
			Sharded: {eq("txn.prepared_total", 0), eq("client.shard.single_commits", 1), eq("client.shard.cross_commits", 0),
				eq("txn.commits", 1), eq("wal.fsyncs", 1), eq("server.requests", 4), eq("client.round_trips", 3)},
		},
	},
	{
		// The same update over two shards is a 2PC between exactly
		// those two, and leaves nothing in doubt. Each shard's begin
		// rides its first deref: ten requests in eight round trips.
		name: "transfer-2", script: restock(2),
		want: map[Kind][]bound{
			Sharded: {eq("txn.prepared_total", 2), eq("txn.prepared_commits", 2), eq("txn.prepared_indoubt", 0),
				eq("client.shard.cross_commits", 1), eq("client.shard.single_commits", 0),
				eq("txn.commits", 2), eq("wal.fsyncs", 4), eq("server.requests", 10), eq("client.round_trips", 8)},
		},
	},
	{
		// A cached deref hands out a copy-on-write copy of the cached
		// image: one object header over the cached slot vector, and
		// nothing else. On a client the deref is a hit the view has
		// already proven, so it sends no frame.
		name: "allocs", script: cachedDerefAllocs,
		want: map[Kind][]bound{
			Embedded: {le("allocs_per_deref", 1)},
			Remote:   {le("allocs_per_deref", 1)},
			Sharded:  {le("allocs_per_deref", 1)},
		},
	},
	{
		// A warm walk down the 64-cell chain: one frame carries all 64
		// revalidations and every one is proven. Proving an entry costs
		// its lock and a compare of the engine cache's memoized tag, and
		// allocates nothing: a copy and an encode per entry would add
		// two allocations per cell. The server transaction's 64 row
		// locks fit its Tx's inline held list (123); a list grown from
		// nil adds seven (130).
		name: "chase-allocs", setup: (*gateWorld).loadChain, script: chaseAllocs,
		want: map[Kind][]bound{
			Remote: {le("chase_allocs", 127)},
		},
	},
	{
		// The scan mechanism itself: one embedded extent-scan count of
		// the 1 000 stockitems, every row a cache hit. Each row read
		// costs its copy's one header; the rest is the scan's per-scan
		// work: the cluster leaves it decodes and the OID list. A count
		// takes the snapshot path and keeps no visited set (1 053 with
		// one), and its plan string is one concatenation (1 038 through
		// fmt, whose printer pool drops entries at random under -race).
		// The leaf count is a function of the load, since a commit
		// applies its writes in OID order and an appending split leaves
		// a full leaf behind, so the number is exact.
		name: "scan-allocs", script: scanAllocs,
		want: map[Kind][]bound{
			Embedded: {eq("scan_allocs", 1037)},
		},
	},
	{
		// A warm closure over a 7-part DAG whose sets hold 3 parts, in
		// one view: on a client every part is a hit the view has
		// proven. Each part read costs its copy, and a copy of a part
		// is three allocations: its header, its slot vector and a
		// header for its subparts set over the cached set's storage
		// (56 in all when a copy deep-copied the set).
		name: "bom-allocs", setup: (*gateWorld).loadBOM, script: bomAllocs,
		want: map[Kind][]bound{
			Embedded: {eq("bom_allocs", 21)},
			Remote:   {eq("bom_allocs", 21)},
		},
	},
}

func TestWorkGates(t *testing.T) {
	shapes := []struct {
		name string
		Shape
	}{
		{"embedded", Shape{}},
		{"remote", Shape{Kind: Remote}},
		{"sharded-3", Shape{Kind: Sharded, Shards: 3}},
	}
	for _, g := range workGates {
		for _, s := range shapes {
			want, ok := g.want[s.Kind]
			if !ok {
				continue
			}
			s.Opts = g.opts
			t.Run(g.name+"/"+s.name, func(t *testing.T) {
				w := openGateWorld(t, s.Shape)
				if g.setup != nil {
					if err := g.setup(w); err != nil {
						t.Fatal(err)
					}
				}
				got := w.delta(t, g.script)
				for _, b := range want {
					if v := got[b.counter]; b.ceiling && v > b.want {
						t.Errorf("%s on %s: %s = %d, ceiling %d", g.name, s.name, b.counter, v, b.want)
					} else if !b.ceiling && v != b.want {
						t.Errorf("%s on %s: %s = %d, want %d", g.name, s.name, b.counter, v, b.want)
					}
				}
			})
		}
	}
}

// settableValues is the number of exported fields of the option structs
// a program sets to deploy ode: the engine's, a server's, a client's, a
// replication node's three, and the node config that holds them. It
// follows the gate rule: a change that removes a knob lowers it, and a
// change that raises it says in its description why the new value must
// be settable rather than a constant.
const settableValues = 42

// TestSettableValues counts the knobs of the option structs. A field
// whose type is one of the counted structs counts in that struct, not
// in the one holding it.
func TestSettableValues(t *testing.T) {
	structs := []reflect.Type{
		reflect.TypeFor[ode.Options](),
		reflect.TypeFor[server.Options](),
		reflect.TypeFor[client.Options](),
		reflect.TypeFor[repl.MonitorOptions](),
		reflect.TypeFor[repl.ReplicaOptions](),
		reflect.TypeFor[repl.SourceOptions](),
		reflect.TypeFor[node.Config](),
	}
	n := 0
	for _, st := range structs {
		for i := range st.NumField() {
			if f := st.Field(i); f.IsExported() && !slices.Contains(structs, f.Type) {
				n++
			}
		}
	}
	if n != settableValues {
		t.Errorf("the option structs hold %d settable values, want %d", n, settableValues)
	}
}
