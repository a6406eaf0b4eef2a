package server_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"ode"
	"ode/client"
	"ode/internal/failpoint"
	"ode/internal/netchaos"
	"ode/internal/object"
	"ode/internal/server"
)

// startShardServer opens (or reopens) one shard of a count-wide group
// and serves it on a loopback port.
func startShardServer(t testing.TB, path string, slot, count int) (*ode.DB, *server.Server, string) {
	t.Helper()
	schema, stock := invSchema()
	db, err := ode.Open(path, schema, &ode.Options{ShardCount: count, ShardSlot: slot})
	if err != nil {
		t.Fatal(err)
	}
	if !db.HasCluster(stock) {
		if err := db.CreateCluster(stock); err != nil {
			t.Fatal(err)
		}
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
	return db, srv, addr.String()
}

// startShardGroup boots an n-shard group and a router over it.
func startShardGroup(t testing.TB, n int) ([]*ode.DB, []string, *client.Sharded, *ode.Class) {
	t.Helper()
	dbs := make([]*ode.DB, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		dbs[i], _, addrs[i] = startShardServer(t, filepath.Join(t.TempDir(), fmt.Sprintf("shard%d.odb", i)), i, n)
	}
	schema, stock := invSchema()
	sh, err := client.DialSharded(addrs, schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sh.Close() })
	return dbs, addrs, sh, stock
}

// TestShardedCrossCommit: one transaction writing every shard commits
// atomically through 2PC and is visible everywhere afterwards.
func TestShardedCrossCommit(t *testing.T) {
	dbs, _, sh, stock := startShardGroup(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	var oids []ode.OID
	err := sh.RunTx(ctx, func(tx *client.STx) error {
		oids = oids[:0]
		for i := 0; i < 3; i++ {
			oid, err := tx.PNew(stock, item(stock, fmt.Sprintf("part-%d", i), int64(i), 1))
			if err != nil {
				return err
			}
			oids = append(oids, oid)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every shard got exactly one object, on its own residue.
	seen := map[int]bool{}
	for _, oid := range oids {
		seen[sh.ShardFor(oid)] = true
	}
	if len(seen) != 3 {
		t.Fatalf("placement did not cover all shards: %v", oids)
	}
	// Durable on each shard's embedded side.
	for i, db := range dbs {
		if err := db.View(func(tx *ode.Tx) error {
			for _, oid := range oids {
				if sh.ShardFor(oid) != i {
					continue
				}
				if _, err := tx.Deref(oid); err != nil {
					return fmt.Errorf("shard %d missing oid %d: %w", i, oid, err)
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	// And readable back through the router.
	if err := sh.View(ctx, func(tx *client.STx) error {
		for _, oid := range oids {
			if _, err := tx.Deref(oid); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	met := sh.ShardMetrics()
	if met.CrossCommits.Load() == 0 {
		t.Fatal("cross-shard commit did not take the 2PC path")
	}
}

// TestShardedSingleShardFastPath: a transaction that touches one shard
// must not pay for 2PC.
func TestShardedSingleShardFastPath(t *testing.T) {
	_, _, sh, stock := startShardGroup(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	err := sh.RunTx(ctx, func(tx *client.STx) error {
		_, err := tx.PNew(stock, item(stock, "solo", 1, 1))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	met := sh.ShardMetrics()
	if met.SingleCommits.Load() != 1 || met.CrossCommits.Load() != 0 {
		t.Fatalf("single=%d cross=%d, want 1/0", met.SingleCommits.Load(), met.CrossCommits.Load())
	}
}

// TestShardedCountBesideCrossShardCreates: a scatter count runs while a
// transaction that created on one shard goes on to create on another,
// with no deadline anywhere. Each shard's deadlock detector sees only
// its own waits, so a count that held one shard's extent while waiting
// on another's would hang beside the writer for ever; both must finish.
func TestShardedCountBesideCrossShardCreates(t *testing.T) {
	dbs, _, sh, stock := startShardGroup(t, 3)
	const seeded = 6
	if err := sh.RunTx(context.Background(), func(tx *client.STx) error {
		for i := 0; i < seeded; i++ {
			if _, err := tx.PNew(stock, item(stock, fmt.Sprintf("seed-%d", i), int64(i), 1)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	w := sh.Begin(context.Background())
	defer w.Abort()
	first, err := w.PNew(stock, item(stock, "w-0", 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	home := sh.ShardFor(first)

	type result struct {
		n   int
		err error
	}
	counted := make(chan result, 1)
	go func() {
		c := sh.Begin(context.Background())
		defer c.Abort()
		n, err := c.Count(&client.Scan{Class: stock, NoIndex: true})
		counted <- result{n, err}
	}()
	// Let the count reach the writer's home shard (and wait there, if it
	// waits at all) before the writer moves on to another shard.
	var got *result
	for deadline := time.Now().Add(2 * time.Second); got == nil && dbs[home].Metrics().Txn.LockWaits.Load() == 0 && time.Now().Before(deadline); {
		select {
		case r := <-counted:
			got = &r
		case <-time.After(time.Millisecond):
		}
	}
	early := got != nil // counted before the writer could commit
	created := 1
	committed := make(chan error, 1)
	go func() {
		for {
			oid, err := w.PNew(stock, item(stock, "w-n", 1, 1))
			if err != nil {
				committed <- err
				return
			}
			created++
			if sh.ShardFor(oid) != home {
				committed <- w.Commit()
				return
			}
		}
	}()

	timeout := time.After(10 * time.Second)
	for got == nil || committed != nil {
		select {
		case r := <-counted:
			got = &r
		case err := <-committed:
			if err != nil {
				t.Fatalf("cross-shard writer: %v", err)
			}
			committed = nil
		case <-timeout:
			t.Fatalf("hung: count finished %v, writer finished %v", got != nil, committed == nil)
		}
	}
	// A count still running when the writer committed may see some of
	// its creates: a scatter scan locks rows, not the extents.
	if got.err != nil || got.n < seeded || got.n > seeded+created || early && got.n != seeded {
		t.Fatalf("count = %d (err %v), want %d (writer created %d)", got.n, got.err, seeded, created)
	}
}

// seedKeyed inserts n objects through insert and then rewrites each so
// its content is a pure function of its OID — making the dataset's
// (oid, image) stream identical wherever the same OID set exists.
func seedKeyed(t testing.TB, n int,
	insert func(fn func(pnew func(*ode.Object) (ode.OID, error)) error) error,
	update func(fn func(upd func(ode.OID, *ode.Object) error, oids []ode.OID) error) error,
	stock *ode.Class) []ode.OID {
	t.Helper()
	var oids []ode.OID
	if err := insert(func(pnew func(*ode.Object) (ode.OID, error)) error {
		for i := 0; i < n; i++ {
			oid, err := pnew(item(stock, "seed", 0, 0))
			if err != nil {
				return err
			}
			oids = append(oids, oid)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := update(func(upd func(ode.OID, *ode.Object) error, oids []ode.OID) error {
		for _, oid := range oids {
			o := item(stock, fmt.Sprintf("obj-%d", oid), int64(oid), float64(oid)/10)
			if err := upd(oid, o); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return oids
}

// TestShardedForallMatchesSingleNode is the scatter-gather acceptance
// check: the same OID-keyed dataset seeded into a 3-shard group and
// into one unsharded server must produce byte-identical (oid, image)
// streams from a routed scatter-gather forall and a single-node scan.
func TestShardedForallMatchesSingleNode(t *testing.T) {
	const n = 60 // divisible by 3 so the strided OID sets line up as 1..n

	_, _, sh, stock := startShardGroup(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	seedKeyed(t, n, func(fn func(func(*ode.Object) (ode.OID, error)) error) error {
		return sh.RunTx(ctx, func(tx *client.STx) error {
			return fn(func(o *ode.Object) (ode.OID, error) { return tx.PNew(stock, o) })
		})
	}, func(fn func(func(ode.OID, *ode.Object) error, []ode.OID) error) error {
		return sh.RunTx(ctx, func(tx *client.STx) error {
			return fn(tx.Update, nil)
		})
	}, stock)

	_, _, single, sstock := startEnv(t, nil)
	seedKeyed(t, n, func(fn func(func(*ode.Object) (ode.OID, error)) error) error {
		return single.RunTx(ctx, func(tx *client.Tx) error {
			return fn(func(o *ode.Object) (ode.OID, error) { return tx.PNew(sstock, o) })
		})
	}, func(fn func(func(ode.OID, *ode.Object) error, []ode.OID) error) error {
		return single.RunTx(ctx, func(tx *client.Tx) error {
			return fn(tx.Update, nil)
		})
	}, sstock)

	// The helper rewrote by the captured oids; redo with fn that uses
	// them — collect streams from both sides and compare byte for byte.
	type row struct {
		oid ode.OID
		img []byte
	}
	collect := func(forall func(fn func(oid ode.OID, obj *ode.Object) (bool, error)) (int, error)) []row {
		var rows []row
		if _, err := forall(func(oid ode.OID, obj *ode.Object) (bool, error) {
			rows = append(rows, row{oid, object.Encode(obj)})
			return true, nil
		}); err != nil {
			t.Fatal(err)
		}
		return rows
	}
	var shardRows, singleRows []row
	if err := sh.View(ctx, func(tx *client.STx) error {
		shardRows = collect(func(fn func(ode.OID, *ode.Object) (bool, error)) (int, error) {
			return tx.Forall(&client.Scan{Class: stock}, fn)
		})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := single.View(ctx, func(tx *client.Tx) error {
		singleRows = collect(func(fn func(ode.OID, *ode.Object) (bool, error)) (int, error) {
			return tx.Forall(&client.Scan{Class: sstock}, fn)
		})
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	if len(shardRows) != n || len(singleRows) != n {
		t.Fatalf("row counts: sharded %d, single %d, want %d", len(shardRows), len(singleRows), n)
	}
	for i := range shardRows {
		if shardRows[i].oid != singleRows[i].oid || !bytes.Equal(shardRows[i].img, singleRows[i].img) {
			t.Fatalf("row %d diverges: sharded oid %d vs single oid %d",
				i, shardRows[i].oid, singleRows[i].oid)
		}
		if i > 0 && shardRows[i].oid <= shardRows[i-1].oid {
			t.Fatalf("merged stream out of OID order at row %d", i)
		}
	}

	// Predicated scatter-gather agrees too.
	var shardCount, singleCount int
	if err := sh.View(ctx, func(tx *client.STx) error {
		var err error
		shardCount, err = tx.Count(&client.Scan{Class: stock, Field: "qty", Op: client.CmpGe, Value: ode.Int(int64(n / 2))})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := single.View(ctx, func(tx *client.Tx) error {
		var err error
		singleCount, err = tx.Count(&client.Scan{Class: sstock, Field: "qty", Op: client.CmpGe, Value: ode.Int(int64(n / 2))})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if shardCount != singleCount {
		t.Fatalf("predicated counts diverge: sharded %d, single %d", shardCount, singleCount)
	}
}

// TestShardedInDoubtRecovery is the wire-level crash matrix row: a
// participant dies between prepare and the decision, the coordinator
// commits, the participant restarts with the transaction in-doubt and
// recovered from its WAL, and ResolveInDoubt settles it to commit.
func TestShardedInDoubtRecovery(t *testing.T) {
	p0 := filepath.Join(t.TempDir(), "shard0.odb")
	p1 := filepath.Join(t.TempDir(), "shard1.odb")
	_, _, addr0 := startShardServer(t, p0, 0, 2)
	db1, srv1, _ := startShardServer(t, p1, 1, 2)

	schema, stock := invSchema()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	c0, err := client.Dial(addr0, schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()

	// Drive the 2PC verbs by hand so the crash lands exactly between
	// the participant's vote and the decision delivery.
	t0, err := c0.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	oid0, err := t0.PNew(stock, item(stock, "coord-half", 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	var oid1 ode.OID
	if err := db1.RunTx(func(tx *ode.Tx) error { // embedded write on the participant
		var err error
		oid1, err = tx.PNew(stock, item(stock, "seed", 0, 0))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	t1 := db1.Begin()
	o1, err := t1.Deref(oid1)
	if err != nil {
		t.Fatal(err)
	}
	o1.MustSet("qty", ode.Int(42))
	if err := t1.Update(oid1, o1); err != nil {
		t.Fatal(err)
	}

	const gid = "s0-indoubt-1"
	if err := t0.Prepare(gid); err != nil {
		t.Fatal(err)
	}
	if err := db1.PrepareTx(t1, gid); err != nil {
		t.Fatal(err)
	}

	// Participant crashes with its vote on disk.
	srv1.Close()
	db1.CrashForTesting()

	// Coordinator decides commit.
	if _, _, err := c0.CommitPrepared(ctx, gid); err != nil {
		t.Fatal(err)
	}

	// Participant restarts: the transaction must come back in-doubt.
	_, _, addr1b := startShardServer(t, p1, 1, 2)
	c1b, err := client.Dial(addr1b, schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c1b.Close()
	st, err := c1b.ShardStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Prepared) != 1 || st.Prepared[0].GID != gid || !st.Prepared[0].Recovered {
		t.Fatalf("participant shard-status after restart = %+v", st.Prepared)
	}
	if st.Slot != 1 || st.Count != 2 {
		t.Fatalf("shard coordinates = %d/%d, want 1/2", st.Slot, st.Count)
	}

	// A router over the surviving group settles it to the coordinator's
	// decision.
	sh, err := client.DialSharded([]string{addr0, addr1b}, schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	resolved, err := sh.ResolveInDoubt(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if resolved != 1 {
		t.Fatalf("resolved %d transactions, want 1", resolved)
	}
	if err := sh.View(ctx, func(tx *client.STx) error {
		if _, err := tx.Deref(oid0); err != nil {
			return fmt.Errorf("coordinator write lost: %w", err)
		}
		o, err := tx.Deref(oid1)
		if err != nil {
			return fmt.Errorf("participant write lost: %w", err)
		}
		if got := o.MustGet("qty").Int(); got != 42 {
			return fmt.Errorf("participant qty = %d, want 42", got)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestShardedStagedDecisionIsInDoubt: when the coordinator's decide
// fsync fails, its decide record is already in the log file and its
// fate is unknown until reopen. The router must report ErrInDoubt, not
// abort the participants "by coordinator timeout", and resolution must
// leave the gid prepared instead of reading the coordinator as abort.
func TestShardedStagedDecisionIsInDoubt(t *testing.T) {
	dbs, _, sh, stock := startShardGroup(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	tx := sh.Begin(ctx)
	for i := 0; i < 2; i++ { // round-robin placement: one object per shard
		if _, err := tx.PNew(stock, item(stock, fmt.Sprintf("staged-%d", i), 1, 1)); err != nil {
			t.Fatal(err)
		}
	}
	// The two votes fsync first; the third fsync is the decision's.
	if err := failpoint.Arm("wal.fsync", failpoint.Spec{Action: failpoint.ActError, AfterN: 2, OneShot: true}); err != nil {
		t.Fatal(err)
	}
	defer failpoint.DisarmAll()
	if err := tx.Commit(); !errors.Is(err, client.ErrInDoubt) {
		t.Fatalf("commit with a failed decide fsync: %v, want ErrInDoubt", err)
	}
	if n := len(dbs[1].PreparedTxs()); n != 1 {
		t.Fatalf("participant holds %d prepared transactions, want 1", n)
	}
	if n, err := sh.ResolveInDoubt(ctx); n != 0 || !errors.Is(err, ode.ErrUnknownOutcome) {
		t.Fatalf("ResolveInDoubt = %d, %v; want 0 and ErrUnknownOutcome", n, err)
	}
	if n := len(dbs[1].PreparedTxs()); n != 1 {
		t.Fatalf("resolution settled the participant against an unknown decision (%d prepared left)", n)
	}
}

// TestShardedReadOnlyCoordinatorCrash: a cross-shard transaction that
// only *reads* on its coordinator shard (routine — the router picks
// the lowest touched shard, written or not) must keep its acked commit
// decision across a coordinator crash: the decision record is durable
// even with an empty write set, so the in-doubt writer participant
// resolves to commit, not presumed abort.
func TestShardedReadOnlyCoordinatorCrash(t *testing.T) {
	p0 := filepath.Join(t.TempDir(), "shard0.odb")
	db0, srv0, addr0 := startShardServer(t, p0, 0, 2)
	db1, _, addr1 := startShardServer(t, filepath.Join(t.TempDir(), "shard1.odb"), 1, 2)

	schema, stock := invSchema()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	// Seed an object on shard 0 for the coordinator-side read.
	var oid0 ode.OID
	if err := db0.RunTx(func(tx *ode.Tx) error {
		var err error
		oid0, err = tx.PNew(stock, item(stock, "seed", 0, 0))
		return err
	}); err != nil {
		t.Fatal(err)
	}

	// Drive the 2PC verbs by hand so the crash lands between the
	// durable decision and its delivery to the writer participant.
	c0, err := client.Dial(addr0, schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	t0, err := c0.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := t0.Deref(oid0); err != nil { // read-only on the coordinator
		t.Fatal(err)
	}
	var oid1 ode.OID
	t1 := db1.Begin()
	oid1, err = t1.PNew(stock, item(stock, "writer-half", 9, 1))
	if err != nil {
		t.Fatal(err)
	}

	const gid = "s0-ro-coord-1"
	if err := t0.Prepare(gid); err != nil {
		t.Fatal(err)
	}
	if err := db1.PrepareTx(t1, gid); err != nil {
		t.Fatal(err)
	}
	// The decision: acked once durable on the (read-only) coordinator.
	if _, _, err := c0.CommitPrepared(ctx, gid); err != nil {
		t.Fatal(err)
	}

	// Coordinator crashes before delivering to the participant.
	srv0.Close()
	db0.CrashForTesting()
	_, _, addr0b := startShardServer(t, p0, 0, 2)

	// The restarted coordinator must still answer "committed" — and
	// resolution must deliver the commit, not presume abort.
	c0b, err := client.Dial(addr0b, schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c0b.Close()
	st, err := c0b.TxStatus(ctx, gid)
	if err != nil {
		t.Fatal(err)
	}
	if st != ode.TxStatusCommitted {
		t.Fatalf("restarted read-only coordinator answers %q, want committed", st)
	}
	sh, err := client.DialSharded([]string{addr0b, addr1}, schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	resolved, err := sh.ResolveInDoubt(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if resolved != 1 {
		t.Fatalf("resolved %d transactions, want 1", resolved)
	}
	if err := db1.View(func(tx *ode.Tx) error {
		o, err := tx.Deref(oid1)
		if err != nil {
			return fmt.Errorf("acked participant write lost: %w", err)
		}
		if got := o.MustGet("qty").Int(); got != 9 {
			return fmt.Errorf("qty = %d, want 9", got)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestShardedAbortBroadcastOnLostPrepareReply: a Prepare whose reply is
// lost at the transport layer may still have prepared server-side; the
// router's global abort must reach that shard too — a non-coordinator
// participant has no orphan timeout, so skipping it would strand its
// exclusive locks until an operator runs ResolveInDoubt.
func TestShardedAbortBroadcastOnLostPrepareReply(t *testing.T) {
	_, _, addr0 := startShardServer(t, filepath.Join(t.TempDir(), "shard0.odb"), 0, 2)
	db1, _, addr1 := startShardServer(t, filepath.Join(t.TempDir(), "shard1.odb"), 1, 2)

	link, err := netchaos.NewLink(addr1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()

	schema, stock := invSchema()
	sh, err := client.DialSharded([]string{addr0, link.Addr()}, schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	tx := sh.Begin(ctx)
	if _, err := tx.PNew(stock, item(stock, "both-0", 1, 1)); err != nil { // shard 0
		t.Fatal(err)
	}
	if _, err := tx.PNew(stock, item(stock, "both-1", 1, 1)); err != nil { // shard 1
		t.Fatal(err)
	}

	// Lose the participant's prepare reply: the request still reaches
	// the server (which prepares), the response is held, and then the
	// connection dies under the router.
	link.SetStall(netchaos.FromTarget, true)
	errc := make(chan error, 1)
	go func() { errc <- tx.Commit() }()
	deadline := time.Now().Add(10 * time.Second)
	for len(db1.PreparedTxs()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("participant never prepared server-side")
		}
		time.Sleep(5 * time.Millisecond)
	}
	link.Reset()                              // the in-flight round trip fails
	link.SetStall(netchaos.FromTarget, false) // heal for the abort delivery
	if err := <-errc; err == nil {
		t.Fatal("commit succeeded despite the lost prepare reply")
	}

	// The global abort must have reached the transport-failed shard:
	// its prepared entry clears without ResolveInDoubt.
	deadline = time.Now().Add(10 * time.Second)
	for len(db1.PreparedTxs()) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("participant still holds %+v; abort never delivered", db1.PreparedTxs())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestShardedResolveAbort: an in-doubt vote whose coordinator knows
// nothing about the gid resolves to abort (presumed abort).
func TestShardedResolveAbort(t *testing.T) {
	dbs, addrs, sh, stock := startShardGroup(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = addrs

	oid := ode.NilOID
	if err := dbs[1].RunTx(func(tx *ode.Tx) error {
		var err error
		oid, err = tx.PNew(stock, item(stock, "seed", 7, 1))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// Prepare a write on shard 1 under a gid naming shard 0 as
	// coordinator — which never heard of it (the router died before
	// preparing there).
	t1 := dbs[1].Begin()
	o, err := t1.Deref(oid)
	if err != nil {
		t.Fatal(err)
	}
	o.MustSet("qty", ode.Int(99))
	if err := t1.Update(oid, o); err != nil {
		t.Fatal(err)
	}
	if err := dbs[1].PrepareTx(t1, "s0-orphan-1"); err != nil {
		t.Fatal(err)
	}

	resolved, err := sh.ResolveInDoubt(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if resolved != 1 {
		t.Fatalf("resolved %d, want 1", resolved)
	}
	if err := dbs[1].View(func(tx *ode.Tx) error {
		o, err := tx.Deref(oid)
		if err != nil {
			return err
		}
		if got := o.MustGet("qty").Int(); got != 7 {
			return fmt.Errorf("qty = %d, want the pre-prepare 7", got)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
