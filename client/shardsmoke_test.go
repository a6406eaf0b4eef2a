package client_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"ode"
	"ode/client"
	"ode/internal/bench"
)

// External sharded smoke driver (ci.yml shard-smoke job). These tests
// skip unless SHARD_SMOKE_ADDRS names a live shard group; CI runs them
// by name, the last two around a SIGKILL/restart of one participant:
//
//	TestShardSmokeTraffic — routed traffic on the healthy group: skewed
//	                        views, single-shard updates, cross-shard
//	                        transfers, one scatter-gather count.
//	TestShardSmokeStage   — prepares a cross-shard transaction on
//	                        shards 0 and 1 and makes the commit
//	                        decision durable on the coordinator only,
//	                        leaving shard 1 in doubt, then exits.
//	(ci.yml SIGKILLs shard 1 here and restarts it)
//	TestShardSmokeVerify  — resolves in-doubt state through the router
//	                        and asserts the staged transaction ended
//	                        fully applied on both participants.
//
// The stage/verify split is the point: the in-doubt window must span a
// process exit, a SIGKILL, and a crash recovery, which no single
// in-process test can script against real servers.

// shardSmokeGID pins shard 0 as the coordinator ("s0-" prefix, see
// docs/SHARDING.md); resolution asks shard 0 for the verdict.
const (
	shardSmokeGID  = "s0-cismoke-1"
	shardSmokeName = "ci-2pc-smoke"
)

func shardSmokeAddrs(t *testing.T) []string {
	env := os.Getenv("SHARD_SMOKE_ADDRS")
	if env == "" {
		t.Skip("external shard smoke: set SHARD_SMOKE_ADDRS=host:port,host:port,... (see ci.yml)")
	}
	addrs := bench.Connect(env).Addrs
	if len(addrs) < 2 {
		t.Fatalf("SHARD_SMOKE_ADDRS needs at least two shards, got %q", env)
	}
	return addrs
}

func TestShardSmokeTraffic(t *testing.T) {
	d, err := bench.Open(bench.Shape{Kind: bench.Sharded, Addrs: shardSmokeAddrs(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// Quantities from floor up mark this run's items, so the count below
	// holds on a group that already has stock; a transfer moves one unit
	// and never takes an item under the floor.
	const n, floor = 300, 1 << 40
	mine := &ode.Scan{Class: d.Stock, Field: "qty", Op: ode.CmpGe, Value: ode.Int(floor)}
	count := func() (got int) {
		if err := d.View(func(tx ode.ObjectTx) (err error) {
			got, err = tx.Count(mine)
			return err
		}); err != nil {
			t.Fatalf("scatter count: %v", err)
		}
		return got
	}
	before := count()
	oids, err := d.Insert(n, func(i int) *ode.Object {
		return bench.NewStock(d.Stock, fmt.Sprintf("traffic-%03d", i), 1, floor+1000, 0)
	})
	if err != nil {
		t.Fatalf("load: %v", err)
	}

	rng := rand.New(rand.NewSource(1))
	pick := func() ode.OID { // four reads in five go to the first tenth
		if rng.Intn(5) > 0 {
			return oids[rng.Intn(n/10)]
		}
		return oids[rng.Intn(n)]
	}
	add := func(tx ode.ObjectTx, oid ode.OID, units int64) error {
		o, err := tx.Deref(oid)
		if err != nil {
			return err
		}
		o.MustSet("qty", ode.Int(o.MustGet("qty").Int()+units))
		return tx.Update(oid, o)
	}
	updates := int64(0)
	for round := 0; round < 40; round++ {
		err := d.View(func(tx ode.ObjectTx) error {
			for i := 0; i < 8; i++ {
				if _, err := tx.Deref(pick()); err != nil {
					return err
				}
			}
			return nil
		})
		if err == nil {
			oid := pick()
			err = d.RunTx(func(tx ode.ObjectTx) error { return add(tx, oid, 1) })
			updates++
		}
		if err == nil {
			// Neighbours in load order live on different shards.
			from := rng.Intn(n - 1)
			err = d.RunTx(func(tx ode.ObjectTx) error {
				if err := add(tx, oids[from], -1); err != nil {
					return err
				}
				return add(tx, oids[from+1], 1)
			})
		}
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}

	if got := count(); got != before+n {
		t.Errorf("scatter count %d, want %d", got, before+n)
	}
	// Transfers conserve units and each update adds one: the group total
	// says every cross-shard commit landed on both shards or neither.
	sum := int64(0)
	if err := d.View(func(tx ode.ObjectTx) error {
		for _, oid := range oids {
			o, err := tx.Deref(oid)
			if err != nil {
				return err
			}
			sum += o.MustGet("qty").Int() - floor
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := int64(n)*1000 + updates; sum != want {
		t.Errorf("units over the group %d, want %d", sum, want)
	}
	sm := d.Router.ShardMetrics()
	if sm.CrossCommits.Load() == 0 || sm.SingleCommits.Load() == 0 || sm.InDoubt.Load() != 0 {
		t.Errorf("router commits: cross %d, single %d, in doubt %d", sm.CrossCommits.Load(), sm.SingleCommits.Load(), sm.InDoubt.Load())
	}
	sts, err := d.Router.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range sts {
		if st == nil || len(st.Prepared) != 0 {
			t.Errorf("shard %d: status %+v, want reachable with nothing prepared", i, st)
		}
	}
}

func TestShardSmokeStage(t *testing.T) {
	addrs := shardSmokeAddrs(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// One write on each of shards 0 and 1, prepared on both.
	clients := make([]*client.Client, 2)
	for i := range clients {
		schema, w := bench.Schema()
		c, err := client.Dial(addrs[i], schema, nil)
		if err != nil {
			t.Fatalf("dial shard %d: %v", i, err)
		}
		defer c.Close()
		clients[i] = c

		tx, err := c.Begin(ctx)
		if err != nil {
			t.Fatalf("begin on shard %d: %v", i, err)
		}
		o := ode.NewObject(w.Stock)
		o.MustSet("name", ode.Str(shardSmokeName))
		o.MustSet("price", ode.Float(1))
		o.MustSet("qty", ode.Int(777))
		o.MustSet("threshold", ode.Int(0))
		if _, err := tx.PNew(w.Stock, o); err != nil {
			t.Fatalf("pnew on shard %d: %v", i, err)
		}
		if err := tx.Prepare(shardSmokeGID); err != nil {
			t.Fatalf("prepare on shard %d: %v", i, err)
		}
	}

	// Durable commit decision on the coordinator only; shard 1 is left
	// holding the prepared transaction with no verdict delivered.
	if _, _, err := clients[0].CommitPrepared(ctx, shardSmokeGID); err != nil {
		t.Fatalf("commit-prepared on coordinator: %v", err)
	}
	t.Logf("staged %s: committed on shard 0, in doubt on shard 1", shardSmokeGID)
}

func TestShardSmokeVerify(t *testing.T) {
	addrs := shardSmokeAddrs(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	schema, w := bench.Schema()
	r, err := client.DialSharded(addrs, schema, nil)
	if err != nil {
		t.Fatalf("dial sharded: %v", err)
	}
	defer r.Close()

	// Belt and braces: ci.yml already resolved through ode-sh; a second
	// pass must be a no-op and the group must hold nothing in doubt.
	if _, err := r.ResolveInDoubt(ctx); err != nil {
		t.Fatalf("resolve in-doubt: %v", err)
	}
	sts, err := r.Status(ctx)
	if err != nil {
		t.Fatalf("shard status: %v", err)
	}
	for i, st := range sts {
		if st == nil {
			t.Fatalf("shard %d @ %s unreachable", i, addrs[i])
		}
		if len(st.Prepared) != 0 {
			t.Fatalf("shard %d still holds %d prepared transaction(s): %+v", i, len(st.Prepared), st.Prepared)
		}
	}

	// The coordinator decided commit, so the staged transaction must be
	// fully applied: exactly one copy on each participating shard.
	got := 0
	err = r.View(ctx, func(tx *client.STx) error {
		n, err := tx.Count(&client.Scan{Class: w.Stock, Field: "name", Op: client.CmpEq, Value: ode.Str(shardSmokeName)})
		got = n
		return err
	})
	if err != nil {
		t.Fatalf("routed count: %v", err)
	}
	if got != 2 {
		t.Fatalf("staged transaction not atomic: want 2 copies of %q across the group, got %d", shardSmokeName, got)
	}
}
