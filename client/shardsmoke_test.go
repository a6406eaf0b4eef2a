package client_test

import (
	"context"
	"os"
	"strings"
	"testing"
	"time"

	"ode"
	"ode/client"
	"ode/internal/bench"
)

// External sharded smoke driver (ci.yml shard-smoke job). These tests
// skip unless SHARD_SMOKE_ADDRS names a live shard group; CI runs them
// by name around a SIGKILL/restart of one participant:
//
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
	addrs := strings.Split(env, ",")
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
	}
	if len(addrs) < 2 {
		t.Fatalf("SHARD_SMOKE_ADDRS needs at least two shards, got %q", env)
	}
	return addrs
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
