package torture

// The shard row: three in-process shard servers behind a client.Sharded
// router. The shared plans run through the router — creates placed
// round-robin and updates, deletes and version ops routed by oid — so a
// plan of several operations commits on one shard's fast path or
// through the router's two-phase commit, while a one-shot fault is
// armed on the 2PC WAL sites. Every round also stages one plan by hand
// across two or three participants and kills a coordinator or
// participant at the worst moment: between the last vote and the
// decision, or between the coordinator's durable decision and its
// delivery. The killed shard restarts from disk, in-doubt transactions
// are settled through ResolveInDoubt, and resolve holds every uncertain
// plan to all-before or all-after across the shards — the atomicity
// sweep — before verify checks the union of the shards against the
// model.

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"ode"
	"ode/client"
	"ode/internal/failpoint"
	"ode/internal/node"
	"ode/internal/server"
)

// shardN is the group width; routing is oid % shardN.
const shardN = 3

type shardRow struct {
	r      *run
	nodes  [shardN]*node.Node
	stocks [shardN]*ode.Class // each shard's schema instance
	router *client.Sharded
	staged int // staged transactions, numbering their gids
}

func newShard(r *run) row { return &shardRow{r: r} }

func shardOf(oid ode.OID) int { return int(uint64(oid) % shardN) }

func (x *shardRow) boot() error {
	r := x.r
	addrs := make([]string, shardN)
	for i := range x.nodes {
		schema, stock := Schema()
		x.stocks[i] = stock
		x.nodes[i] = node.New(node.Config{
			Path:    filepath.Join(r.cfg.Dir, fmt.Sprintf("shard%d.odb", i)),
			Schema:  schema,
			Indexes: []node.Index{{Class: stock, Field: "qty"}},
			Addr:    "127.0.0.1:0",
			DB: ode.Options{
				PoolPages:  48,
				ShardCount: shardN,
				ShardSlot:  i,
				// Resolution, not the orphan timer, settles every in-doubt
				// transaction here; keep the timer out of the frame.
				PrepareTimeout: 30 * time.Second,
			},
			Server: server.Options{DrainTimeout: 100 * time.Millisecond},
		})
		if err := startNode(x.nodes[i]); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		addrs[i] = x.nodes[i].Addr()
	}
	schema, stock := Schema()
	router, err := client.DialSharded(addrs, schema, nil)
	if err != nil {
		return fmt.Errorf("dial router: %w", err)
	}
	x.router, r.stock = router, stock
	r.runTx = func(ctx context.Context, fn func(ode.ObjectTx) error) error {
		return x.router.RunTx(ctx, func(tx *client.STx) error { return fn(tx) })
	}
	r.view = retried(func(ctx context.Context, fn func(ode.ObjectTx) error) error {
		return x.router.View(ctx, func(tx *client.STx) error { return fn(tx) })
	})
	r.dbs = func(fn func(*ode.DB, *ode.Class) error) error {
		for i, n := range x.nodes {
			if err := n.WithDB(func(db *ode.DB) error { return fn(db, x.stocks[i]) }); err != nil {
				return fmt.Errorf("shard %d: %w", i, err)
			}
		}
		return nil
	}
	return nil
}

// round: a fault armed on a 2PC site, router traffic, one staged
// kill-window transaction, resolution, then resolve and verify.
func (x *shardRow) round(n int) error {
	r := x.r
	// Which command hits the armed site is the rng's pick.
	site := []string{"txn.prepare_wal", "txn.decide_wal"}[r.rng.Intn(2)]
	if err := r.arm(site, failpoint.Spec{Action: failpoint.ActError, AfterN: uint64(r.rng.Intn(4)), OneShot: true}); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := r.traffic(func(int) (bool, error) {
		indoubt := x.router.ShardMetrics().InDoubt.Load()
		p, err := r.transaction(ctx)
		switch {
		case p == nil:
		case err != nil:
			// Failed or in doubt: resolve holds it to all-or-nothing.
			r.doubt(p)
		default:
			x.acked(p)
			if x.router.ShardMetrics().InDoubt.Load() != indoubt {
				// A participant missed the decision and holds its locks
				// until resolution: keep later plans off its objects.
				for oid := range p.after {
					r.fenced[oid] = true
				}
			}
		}
		return false, nil
	})
	if err == nil {
		err = x.stagedKill(ctx)
	}
	failpoint.DisarmAll()
	if err != nil {
		return err
	}
	if err := x.resolveAll(ctx); err != nil {
		return err
	}
	if err := r.resolve(); err != nil {
		return err
	}
	if err := r.verify(); err != nil {
		return err
	}
	fmt.Fprintf(r.log, "round %d: commits=%d uncertain=%d crossacked=%d resolved=%d verified=%d\n",
		n, r.get("commits"), r.get("uncertain"), r.get("crossacked"), r.get("resolved"), r.get("verified"))
	return nil
}

// acked counts a committed plan that spanned shards, and among those
// the ones that did more than create.
func (x *shardRow) acked(p *pending) {
	shards := make(map[int]bool)
	mixed := false
	for _, s := range p.steps {
		shards[shardOf(s.oid)] = true
		mixed = mixed || s.kind != opNew
	}
	if len(shards) > 1 {
		x.r.count("crossacked", 1)
		if mixed {
			x.r.count("crossmixed", 1)
		}
	}
}

// stage plans one step per participant — an update, version freeze or
// delete of a live object on that shard, or a create there — and runs
// the plan by hand as a 2PC up to the last yes-vote under gid. It
// reports false when a shard refused before every vote was in; the
// transaction is then aborted everywhere and p is left uncertain.
func (x *shardRow) stage(ctx context.Context, p *pending, parts []int, gid string) (bool, error) {
	r := x.r
	for _, i := range parts { // step k runs on participant parts[k]
		oid := r.pickLive(p, func(oid ode.OID) bool { return shardOf(oid) == i })
		if k := r.rng.Intn(4); oid == ode.NilOID || k == 0 {
			r.planNew(p)
		} else {
			r.planStep(p, []opKind{opUpdate, opNewVersion, opDelete}[k-1], oid)
		}
	}
	txs := make([]*client.Tx, len(parts))
	for k, i := range parts {
		tx, err := x.router.Shard(i).Begin(ctx)
		if err == nil {
			txs[k] = tx
			err = r.applyStep(tx, p, &p.steps[k])
		}
		if err != nil { // a shard momentarily unreachable
			for _, tx := range txs[:k+1] {
				if tx != nil {
					tx.Abort()
				}
			}
			r.doubt(p)
			return false, r.violation()
		}
	}
	for k := range parts {
		if err := txs[k].Prepare(gid); err != nil {
			// A vote failed (possibly the armed fault): global abort.
			// Prepare finishes its tx win or lose, so yes-voters get
			// AbortPrepared and the not-yet-asked a plain Abort.
			for _, j := range parts[:k] {
				_ = x.router.Shard(j).AbortPrepared(ctx, gid)
			}
			for _, tx := range txs[k+1:] {
				tx.Abort()
			}
			r.doubt(p)
			return false, nil
		}
	}
	return true, nil
}

// stagedKill drives one 2PC by hand so a crash lands exactly inside the
// protocol's windows: after every vote but before the decision, or
// after the coordinator's durable decision but before delivery.
func (x *shardRow) stagedKill(ctx context.Context) error {
	r := x.r
	parts := r.rng.Perm(shardN)[:2+r.rng.Intn(shardN-1)]
	sort.Ints(parts)
	coord := parts[0]
	x.staged++
	gid := fmt.Sprintf("s%d-tort-%d", coord, x.staged)
	r.count("staged", 1)
	p := r.newPlan()
	if ok, err := x.stage(ctx, p, parts, gid); !ok {
		return err
	}
	// Half the time, make the commit decision durable on the coordinator
	// first: the ack point.
	if r.rng.Intn(2) == 0 {
		if _, _, err := x.router.Shard(coord).CommitPrepared(ctx, gid); err == nil {
			r.count("commits", 1)
			r.commit(p)
			x.acked(p)
		} else {
			r.doubt(p)
		}
	} else {
		r.doubt(p)
	}
	victim := parts[r.rng.Intn(len(parts))]
	if victim == coord {
		r.count("coordkills", 1)
	} else {
		r.count("partkills", 1)
	}
	x.nodes[victim].Kill()
	return startNode(x.nodes[victim])
}

// resolveAll settles every in-doubt transaction and waits until no
// shard holds prepared state. Transient client failures (a pooled
// connection that died with a killed shard) retry inside the window.
func (x *shardRow) resolveAll(ctx context.Context) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		n, err := x.router.ResolveInDoubt(ctx)
		x.r.count("resolved", n)
		if err == nil {
			sts, serr := x.router.Status(ctx)
			err = serr
			for i := 0; err == nil && i < len(sts); i++ {
				if len(sts[i].Prepared) > 0 {
					err = fmt.Errorf("shard %d still holds %d prepared", i, len(sts[i].Prepared))
				}
			}
			if err == nil {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("in-doubt transactions never drained (last error: %v)", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func (x *shardRow) finish() error {
	if x.r.get("crossacked") == 0 {
		return fmt.Errorf("no cross-shard commit was ever acked; 2PC traffic is broken")
	}
	return nil
}

func (x *shardRow) shutdown() {
	if x.router != nil {
		x.router.Close()
	}
	for _, n := range x.nodes {
		if n != nil {
			n.Kill() // keeps the store as the run left it
		}
	}
}
