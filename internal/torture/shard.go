package torture

// Sharding torture: three in-process shard servers behind a
// client.Sharded router. Rounds drive marker transactions — each
// writes one copy of a marker object per participating shard — through
// the router's single-shard fast path and its cross-shard two-phase
// commit, with a one-shot fault armed on the 2PC WAL sites. Every
// round additionally stages one transaction by hand and kills a
// coordinator or participant at the worst moment: between prepare and
// the decision, or between the coordinator's durable decision and its
// delivery to the rest. The killed shard restarts from disk, in-doubt
// transactions are settled through ResolveInDoubt, and the invariant
// is atomicity: a marker's copy count across all shards is either 0 or
// its participant count — and exactly the participant count for every
// acked commit.

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"time"

	"ode"
	"ode/client"
	"ode/internal/failpoint"
	"ode/internal/node"
	"ode/internal/server"
)

// shardN is the group width; routing is oid % shardN.
const shardN = 3

// ShardConfig parameterizes a sharding torture run.
type ShardConfig struct {
	// Seed drives every random decision of the run.
	Seed int64
	// Rounds is the number of traffic/kill/resolve/verify cycles.
	Rounds int
	// OpsPerRound bounds the router transactions attempted per round.
	OpsPerRound int
	// Dir holds the shard stores' files; it must exist and is never
	// deleted (CI uploads it as an artifact on failure).
	Dir string
	// Log, if non-nil, receives one progress line per round.
	Log io.Writer
}

// ShardResult summarizes a completed sharding torture run.
type ShardResult struct {
	Rounds     int
	Ops        int // router transactions attempted
	Acked      int // commits acknowledged to the "application"
	Uncertain  int // failures with an unknown outcome (in-doubt, transport)
	CrossAcked int // acked commits that spanned shards (took 2PC)
	Staged     int // hand-staged kill-window transactions
	CoordKills int // shards killed while coordinating
	PartKills  int // shards killed while a mere participant
	Resolved   int // in-doubt transactions settled by ResolveInDoubt
	Faults     uint64
	SitesFired map[string]uint64
}

// shardNode is one shard: the node runtime ode-server runs, on an
// address that is stable across crashes (the router redials it).
type shardNode struct {
	*node.Node
	stock *ode.Class // this node's schema instance
}

// shardRun carries the state of one sharding torture run.
type shardRun struct {
	cfg ShardConfig
	rng *rand.Rand
	log io.Writer

	nodes  [shardN]*shardNode
	router *client.Sharded
	stock  *ode.Class // the router clients' schema instance

	nextMarker int64
	all        map[int64]int // marker id -> participant count (every attempt)
	acked      map[int64]int // marker id -> participant count (acked only)

	res ShardResult
}

// RunShard executes one sharding torture run; any atomicity violation
// or unexpected engine error is returned with the seed for
// reproduction.
func RunShard(cfg ShardConfig) (*ShardResult, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("torture: ShardConfig.Dir is required")
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 6
	}
	if cfg.OpsPerRound <= 0 {
		cfg.OpsPerRound = 20
	}
	logW := cfg.Log
	if logW == nil {
		logW = io.Discard
	}
	r := &shardRun{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		log:   logW,
		all:   make(map[int64]int),
		acked: make(map[int64]int),
	}
	for i := range r.nodes {
		schema, stock := Schema()
		r.nodes[i] = &shardNode{stock: stock, Node: node.New(node.Config{
			Path:   filepath.Join(cfg.Dir, fmt.Sprintf("shard%d.odb", i)),
			Schema: schema,
			Addr:   "127.0.0.1:0",
			DB: ode.Options{
				PoolPages:  48,
				ShardCount: shardN,
				ShardSlot:  i,
				// Resolution, not the orphan timer, settles every in-doubt
				// transaction in this harness; keep the timer out of the frame.
				PrepareTimeout: 30 * time.Second,
			},
			Server: server.Options{DrainTimeout: 100 * time.Millisecond},
		})}
	}
	firesBefore := failpoint.FireCounts()
	defer failpoint.DisarmAll()

	err := r.runAll()
	fires := failpoint.FireCounts()
	r.res.SitesFired = make(map[string]uint64)
	for site, n := range fires {
		if d := n - firesBefore[site]; d > 0 {
			r.res.SitesFired[site] = d
			r.res.Faults += d
		}
	}
	if err != nil {
		return &r.res, fmt.Errorf("torture(shard): seed %d: %w (stores kept at %s)", cfg.Seed, err, cfg.Dir)
	}
	return &r.res, nil
}

func (r *shardRun) runAll() error {
	addrs := make([]string, shardN)
	for i, n := range r.nodes {
		defer n.Kill() // keeps the store as the run left it
		if err := startNode(n.Node); err != nil {
			return fmt.Errorf("boot shard %d: %w", i, err)
		}
		addrs[i] = n.Addr()
	}
	schema, stock := Schema()
	router, err := client.DialSharded(addrs, schema, nil)
	if err != nil {
		return fmt.Errorf("dial router: %w", err)
	}
	defer router.Close()
	r.router, r.stock = router, stock

	for round := 1; round <= r.cfg.Rounds; round++ {
		if err := r.round(round); err != nil {
			return fmt.Errorf("round %d: %w", round, err)
		}
	}
	if r.res.CrossAcked == 0 {
		return fmt.Errorf("no cross-shard commit was ever acked; 2PC traffic is broken")
	}
	return nil
}

// crashShard kills one shard process-style and brings it back from
// disk.
func (r *shardRun) crashShard(i int) error {
	r.nodes[i].Kill()
	return startNode(r.nodes[i].Node)
}

// markerObj builds one copy of marker id.
func (r *shardRun) markerObj(id int64) *ode.Object {
	o := ode.NewObject(r.stock)
	o.MustSet("name", ode.Str(fmt.Sprintf("m%d", id)))
	o.MustSet("qty", ode.Int(id))
	return o
}

// round: a fault armed on a 2PC site, router traffic, one hand-staged
// kill-window transaction, resolution, then the atomicity sweep.
func (r *shardRun) round(round int) error {
	// Arm one one-shot fault on a 2PC durability site for this round's
	// traffic; which command hits it is the rng's pick.
	site := []string{"txn.prepare_wal", "txn.decide_wal"}[r.rng.Intn(2)]
	failpoint.Arm(site, failpoint.Spec{
		Action:  failpoint.ActError,
		AfterN:  uint64(r.rng.Intn(4)),
		OneShot: true,
	})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for op := 0; op < r.cfg.OpsPerRound; op++ {
		r.routerOp(ctx)
	}
	if err := r.stagedKillOp(ctx); err != nil {
		return err
	}
	failpoint.DisarmAll()

	if err := r.resolveAll(ctx); err != nil {
		return err
	}
	if err := r.verifyMarkers(); err != nil {
		return err
	}
	r.res.Rounds++
	fmt.Fprintf(r.log, "round %d: ops=%d acked=%d uncertain=%d crossacked=%d kills=%d/%d resolved=%d\n",
		round, r.res.Ops, r.res.Acked, r.res.Uncertain, r.res.CrossAcked,
		r.res.CoordKills, r.res.PartKills, r.res.Resolved)
	return nil
}

// routerOp runs one marker transaction through the router: 1..3 copies
// of a fresh marker, one per shard by round-robin placement, so the
// copy count is the participant count.
func (r *shardRun) routerOp(ctx context.Context) {
	id := r.nextMarker
	r.nextMarker++
	parts := 1 + r.rng.Intn(shardN)
	r.res.Ops++
	r.all[id] = parts
	err := r.router.RunTx(ctx, func(tx *client.STx) error {
		for k := 0; k < parts; k++ {
			if _, err := tx.PNew(r.stock, r.markerObj(id)); err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil {
		r.acked[id] = parts
		r.res.Acked++
		if parts > 1 {
			r.res.CrossAcked++
		}
		return
	}
	// Failed or in-doubt: the sweep holds it to 0-or-parts copies.
	r.res.Uncertain++
}

// stagedKillOp drives one 2PC by hand so a crash lands exactly inside
// the protocol's windows: after every vote but before the decision, or
// after the coordinator's durable decision but before delivery.
func (r *shardRun) stagedKillOp(ctx context.Context) error {
	id := r.nextMarker
	r.nextMarker++
	k := 2 + r.rng.Intn(shardN-1) // 2..shardN participants
	perm := r.rng.Perm(shardN)[:k]
	parts := append([]int(nil), perm...)
	for i := 1; i < len(parts); i++ { // insertion sort; coordinator = lowest
		for j := i; j > 0 && parts[j] < parts[j-1]; j-- {
			parts[j], parts[j-1] = parts[j-1], parts[j]
		}
	}
	coord := parts[0]
	gid := fmt.Sprintf("s%d-tort-%d", coord, id)
	r.res.Staged++

	// Stage: one copy per participant, then prepare everywhere.
	txs := make(map[int]*client.Tx, k)
	abortAll := func() {
		for _, tx := range txs {
			tx.Abort()
		}
	}
	for _, i := range parts {
		tx, err := r.router.Shard(i).Begin(ctx)
		if err != nil {
			abortAll()
			return nil // shard momentarily unreachable; skip this round's kill
		}
		txs[i] = tx
		if _, err := tx.PNew(r.stock, r.markerObj(id)); err != nil {
			abortAll()
			return nil
		}
	}
	r.all[id] = k
	prepared := make(map[int]bool, k)
	for _, i := range parts {
		if err := txs[i].Prepare(gid); err != nil {
			// A vote failed (possibly the armed fault): global abort.
			// Prepare finishes its tx win or lose, so yes-voters get
			// AbortPrepared and the not-yet-asked get a plain Abort.
			for _, j := range parts {
				switch {
				case prepared[j]:
					_ = r.router.Shard(j).AbortPrepared(ctx, gid)
				case j != i:
					txs[j].Abort()
				}
			}
			return nil
		}
		prepared[i] = true
	}

	// Decide-first half of the matrix: make the commit decision durable
	// on the coordinator, which is the ack point.
	decided := r.rng.Intn(2) == 0
	if decided {
		if _, _, err := r.router.Shard(coord).CommitPrepared(ctx, gid); err != nil {
			decided = false // decision's fate unknown; sweep treats as 0-or-k
			r.res.Uncertain++
		} else {
			r.acked[id] = k
			r.res.Acked++
			r.res.CrossAcked++
		}
	}

	// The kill: a participant or the coordinator, between prepare and
	// (delivery of) the decision.
	victim := parts[r.rng.Intn(len(parts))]
	if victim == coord {
		r.res.CoordKills++
	} else {
		r.res.PartKills++
	}
	return r.crashShard(victim)
}

// resolveAll settles every in-doubt transaction and waits until no
// shard holds prepared state. Transient client failures (a pooled
// connection that died with a killed shard) retry inside the window.
func (r *shardRun) resolveAll(ctx context.Context) error {
	deadline := time.Now().Add(20 * time.Second)
	var lastErr error
	for {
		n, err := r.router.ResolveInDoubt(ctx)
		r.res.Resolved += n
		lastErr = err
		if err == nil {
			clear := true
			for i := range r.nodes {
				st, serr := r.router.Shard(i).ShardStatus(ctx)
				if serr != nil {
					clear, lastErr = false, serr
					break
				}
				if len(st.Prepared) > 0 {
					clear = false
					break
				}
			}
			if clear {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("in-doubt transactions never drained (last error: %v)", lastErr)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// verifyMarkers is the atomicity sweep: count every marker's copies
// across all shards straight from the embedded stores. Any count
// strictly between 0 and the participant count is a half-applied
// cross-shard transaction; an acked marker short of its full count is
// lost durability.
func (r *shardRun) verifyMarkers() error {
	counts := make(map[int64]int)
	for i, n := range r.nodes {
		if err := n.WithDB(func(db *ode.DB) error {
			oids, err := db.Manager().ClusterOIDs(n.stock)
			if err != nil {
				return err
			}
			return db.View(func(tx *ode.Tx) error {
				for _, oid := range oids {
					o, derr := tx.Deref(oid)
					if derr != nil {
						return derr
					}
					counts[o.MustGet("qty").Int()]++
				}
				return nil
			})
		}); err != nil {
			return fmt.Errorf("shard %d sweep: %w", i, err)
		}
	}
	for id, parts := range r.all {
		if got := counts[id]; got != 0 && got != parts {
			return fmt.Errorf("marker %d half-applied: %d of %d copies present", id, got, parts)
		}
	}
	for id, parts := range r.acked {
		if got := counts[id]; got != parts {
			return fmt.Errorf("acked marker %d lost: %d of %d copies present", id, got, parts)
		}
	}
	return nil
}
