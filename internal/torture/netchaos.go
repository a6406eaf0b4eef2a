package torture

// The netchaos row: three full nodes — each an internal/node.Node, the
// lifecycle state machine ode-server runs, configured only with
// compressed timings — meshed through netchaos proxy links, with the
// shared traffic riding a client.Replicated router through one link per
// node. Each round injects one network fault — a partition, a node
// kill, connection resets, latency, an asymmetric stall — while plans
// and floored reads keep flowing; automatic failover (heartbeat
// detection, quorum election, epoch fencing, resync self-healing) is
// what keeps the group serving. A plan whose commit errored or timed
// out is uncertain: fenced until the round's resolve, which the healed
// group must answer all-before or all-after. After every round the
// fault heals and the group must converge — exactly one writable node,
// one replication identity, equal applied LSNs, byte-identical state
// digests — and verify against the model, so no acknowledged write is
// lost. A background sampler holds the run to at most one writable
// node per fencing epoch throughout.
//
// Commit acks use CommitAckQuorum=1: the primary acknowledges a write
// only once a replica holds it, so an isolated primary cannot ack —
// which is what lets the model survive elections that legally discard
// an isolated primary's unacknowledged tail.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"time"

	"ode"
	"ode/client"
	"ode/internal/netchaos"
	"ode/internal/node"
	"ode/internal/repl"
	"ode/internal/server"
)

// Timing for the chaos cluster: aggressive enough that failover
// completes well inside a round, with the detection window several
// probe intervals long so transient latency faults don't trip it.
const (
	ncNodes      = 3
	ncHeartbeat  = 60 * time.Millisecond  // source heartbeat interval
	ncHBTimeout  = 700 * time.Millisecond // replica stream silence tolerance
	ncProbe      = 120 * time.Millisecond // monitor health-check interval
	ncWindow     = 450 * time.Millisecond // failure window before an election
	ncDial       = 300 * time.Millisecond // probe dial+roundtrip bound
	ncAckTimeout = 900 * time.Millisecond // semi-sync commit ack wait
	ncOpCtx      = 2 * time.Second        // per-client-op context budget
)

type chaosRow struct {
	r     *run
	links [ncNodes][ncNodes]*netchaos.Link // [dialer][target]; nil diagonal
	clink [ncNodes]*netchaos.Link          // client → node i
	nodes [ncNodes]*chaosNode
	cl    *client.Replicated

	// Run-long epoch ledger: which node first served writes at each
	// epoch. A second claimant is split brain.
	epochOwner map[uint64]int
	sampling   bool // checkEpochs is running
	checkStop  chan struct{}
	checkDone  chan struct{}
}

// chaosNode is one node of the group: the shared lifecycle runtime plus
// what the harness needs to address and digest it.
type chaosNode struct {
	*node.Node
	name  string     // advertised election identity ("n0"..)
	stock *ode.Class // this node's schema instance
}

func newNetChaos(r *run) row {
	return &chaosRow{r: r, epochOwner: make(map[uint64]int), checkStop: make(chan struct{}), checkDone: make(chan struct{})}
}

// boot reserves stable node addresses, wires the full proxy mesh,
// starts all three nodes cold — nobody self-crowns: every node boots
// read-only seeking a primary, and the first election crowns the
// deterministic winner — and then writes until that election is over.
func (x *chaosRow) boot() error {
	// Reserve each node's port up front: links must know their target
	// address before the target's first Listen, and the address must
	// survive node restarts.
	addrs := make([]string, ncNodes)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	var err error
	for i := 0; i < ncNodes; i++ {
		for j := 0; j < ncNodes; j++ {
			if i != j {
				if x.links[i][j], err = netchaos.NewLink(addrs[j], nil); err != nil {
					return err
				}
			}
		}
		if x.clink[i], err = netchaos.NewLink(addrs[i], nil); err != nil {
			return err
		}
	}
	for i := 0; i < ncNodes; i++ {
		x.nodes[i] = x.newNode(i, addrs[i])
		if err := x.nodes[i].Start(); err != nil {
			return fmt.Errorf("%s: %w", x.nodes[i].name, err)
		}
	}
	x.sampling = true
	go x.checkEpochs()
	return x.bootstrapTraffic()
}

// newNode configures node i the way ode-server -auto-failover would be,
// with the chaos cluster's timings, small-WAL pressure (as in the repl
// row), and its peers addressed through its own links.
func (x *chaosRow) newNode(i int, addr string) *chaosNode {
	cfg, stock := smallWALNode(filepath.Join(x.r.cfg.Dir, fmt.Sprintf("node%d.odb", i)))
	name := fmt.Sprintf("n%d", i)
	logf := func(format string, args ...any) { fmt.Fprintf(x.r.log, "["+name+"] "+format+"\n", args...) }
	var peers []string
	for j := 0; j < ncNodes; j++ {
		if j != i {
			peers = append(peers, x.links[i][j].Addr())
		}
	}
	cfg.Addr = addr
	cfg.Server = server.Options{
		CommitAckQuorum: 1,
		AckTimeout:      ncAckTimeout,
		Advertise:       name,
		DrainTimeout:    50 * time.Millisecond,
	}
	cfg.Source = repl.SourceOptions{HeartbeatEvery: ncHeartbeat, Logf: logf}
	cfg.Replica = repl.ReplicaOptions{
		DialTimeout:      500 * time.Millisecond,
		Backoff:          10 * time.Millisecond,
		MaxBackoff:       200 * time.Millisecond,
		HeartbeatTimeout: ncHBTimeout,
	}
	cfg.Monitor = repl.MonitorOptions{
		Self:        name,
		Peers:       peers,
		Window:      ncWindow,
		Probe:       ncProbe,
		DialTimeout: ncDial,
		Logf:        logf,
	}
	cfg.OnTransition = func(t node.Transition) {
		logf("%v", t)
		switch t.Kind {
		case node.Promoted:
			x.r.count("promotions", 1)
		case node.Resyncing:
			x.r.count("resyncs", 1)
		case node.Failed:
			x.r.failf("%s: %v", name, t.Err)
		}
	}
	return &chaosNode{name: name, stock: stock, Node: node.New(cfg)}
}

// bootstrapTraffic dials the router through the client links, points
// the run's topology at the group, and creates until a create commits.
func (x *chaosRow) bootstrapTraffic() error {
	r := x.r
	_, r.stock = Schema()
	clients := make([]*client.Client, ncNodes)
	for i := range clients {
		cschema, _ := Schema()
		var err error
		for deadline := time.Now().Add(10 * time.Second); ; {
			clients[i], err = client.Dial(x.clink[i].Addr(), cschema, &client.Options{DialTimeout: 500 * time.Millisecond, CacheSize: 64})
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("dial node %d: %w", i, err)
			}
			time.Sleep(25 * time.Millisecond)
		}
	}
	x.cl = client.NewReplicated(clients[0], clients[1:]...)
	r.runTx = func(ctx context.Context, fn func(ode.ObjectTx) error) error {
		return x.cl.RunTx(ctx, func(tx *client.Tx) error { return fn(tx) })
	}
	r.view = retried(func(ctx context.Context, fn func(ode.ObjectTx) error) error {
		return x.cl.View(ctx, func(tx *client.Tx) error { return fn(tx) })
	})
	r.dbs = func(fn func(*ode.DB, *ode.Class) error) error {
		prim := x.primaryIdx()
		if prim < 0 {
			return fmt.Errorf("no primary after convergence")
		}
		n := x.nodes[prim]
		return n.WithDB(func(db *ode.DB) error { return fn(db, n.stock) })
	}

	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(100 * time.Millisecond) {
		ctx, cancel := context.WithTimeout(context.Background(), ncOpCtx)
		p, err := r.createOne(ctx)
		cancel()
		if err == nil {
			fmt.Fprintf(r.log, "bootstrap: first commit landed (primary n%d)\n", x.primaryIdx())
			return nil
		}
		r.doubt(p)
		if time.Now().After(deadline) {
			return fmt.Errorf("bootstrap election never produced a writable primary: %w", err)
		}
	}
}

// retried wraps a client view so a read that failed on transport noise
// — a pooled connection that died with a killed node, a node between
// incarnations, a failover still settling — is tried again, within 10 s
// in all. Any other error, an engine error above all, is returned at
// once. Reads change nothing, so repeating one is safe.
func retried(view func(ctx context.Context, fn func(ode.ObjectTx) error) error) func(fn func(ode.ObjectTx) error) error {
	return func(fn func(ode.ObjectTx) error) error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for {
			err := view(ctx, fn)
			var ne net.Error
			noise := errors.As(err, &ne) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
				errors.Is(err, node.ErrDown) || errors.Is(err, ode.ErrDBClosed) ||
				errors.Is(err, ode.ErrFailover) || errors.Is(err, ode.ErrStaleEpoch)
			if !noise || ctx.Err() != nil {
				return err
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
}

// primaryIdx reports which node currently serves writes, or -1.
func (x *chaosRow) primaryIdx() int {
	for i, n := range x.nodes {
		if _, writable, _, _ := n.state(); writable {
			return i
		}
	}
	return -1
}

// round injects one fault, drives traffic through it, heals, and then
// demands convergence, every uncertain plan resolved, and the model.
func (x *chaosRow) round(n int) error {
	r := x.r
	fmt.Fprintf(r.log, "round %d: %s\n", n, x.injectFault())
	if err := r.traffic(x.op); err != nil {
		return err
	}
	x.healAll()
	if err := x.converge(n); err != nil {
		return err
	}
	if err := r.resolve(); err != nil {
		return err
	}
	if err := r.verify(); err != nil {
		return err
	}
	return r.violation()
}

// op is one client operation: mostly a shared plan, sometimes a floored
// read. Any error leaves a plan uncertain — an isolated primary's tail
// may legally be discarded, a lost reply may hide a commit.
func (x *chaosRow) op(int) (bool, error) {
	r := x.r
	if r.rng.Intn(4) == 0 && len(r.model) > 0 {
		x.readFloored()
	} else {
		ctx, cancel := context.WithTimeout(context.Background(), ncOpCtx)
		if p, err := r.transaction(ctx); err != nil {
			r.doubt(p)
		}
		cancel()
	}
	time.Sleep(time.Duration(2+r.rng.Intn(15)) * time.Millisecond)
	return false, nil
}

// readFloored reads a random live object at the session's freshness
// floor. A transport failure mid-fault is noise; an affirmative "no
// such object" from a node that passed the floor is counted as a stale
// read, not a failure: a wiped node mid-resync against a not-yet-deposed
// stale primary can transiently serve forked history whose LSNs pass
// the numeric floor. The authoritative check is the round-end verify
// against the converged group.
func (x *chaosRow) readFloored() {
	r := x.r
	oid := r.pickLive(r.newPlan(), nil)
	if oid == ode.NilOID {
		return
	}
	want := r.model[oid].name
	ctx, cancel := context.WithTimeout(context.Background(), ncOpCtx)
	defer cancel()
	err := x.cl.View(ctx, func(tx *client.Tx) error {
		o, err := tx.Deref(oid)
		if err == nil && o.MustGet("name").Str() != want {
			err = fmt.Errorf("@%d holds %q, want %q", oid, o.MustGet("name").Str(), want)
		}
		return err
	})
	r.count("reads", 1)
	switch {
	case err == nil:
	case errors.Is(err, ode.ErrNoObject):
		r.count("stale", 1)
		fmt.Fprintf(r.log, "stale floored read: @%d answered absent mid-fault\n", oid)
	default:
		r.count("readfails", 1)
	}
}

// injectFault picks and applies one seeded fault, returning its
// description for the log.
func (x *chaosRow) injectFault() string {
	r := x.r
	p := x.primaryIdx()
	if p < 0 {
		p = r.rng.Intn(ncNodes)
	}
	other := (p + 1 + r.rng.Intn(ncNodes-1)) % ncNodes
	switch r.rng.Intn(8) {
	case 0:
		x.isolate(p)
		r.count("partitions", 1)
		return fmt.Sprintf("isolate primary n%d", p)
	case 1:
		x.isolate(other)
		r.count("partitions", 1)
		return fmt.Sprintf("isolate replica n%d", other)
	case 2:
		x.nodes[p].Kill()
		r.count("nodekills", 1)
		return fmt.Sprintf("kill primary n%d", p)
	case 3:
		x.nodes[other].Kill()
		r.count("nodekills", 1)
		return fmt.Sprintf("kill replica n%d", other)
	case 4:
		// Sever live connections on a few random links; everything
		// reconnects on its own.
		n := 1 + r.rng.Intn(3)
		for k := 0; k < n; k++ {
			x.randomLink().Reset()
		}
		r.count("resets", 1)
		return fmt.Sprintf("reset %d random links", n)
	case 5:
		d := time.Duration(3+r.rng.Intn(18)) * time.Millisecond
		n := 1 + r.rng.Intn(2)
		for k := 0; k < n; k++ {
			x.randomLink().SetLatency(d)
		}
		r.count("delays", 1)
		return fmt.Sprintf("add %v latency to %d links", d, n)
	case 6:
		// Asymmetric drop: silence one direction of one inter-node
		// link. Stalling FromTarget on a replica's link to its primary
		// starves the WAL stream (no heartbeats) while the replica's
		// own sends still flow.
		l := x.randomMeshLink()
		dir := netchaos.Dir(r.rng.Intn(2))
		l.SetStall(dir, true)
		r.count("stalls", 1)
		return fmt.Sprintf("stall dir=%d on a mesh link", int(dir))
	default:
		return "no fault (control round)"
	}
}

// isolate partitions node i away from its peers and its client.
func (x *chaosRow) isolate(i int) {
	for j := 0; j < ncNodes; j++ {
		if j != i {
			x.links[i][j].SetPartition(true)
			x.links[j][i].SetPartition(true)
		}
	}
	x.clink[i].SetPartition(true)
}

func (x *chaosRow) randomLink() *netchaos.Link {
	if x.r.rng.Intn(4) == 0 {
		return x.clink[x.r.rng.Intn(ncNodes)]
	}
	return x.randomMeshLink()
}

func (x *chaosRow) randomMeshLink() *netchaos.Link {
	for {
		i, j := x.r.rng.Intn(ncNodes), x.r.rng.Intn(ncNodes)
		if i != j {
			return x.links[i][j]
		}
	}
}

// healAll clears every network fault and revives killed nodes.
func (x *chaosRow) healAll() {
	for i := 0; i < ncNodes; i++ {
		for j := 0; j < ncNodes; j++ {
			if i != j {
				x.links[i][j].Heal()
			}
		}
		x.clink[i].Heal()
	}
	for _, n := range x.nodes {
		// Start leaves a running node alone; a killed one restarts from
		// disk and rejoins through the boot scan.
		if err := n.Start(); err != nil {
			x.r.failf("revive %s: %v", n.name, err)
		}
	}
}

// converge waits until the healed group has exactly one writable node
// and every node holds byte-identical state at the same position.
func (x *chaosRow) converge(round int) error {
	r := x.r
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(25 * time.Millisecond) {
		if err := r.violation(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("group failed to converge: %s", x.describe())
		}
		prim, primEpoch := -1, uint64(0)
		ok := true
		for i, n := range x.nodes {
			up, writable, epoch, _ := n.state()
			if !up || (writable && prim >= 0) {
				ok = false // a node restarting, or the old primary not yet deposed
				break
			}
			if writable {
				prim, primEpoch = i, epoch
			}
		}
		if !ok || prim < 0 {
			continue
		}
		var ds [ncNodes]string
		var lsn0 uint64
		var id0 string
		for i, n := range x.nodes {
			d, lsn, replID, err := digest(n.Node, n.stock)
			if i == 0 {
				lsn0, id0 = lsn, replID
			}
			if err != nil || lsn != lsn0 || replID != id0 {
				ok = false // a node restarting or still catching up
				break
			}
			ds[i] = d
		}
		if !ok {
			continue
		}
		// Positions agree; now the state must, byte for byte.
		for i := 1; i < ncNodes; i++ {
			if ds[i] != ds[0] {
				return r.failf("state diverged at LSN %d: n0 %s, n%d %s", lsn0, ds[0][:12], i, ds[i][:12])
			}
		}
		fmt.Fprintf(r.log, "round %d: converged, primary n%d epoch %d lsn %d digest %s\n", round, prim, primEpoch, lsn0, ds[0][:12])
		return nil
	}
}

// describe snapshots every node's role for a convergence failure.
func (x *chaosRow) describe() string {
	s := ""
	for i, n := range x.nodes {
		up, writable, epoch, lsn := n.state()
		s += fmt.Sprintf("n%d(up=%v rw=%v e%d lsn%d) ", i, up, writable, epoch, lsn)
	}
	return s
}

// checkEpochs continuously samples every node for the row's core safety
// invariant: at most one node ever serves writes at a given fencing
// epoch. WithDB takes the node's lock shared and never waits on a role
// change, so a restarting node cannot stall sampling of the others.
func (x *chaosRow) checkEpochs() {
	defer close(x.checkDone)
	t := time.NewTicker(2 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-x.checkStop:
			return
		case <-t.C:
		}
		for i, n := range x.nodes {
			if _, writable, e, _ := n.state(); writable {
				owner, seen := x.epochOwner[e]
				if !seen {
					x.epochOwner[e] = i
				} else if owner != i {
					x.r.failf("split brain: n%d and n%d both served writes at epoch %d", owner, i, e)
				}
			}
		}
	}
}

func (x *chaosRow) finish() error { return nil }

func (x *chaosRow) shutdown() {
	close(x.checkStop)
	if x.sampling {
		<-x.checkDone
	}
	if x.cl != nil {
		x.cl.Close()
	}
	for _, n := range x.nodes {
		if n != nil {
			n.Kill()
		}
	}
	for i := 0; i < ncNodes; i++ {
		for j := 0; j < ncNodes; j++ {
			if i != j && x.links[i][j] != nil {
				x.links[i][j].Close()
			}
		}
		if x.clink[i] != nil {
			x.clink[i].Close()
		}
	}
}

// state samples the node. up is false while it is killed or between
// incarnations. Epoch and role are atomic reads; sandwiching the epoch
// read between two role reads pins it to a writable interval.
func (n *chaosNode) state() (up, writable bool, epoch, lsn uint64) {
	err := n.WithDB(func(db *ode.DB) error {
		ro := db.ReadOnly()
		epoch, lsn = db.Epoch(), db.AppliedLSN()
		writable = !ro && !db.ReadOnly()
		return nil
	})
	return err == nil, writable, epoch, lsn
}
