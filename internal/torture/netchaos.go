package torture

// Network-chaos torture: three full nodes — each an internal/node.Node,
// the lifecycle state machine ode-server runs, configured only with
// compressed timings — meshed through netchaos proxy links, with
// client.Replicated traffic riding through per-client links. Rounds
// inject one network fault each — partitions, node kills, connection
// resets, latency, asymmetric stalls — while writes and floored reads
// keep flowing; automatic failover (heartbeat detection, quorum
// election, epoch fencing, resync self-healing) is what keeps the
// group serving. After every round the fault heals and the harness
// demands full convergence: exactly one writable node, one replication
// identity, equal applied LSNs, byte-identical state digests, and
// every acknowledged write present.
//
// Two invariants are checked continuously, not just at round ends:
//   - at most one node is ever writable at any given fencing epoch
//     (a background sampler owns an epoch→node ledger for the run);
//   - a write acknowledged to the client is never lost (verified
//     against the converged primary each round).
//
// Commit acks use CommitAckQuorum=1: the primary only acknowledges a
// write once a replica holds it, so an isolated primary cannot ack —
// that is precisely what makes the zero-acked-loss invariant hold
// across elections that legally discard an isolated primary's
// unacknowledged tail.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"path/filepath"
	"sync"
	"time"

	"ode"
	"ode/client"
	"ode/internal/netchaos"
	"ode/internal/node"
	"ode/internal/obs"
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

// NetChaosConfig parameterizes a network-chaos torture run.
type NetChaosConfig struct {
	// Seed drives every random decision of the run.
	Seed int64
	// Rounds is the number of fault/traffic/heal/converge cycles.
	Rounds int
	// OpsPerRound bounds the client operations attempted per round.
	OpsPerRound int
	// Dir holds all three stores' files. It must exist; the harness
	// never deletes it (CI uploads it as an artifact on failure).
	Dir string
	// Log, if non-nil, receives progress lines.
	Log io.Writer
}

// NetChaosResult summarizes a completed network-chaos run.
type NetChaosResult struct {
	Rounds     int
	Ops        int
	Acked      int // writes acknowledged to the client (verified never lost)
	Uncertain  int // writes that errored or timed out (may or may not have landed)
	Reads      int
	ReadFails  int // reads lost to transport noise mid-fault (never to absence)
	StaleReads int // floored reads answered "no object" mid-fault (see readAcked)
	Promotions int
	Resyncs    int // wipe-and-rebootstrap cycles (self-healing)
	Partitions int
	Kills      int
	Resets     int
	Stalls     int
	Delays     int
	FinalEpoch uint64
}

// ackedWrite is one client write whose commit was acknowledged — the
// harness holds the server to it forever after.
type ackedWrite struct {
	name string
	oid  ode.OID
}

type chaosRun struct {
	cfg NetChaosConfig
	rng *rand.Rand
	log io.Writer

	nmet  *netchaos.Metrics
	links [ncNodes][ncNodes]*netchaos.Link // [dialer][target]; nil diagonal
	clink [ncNodes]*netchaos.Link          // client → node i

	nodes [ncNodes]*chaosNode

	cl     *client.Replicated
	cstock *ode.Class
	acked  []ackedWrite

	// Run-long epoch ledger: which node first served writes at each
	// epoch. A second claimant is split brain.
	epochMu    sync.Mutex
	epochOwner map[uint64]int

	fatalMu  sync.Mutex
	fatalErr error

	checkStop chan struct{}
	checkDone chan struct{}

	resMu sync.Mutex // event goroutines bump counters concurrently
	res   NetChaosResult
}

// chaosNode is one node of the group: the shared lifecycle runtime plus
// what the harness needs to address and digest it.
type chaosNode struct {
	*node.Node
	name  string     // advertised election identity ("n0"..)
	stock *ode.Class // this node's schema instance
}

// RunNetChaos executes one network-chaos torture run; any invariant
// violation or unexpected error is returned with the seed for
// reproduction.
func RunNetChaos(cfg NetChaosConfig) (*NetChaosResult, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("torture: NetChaosConfig.Dir is required")
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 8
	}
	if cfg.OpsPerRound <= 0 {
		cfg.OpsPerRound = 20
	}
	logW := cfg.Log
	if logW == nil {
		logW = io.Discard
	}
	r := &chaosRun{
		cfg:        cfg,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		log:        logW,
		nmet:       &netchaos.Metrics{},
		epochOwner: make(map[uint64]int),
		checkStop:  make(chan struct{}),
		checkDone:  make(chan struct{}),
	}
	r.nmet.Attach(obs.NewRegistry())
	err := r.runAll()
	res := r.result()
	if err != nil {
		return &res, fmt.Errorf("torture(netchaos): seed %d: %w (stores kept at %s)", cfg.Seed, err, cfg.Dir)
	}
	return &res, nil
}

// result snapshots the counters under the lock (a plain copy would
// race the event goroutines on a failed run's early return).
func (r *chaosRun) result() NetChaosResult {
	r.resMu.Lock()
	defer r.resMu.Unlock()
	return r.res
}

func (r *chaosRun) count(f func(*NetChaosResult)) {
	r.resMu.Lock()
	f(&r.res)
	r.resMu.Unlock()
}

func (r *chaosRun) failf(format string, args ...any) {
	r.fatalMu.Lock()
	if r.fatalErr == nil {
		r.fatalErr = fmt.Errorf(format, args...)
	}
	r.fatalMu.Unlock()
}

// violation returns the first recorded invariant violation, if any.
func (r *chaosRun) violation() error {
	r.fatalMu.Lock()
	defer r.fatalMu.Unlock()
	return r.fatalErr
}

func (r *chaosRun) runAll() error {
	defer r.shutdown()
	if err := r.boot(); err != nil {
		return err
	}
	go r.checkEpochs()
	if err := r.bootstrapTraffic(); err != nil {
		// An invariant violation (e.g. split brain) explains a stuck
		// bootstrap far better than the resulting client timeout does.
		if verr := r.violation(); verr != nil {
			return verr
		}
		return err
	}
	for round := 1; round <= r.cfg.Rounds; round++ {
		if err := r.round(round); err != nil {
			return err
		}
		r.count(func(res *NetChaosResult) { res.Rounds++ })
	}
	if err := r.violation(); err != nil {
		return err
	}
	return nil
}

// boot reserves stable node addresses, wires the full proxy mesh, and
// starts all three nodes cold. Nobody self-crowns: every node boots
// read-only seeking a primary, and the first election crowns the
// deterministic winner.
func (r *chaosRun) boot() error {
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
	for i := 0; i < ncNodes; i++ {
		for j := 0; j < ncNodes; j++ {
			if i == j {
				continue
			}
			l, err := netchaos.NewLink(addrs[j], r.nmet)
			if err != nil {
				return err
			}
			r.links[i][j] = l
		}
		cl, err := netchaos.NewLink(addrs[i], r.nmet)
		if err != nil {
			return err
		}
		r.clink[i] = cl
	}
	for i := 0; i < ncNodes; i++ {
		r.nodes[i] = r.newNode(i, addrs[i])
		if err := r.nodes[i].Start(); err != nil {
			return fmt.Errorf("boot %s: %w", r.nodes[i].name, err)
		}
	}
	return nil
}

// newNode configures node i the way ode-server -auto-failover would
// be, with the chaos cluster's timings, small-WAL pressure (as in the
// repl torture mode), and its peers addressed through its own links.
func (r *chaosRun) newNode(i int, addr string) *chaosNode {
	cfg, stock := smallWALNode(filepath.Join(r.cfg.Dir, fmt.Sprintf("node%d.odb", i)))
	name := fmt.Sprintf("n%d", i)
	logf := func(format string, args ...any) { fmt.Fprintf(r.log, "["+name+"] "+format+"\n", args...) }
	var peers []string
	for j := 0; j < ncNodes; j++ {
		if j != i {
			peers = append(peers, r.links[i][j].Addr())
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
			r.count(func(res *NetChaosResult) { res.Promotions++ })
		case node.Resyncing:
			r.count(func(res *NetChaosResult) { res.Resyncs++ })
		case node.Failed:
			r.failf("%s: %v", name, t.Err)
		}
	}
	return &chaosNode{name: name, stock: stock, Node: node.New(cfg)}
}

// bootstrapTraffic waits out the first election by writing: dials the
// clients through their links and drives writes until one commits.
func (r *chaosRun) bootstrapTraffic() error {
	_, cstock := Schema()
	r.cstock = cstock
	clients := make([]*client.Client, ncNodes)
	for i := 0; i < ncNodes; i++ {
		cschema, _ := Schema()
		var err error
		for deadline := time.Now().Add(10 * time.Second); ; {
			clients[i], err = client.Dial(r.clink[i].Addr(), cschema, &client.Options{
				DialTimeout: 500 * time.Millisecond,
				CacheSize:   64,
			})
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("dial node %d: %w", i, err)
			}
			time.Sleep(25 * time.Millisecond)
		}
	}
	r.cl = client.NewReplicated(clients[0], clients[1:]...)
	r.cl.ProbeTimeout = 400 * time.Millisecond

	deadline := time.Now().Add(20 * time.Second)
	for i := 0; ; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), ncOpCtx)
		err := r.cl.RunTx(ctx, func(tx *client.Tx) error {
			o := ode.NewObject(r.cstock)
			o.MustSet("name", ode.Str(fmt.Sprintf("seed-%d", i)))
			o.MustSet("qty", ode.Int(int64(i)))
			oid, err := tx.PNew(r.cstock, o)
			if err != nil {
				return err
			}
			_ = oid
			return nil
		})
		cancel()
		if err == nil {
			fmt.Fprintf(r.log, "bootstrap: first commit landed (primary n%d)\n", r.primaryIdx())
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("bootstrap election never produced a writable primary: %w", err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// primaryIdx reports which node currently serves writes, or -1.
func (r *chaosRun) primaryIdx() int {
	for i, n := range r.nodes {
		if _, writable, _, _ := n.state(); writable {
			return i
		}
	}
	return -1
}

// round injects one fault, drives traffic through it, heals, and then
// demands full convergence plus every acked write intact.
func (r *chaosRun) round(round int) error {
	fault := r.injectFault()
	fmt.Fprintf(r.log, "round %d: %s\n", round, fault)
	r.traffic(round)
	if err := r.violation(); err != nil {
		return fmt.Errorf("round %d: %w", round, err)
	}
	r.healAll()
	if err := r.converge(round); err != nil {
		return err
	}
	if err := r.verifyAcked(round); err != nil {
		return err
	}
	return r.violation()
}

// injectFault picks and applies one seeded fault, returning its
// description for the log.
func (r *chaosRun) injectFault() string {
	p := r.primaryIdx()
	if p < 0 {
		p = r.rng.Intn(ncNodes)
	}
	other := (p + 1 + r.rng.Intn(ncNodes-1)) % ncNodes
	switch r.rng.Intn(8) {
	case 0:
		r.isolate(p)
		r.count(func(res *NetChaosResult) { res.Partitions++ })
		return fmt.Sprintf("isolate primary n%d", p)
	case 1:
		r.isolate(other)
		r.count(func(res *NetChaosResult) { res.Partitions++ })
		return fmt.Sprintf("isolate replica n%d", other)
	case 2:
		r.nodes[p].Kill()
		r.count(func(res *NetChaosResult) { res.Kills++ })
		return fmt.Sprintf("kill primary n%d", p)
	case 3:
		r.nodes[other].Kill()
		r.count(func(res *NetChaosResult) { res.Kills++ })
		return fmt.Sprintf("kill replica n%d", other)
	case 4:
		// Sever live connections on a few random links; everything
		// reconnects on its own.
		n := 1 + r.rng.Intn(3)
		for k := 0; k < n; k++ {
			r.randomLink().Reset()
		}
		r.count(func(res *NetChaosResult) { res.Resets++ })
		return fmt.Sprintf("reset %d random links", n)
	case 5:
		d := time.Duration(3+r.rng.Intn(18)) * time.Millisecond
		n := 1 + r.rng.Intn(2)
		for k := 0; k < n; k++ {
			r.randomLink().SetLatency(d)
		}
		r.count(func(res *NetChaosResult) { res.Delays++ })
		return fmt.Sprintf("add %v latency to %d links", d, n)
	case 6:
		// Asymmetric drop: silence one direction of one inter-node
		// link. Stalling FromTarget on a replica's link to its primary
		// starves the WAL stream (no heartbeats) while the replica's
		// own sends still flow.
		l := r.randomMeshLink()
		dir := netchaos.Dir(r.rng.Intn(2))
		l.SetStall(dir, true)
		r.count(func(res *NetChaosResult) { res.Stalls++ })
		return fmt.Sprintf("stall dir=%d on a mesh link", int(dir))
	default:
		return "no fault (control round)"
	}
}

// isolate partitions node i away from its peers and its client.
func (r *chaosRun) isolate(i int) {
	for j := 0; j < ncNodes; j++ {
		if j == i {
			continue
		}
		r.links[i][j].SetPartition(true)
		r.links[j][i].SetPartition(true)
	}
	r.clink[i].SetPartition(true)
}

func (r *chaosRun) randomLink() *netchaos.Link {
	if r.rng.Intn(4) == 0 {
		return r.clink[r.rng.Intn(ncNodes)]
	}
	return r.randomMeshLink()
}

func (r *chaosRun) randomMeshLink() *netchaos.Link {
	for {
		i, j := r.rng.Intn(ncNodes), r.rng.Intn(ncNodes)
		if i != j {
			return r.links[i][j]
		}
	}
}

// healAll clears every network fault and revives killed nodes.
func (r *chaosRun) healAll() {
	for i := 0; i < ncNodes; i++ {
		for j := 0; j < ncNodes; j++ {
			if i != j {
				r.links[i][j].Heal()
			}
		}
		r.clink[i].Heal()
	}
	for _, n := range r.nodes {
		// Start leaves a running node alone; a killed one restarts from
		// disk and rejoins through the boot scan.
		if err := n.Start(); err != nil {
			r.failf("revive %s: %v", n.name, err)
		}
	}
}

// traffic drives one round of client operations: mostly named writes
// (recorded as acked on success), some floored reads of previously
// acked writes.
func (r *chaosRun) traffic(round int) {
	for op := 0; op < r.cfg.OpsPerRound; op++ {
		r.count(func(res *NetChaosResult) { res.Ops++ })
		if r.rng.Intn(4) == 0 && len(r.acked) > 0 {
			r.readAcked()
		} else {
			r.write(round, op)
		}
		time.Sleep(time.Duration(2+r.rng.Intn(15)) * time.Millisecond)
		if r.violation() != nil {
			return
		}
	}
}

func (r *chaosRun) write(round, op int) {
	name := fmt.Sprintf("w-%d-%d", round, op)
	qty := int64(r.rng.Intn(1000))
	ctx, cancel := context.WithTimeout(context.Background(), ncOpCtx)
	defer cancel()
	var oid ode.OID
	err := r.cl.RunTx(ctx, func(tx *client.Tx) error {
		o := ode.NewObject(r.cstock)
		o.MustSet("name", ode.Str(name))
		o.MustSet("qty", ode.Int(qty))
		id, perr := tx.PNew(r.cstock, o)
		if perr != nil {
			return perr
		}
		oid = id
		return nil
	})
	if err == nil {
		// The commit was acknowledged under the semi-sync quorum: the
		// batch is durable on at least two nodes, and no legal election
		// outcome may lose it.
		r.acked = append(r.acked, ackedWrite{name: name, oid: oid})
		r.count(func(res *NetChaosResult) { res.Acked++ })
	} else {
		// Errored or timed out: the write is uncertain (it may have
		// landed; an isolated primary's tail may legally be discarded).
		r.count(func(res *NetChaosResult) { res.Uncertain++ })
	}
}

// readAcked runs a floored read of a random acked write. A transport
// failure mid-fault is noise; an affirmative "no such object" from a
// node that passed the freshness floor is recorded as a stale read.
// (It is not escalated to a failure here: a wiped node mid-resync
// against a not-yet-deposed stale primary can transiently serve forked
// history whose LSNs pass the numeric floor. The authoritative
// acked-write check runs at round end against the converged group.)
func (r *chaosRun) readAcked() {
	w := r.acked[r.rng.Intn(len(r.acked))]
	ctx, cancel := context.WithTimeout(context.Background(), ncOpCtx)
	defer cancel()
	err := r.cl.View(ctx, func(tx *client.Tx) error {
		o, derr := tx.Deref(w.oid)
		if derr != nil {
			return derr
		}
		if got := o.MustGet("name").Str(); got != w.name {
			return fmt.Errorf("acked object @%d holds %q, want %q", w.oid, got, w.name)
		}
		return nil
	})
	r.count(func(res *NetChaosResult) {
		res.Reads++
		switch {
		case err == nil:
		case errors.Is(err, ode.ErrNoObject):
			res.StaleReads++
		default:
			res.ReadFails++
		}
	})
	if err != nil && errors.Is(err, ode.ErrNoObject) {
		fmt.Fprintf(r.log, "stale floored read: acked %q (@%d) answered absent mid-fault\n", w.name, w.oid)
	}
}

// converge waits until the healed group has exactly one writable node
// and every node holds byte-identical state at the same position.
func (r *chaosRun) converge(round int) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		if err := r.violation(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("round %d: group failed to converge: %s", round, r.describe())
		}
		time.Sleep(25 * time.Millisecond)

		prim, primEpoch := -1, uint64(0)
		ok := true
		for i, n := range r.nodes {
			up, writable, epoch, _ := n.state()
			if !up {
				ok = false
				break
			}
			if writable {
				if prim >= 0 {
					ok = false // old primary not yet deposed; keep waiting
					break
				}
				prim, primEpoch = i, epoch
			}
		}
		if !ok || prim < 0 {
			continue
		}

		type nodeDigest struct {
			digest string
			lsn    uint64
			replID string
		}
		var ds [ncNodes]nodeDigest
		for i, n := range r.nodes {
			d, lsn, replID, err := n.digest()
			if err != nil {
				ok = false // node restarting mid-sample; retry
				break
			}
			ds[i] = nodeDigest{d, lsn, replID}
		}
		if !ok {
			continue
		}
		settled := true
		for i := 1; i < ncNodes; i++ {
			if ds[i].lsn != ds[0].lsn || ds[i].replID != ds[0].replID {
				settled = false
				break
			}
		}
		if !settled {
			continue
		}
		// Positions agree; now the state must, byte for byte.
		for i := 1; i < ncNodes; i++ {
			if ds[i].digest != ds[0].digest {
				return fmt.Errorf("round %d: state diverged at LSN %d: n0 %s, n%d %s",
					round, ds[0].lsn, ds[0].digest[:12], i, ds[i].digest[:12])
			}
		}
		r.count(func(res *NetChaosResult) { res.FinalEpoch = primEpoch })
		fmt.Fprintf(r.log, "round %d: converged, primary n%d epoch %d lsn %d digest %s\n",
			round, prim, primEpoch, ds[0].lsn, ds[0].digest[:12])
		return nil
	}
}

// verifyAcked asserts every acknowledged write exists on the converged
// primary — the zero-acked-write-loss invariant.
func (r *chaosRun) verifyAcked(round int) error {
	prim := r.primaryIdx()
	if prim < 0 {
		return fmt.Errorf("round %d: no primary after convergence", round)
	}
	return r.nodes[prim].WithDB(func(db *ode.DB) error {
		return db.View(func(tx *ode.Tx) error {
			for _, w := range r.acked {
				o, err := tx.Deref(w.oid)
				if err != nil {
					return fmt.Errorf("round %d: acked write %q (@%d) lost: %w", round, w.name, w.oid, err)
				}
				if got := o.MustGet("name").Str(); got != w.name {
					return fmt.Errorf("round %d: acked write @%d corrupted: %q, want %q", round, w.oid, got, w.name)
				}
			}
			return nil
		})
	})
}

// describe snapshots every node's role for a convergence-failure
// message.
func (r *chaosRun) describe() string {
	s := ""
	for i, n := range r.nodes {
		up, writable, epoch, lsn := n.state()
		switch {
		case !up:
			s += fmt.Sprintf("n%d=down ", i)
		case writable:
			s += fmt.Sprintf("n%d=rw(e%d,lsn%d) ", i, epoch, lsn)
		default:
			s += fmt.Sprintf("n%d=ro(e%d,lsn%d) ", i, epoch, lsn)
		}
	}
	return s
}

// checkEpochs continuously samples every node for the run's core
// safety invariant: at most one node ever serves writes at a given
// fencing epoch. WithDB takes the node's lock shared and never waits on
// a role change, so a restarting or re-pointing node cannot stall the
// sampling of the others.
func (r *chaosRun) checkEpochs() {
	defer close(r.checkDone)
	t := time.NewTicker(2 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-r.checkStop:
			return
		case <-t.C:
		}
		for i, n := range r.nodes {
			_, writable, e, _ := n.state()
			if !writable {
				continue
			}
			r.epochMu.Lock()
			owner, seen := r.epochOwner[e]
			if !seen {
				r.epochOwner[e] = i
			}
			r.epochMu.Unlock()
			if seen && owner != i {
				r.failf("split brain: n%d and n%d both served writes at epoch %d", owner, i, e)
			}
		}
	}
}

func (r *chaosRun) shutdown() {
	close(r.checkStop)
	<-r.checkDone
	if r.cl != nil {
		r.cl.Close()
	}
	for _, n := range r.nodes {
		if n != nil {
			n.Kill()
		}
	}
	for i := 0; i < ncNodes; i++ {
		for j := 0; j < ncNodes; j++ {
			if i != j && r.links[i][j] != nil {
				r.links[i][j].Close()
			}
		}
		if r.clink[i] != nil {
			r.clink[i].Close()
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

// digest hashes this node's state; the node cannot restart under the
// scan.
func (n *chaosNode) digest() (d string, lsn uint64, replID string, err error) {
	err = n.WithDB(func(db *ode.DB) error {
		lsn, replID = db.AppliedLSN(), db.ReplicationID()
		if d, err = stateDigest(db, n.stock); err != nil {
			return err
		}
		if db.AppliedLSN() != lsn {
			return fmt.Errorf("applying mid-digest")
		}
		return nil
	})
	return d, lsn, replID, err
}
