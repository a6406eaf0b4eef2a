package node_test

// One test per row of the transition table in docs/REPLICATION.md
// ("Node lifecycle"). Groups are built in-process with the timings
// compressed through the existing repl option structs, exactly as the
// netchaos torture mode does.

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ode"
	"ode/internal/failpoint"
	"ode/internal/netchaos"
	"ode/internal/node"
	"ode/internal/repl"
	"ode/internal/server"
)

const (
	tWindow    = 300 * time.Millisecond
	tProbe     = 50 * time.Millisecond
	tDial      = 200 * time.Millisecond
	tHeartbeat = 40 * time.Millisecond
)

// testNode is a node plus a record of every transition it made.
type testNode struct {
	*node.Node
	name string
	path string
	item *ode.Class

	mu   sync.Mutex
	seen []node.Transition
	hook func(line string) // sees every monitor decision as it is logged
}

func (n *testNode) record(t node.Transition) {
	n.mu.Lock()
	n.seen = append(n.seen, t)
	n.mu.Unlock()
}

// find returns the first recorded transition of kind that ok accepts.
func (n *testNode) find(kind node.Kind, ok func(node.Transition) bool) (node.Transition, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, t := range n.seen {
		if t.Kind == kind && (ok == nil || ok(t)) {
			return t, true
		}
	}
	return node.Transition{}, false
}

func (n *testNode) has(kind node.Kind) bool {
	_, ok := n.find(kind, nil)
	return ok
}

func (n *testNode) trail() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	var b strings.Builder
	for _, t := range n.seen {
		fmt.Fprintf(&b, "\n    %s: %v", n.name, t)
	}
	return b.String()
}

// newNode builds a node over a fresh schema instance. peers non-empty
// makes it self-managing; mutate adjusts the rest.
func newNode(t *testing.T, dir, name, addr string, peers []string, mutate func(*node.Config)) *testNode {
	t.Helper()
	schema := ode.NewSchema()
	item := ode.NewClass("item").Field("name", ode.TString).Field("qty", ode.TInt).Register(schema)
	n := &testNode{name: name, path: filepath.Join(dir, name+".odb"), item: item}
	logf := func(format string, args ...any) {
		n.mu.Lock()
		hook := n.hook
		n.mu.Unlock()
		if hook != nil {
			hook(fmt.Sprintf(format, args...))
		}
	}
	cfg := node.Config{
		Path:    n.path,
		Schema:  schema,
		Indexes: []node.Index{{Class: item, Field: "qty"}},
		Addr:    addr,
		Server:  server.Options{Advertise: name, DrainTimeout: 50 * time.Millisecond},
		Source:  repl.SourceOptions{HeartbeatEvery: tHeartbeat},
		Replica: repl.ReplicaOptions{
			DialTimeout:      tDial,
			Backoff:          5 * time.Millisecond,
			MaxBackoff:       50 * time.Millisecond,
			HeartbeatTimeout: 500 * time.Millisecond,
		},
		Monitor: repl.MonitorOptions{
			Self: name, Peers: peers,
			Window: tWindow, Probe: tProbe, DialTimeout: tDial,
			Logf: logf,
		},
		OnTransition: n.record,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	n.Node = node.New(cfg)
	t.Cleanup(n.Kill)
	return n
}

// reserve picks n loopback addresses that are free right now.
func reserve(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}

func others(addrs []string, i int) []string {
	var out []string
	for j, a := range addrs {
		if j != i {
			out = append(out, a)
		}
	}
	return out
}

// group starts an n-node self-managing group; formed waits out its
// first election. With mesh set, node i reaches node j through
// links[i][j], which the test can fault.
func group(t *testing.T, size int, mesh bool) (nodes []*testNode, links [][]*netchaos.Link) {
	t.Helper()
	dir := t.TempDir()
	addrs := reserve(t, size)
	nodes = make([]*testNode, size)
	links = make([][]*netchaos.Link, size)
	for i := range nodes {
		peers := others(addrs, i)
		if mesh {
			peers, links[i] = nil, make([]*netchaos.Link, size)
			for j := range addrs {
				if j != i {
					l, err := netchaos.NewLink(addrs[j], nil)
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(l.Close)
					links[i][j] = l
					peers = append(peers, l.Addr())
				}
			}
		}
		nodes[i] = newNode(t, dir, fmt.Sprintf("n%d", i), addrs[i], peers, nil)
		if err := nodes[i].Start(); err != nil {
			t.Fatalf("start n%d: %v", i, err)
		}
	}
	return nodes, links
}

// formed waits until n0 has won the first election (equal rank, lowest
// identity) and the rest follow it.
func formed(t *testing.T, nodes []*testNode) {
	t.Helper()
	await(t, nodes, "n0 to win the first election", func() bool { return nodes[0].has(node.Promoted) })
	for _, n := range nodes[1:] {
		n := n
		await(t, nodes, n.name+" to follow n0", func() bool { return n.has(node.Following) })
	}
}

func await(t *testing.T, nodes []*testNode, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(15 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			trails := ""
			for _, n := range nodes {
				trails += n.trail()
			}
			t.Fatalf("timed out waiting for %s; transitions:%s", what, trails)
		}
	}
}

// state samples a node's role; up is false while it is down.
func (n *testNode) state() (up, readOnly bool, epoch, lsn uint64) {
	err := n.WithDB(func(db *ode.DB) error {
		readOnly, epoch, lsn = db.ReadOnly(), db.Epoch(), db.AppliedLSN()
		return nil
	})
	return err == nil, readOnly, epoch, lsn
}

func (n *testNode) put(name string) error {
	return n.WithDB(func(db *ode.DB) error {
		tx := db.Begin()
		defer tx.Abort()
		o := ode.NewObject(n.item)
		o.MustSet("name", ode.Str(name))
		o.MustSet("qty", ode.Int(1))
		if _, err := tx.PNew(n.item, o); err != nil {
			return err
		}
		return tx.Commit()
	})
}

// names lists the objects a node holds, "" while it is down.
func (n *testNode) names() string {
	var out []string
	n.WithDB(func(db *ode.DB) error {
		oids, err := db.Manager().ClusterOIDs(n.item)
		if err != nil {
			return err
		}
		return db.View(func(tx *ode.Tx) error {
			for _, oid := range oids {
				if o, err := tx.Deref(oid); err == nil {
					out = append(out, o.MustGet("name").Str())
				}
			}
			return nil
		})
	})
	return strings.Join(out, ",")
}

// A self-managing node that sees no primary comes up read-only and
// stays that way: alone it has no quorum, whatever history it holds.
func TestBootWithoutPrimaryNeverSelfCrowns(t *testing.T) {
	dir := t.TempDir()
	addrs := reserve(t, 3)
	// Give the node history first, as a plain primary.
	plain := newNode(t, dir, "n0", addrs[0], nil, nil)
	if err := plain.Start(); err != nil {
		t.Fatal(err)
	}
	if _, ro, _, _ := plain.state(); ro {
		t.Fatal("a node with no peers and nothing to follow must serve writes")
	}
	if err := plain.put("history"); err != nil {
		t.Fatal(err)
	}
	if err := plain.Close(); err != nil {
		t.Fatal(err)
	}

	n := newNode(t, dir, "n0", addrs[0], addrs[1:], nil)
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	if !n.has(node.Seeking) {
		t.Errorf("no Seeking transition at boot:%s", n.trail())
	}
	time.Sleep(3 * tWindow)
	if up, ro, _, lsn := n.state(); !up || !ro || lsn == 0 {
		t.Errorf("after three windows alone: up=%v readOnly=%v lsn=%d, want up, read-only, with history", up, ro, lsn)
	}
	if n.has(node.Promoted) {
		t.Errorf("a node with no quorum promoted itself:%s", n.trail())
	}
	if err := n.put("nope"); !errors.Is(err, ode.ErrReadOnly) {
		t.Errorf("write on a seeking node = %v, want ErrReadOnly", err)
	}
}

// Of two visible primaries the boot scan joins the one at the highest
// epoch: the other is a deposed primary that has not noticed yet.
func TestBootJoinsHighestEpochPrimary(t *testing.T) {
	dir := t.TempDir()
	addrs := reserve(t, 3)
	for i, bumps := range []int{1, 2} {
		p := newNode(t, dir, fmt.Sprintf("p%d", i), addrs[i], nil, nil)
		if err := p.Start(); err != nil {
			t.Fatal(err)
		}
		p.WithDB(func(db *ode.DB) error {
			for b := 0; b < bumps; b++ {
				if _, err := db.BumpEpoch(); err != nil {
					t.Fatal(err)
				}
			}
			return nil
		})
		if err := p.put(p.name); err != nil {
			t.Fatal(err)
		}
	}
	n := newNode(t, dir, "n2", addrs[2], addrs[:2], nil)
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	serving, _ := n.find(node.Serving, nil)
	if serving.Addr != addrs[1] {
		t.Fatalf("joined %q, want the epoch-2 primary %q:%s", serving.Addr, addrs[1], n.trail())
	}
	await(t, []*testNode{n}, "the epoch-2 primary's data", func() bool { return n.names() == "p1" })
	if _, ro, epoch, _ := n.state(); !ro || epoch != 2 {
		t.Errorf("joined node: readOnly=%v epoch=%d, want read-only at epoch 2", ro, epoch)
	}
}

// The election winner promotes and its epoch bump is durable; a killed
// node restarts on the address it first bound.
func TestElectionWinPromotesDurablyAndRestartRebinds(t *testing.T) {
	nodes, _ := group(t, 3, false)
	formed(t, nodes)
	n0 := nodes[0]
	if _, ro, epoch, _ := n0.state(); ro || epoch != 1 {
		t.Fatalf("winner: readOnly=%v epoch=%d, want writable at epoch 1", ro, epoch)
	}
	for _, n := range nodes[1:] {
		if n.has(node.Promoted) {
			t.Errorf("%s promoted too:%s", n.name, n.trail())
		}
	}
	if err := n0.put("acked"); err != nil {
		t.Fatal(err)
	}
	addr := n0.Addr()
	for _, n := range nodes {
		n.Kill()
	}
	if up, _, _, _ := n0.state(); up {
		t.Fatal("killed node still up")
	}
	// Alone after the crash: the epoch survived, and it does not resume
	// writing on the strength of having been primary.
	if err := n0.Start(); err != nil {
		t.Fatal(err)
	}
	if _, ro, epoch, _ := n0.state(); !ro || epoch != 1 {
		t.Errorf("restarted winner: readOnly=%v epoch=%d, want read-only at the durable epoch 1", ro, epoch)
	}
	if n0.names() != "acked" {
		t.Errorf("restarted winner holds %q, want its committed write", n0.names())
	}
	if n0.Addr() != addr {
		t.Errorf("restart moved from %s to %s", addr, n0.Addr())
	}
	c, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatalf("restarted node not listening on its address: %v", err)
	}
	c.Close()
}

// A promotion whose epoch bump fails leaves the node read-only and
// seeking — the next election round can still crown it.
func TestFailedPromotionSeeks(t *testing.T) {
	nodes, _ := group(t, 3, false)
	// The first sync in the idle group is the winner's epoch bump.
	if err := failpoint.Arm("storage.sync", failpoint.Spec{Action: failpoint.ActError, OneShot: true}); err != nil {
		t.Fatal(err)
	}
	defer failpoint.DisarmAll()
	n0 := nodes[0]
	failedBump := func(tr node.Transition) bool { return errors.Is(tr.Err, failpoint.ErrInjected) }
	await(t, nodes, "n0's promotion to fail", func() bool { _, ok := n0.find(node.Seeking, failedBump); return ok })
	if n0.has(node.Promoted) {
		t.Fatalf("the failed bump still promoted:%s", n0.trail())
	}
	if _, ro, _, _ := n0.state(); !ro {
		t.Error("node writable after a failed epoch bump")
	}
	await(t, nodes, "a later election to crown a primary", func() bool {
		for _, n := range nodes {
			if n.has(node.Promoted) {
				return true
			}
		}
		return false
	})
}

// replicaOf starts a plain primary and a manual replica of it.
func replicaOf(t *testing.T, resync bool) (p, r *testNode) {
	t.Helper()
	dir := t.TempDir()
	addrs := reserve(t, 2)
	p = newNode(t, dir, "p", addrs[0], nil, nil)
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	if err := p.put("first"); err != nil {
		t.Fatal(err)
	}
	r = newNode(t, dir, "r", addrs[1], nil, func(cfg *node.Config) { cfg.Follow, cfg.Resync = addrs[0], resync })
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	await(t, []*testNode{r}, "the replica to catch up", func() bool { return r.names() == "first" })
	return p, r
}

// reborn replaces the primary with a different database on the same
// address: every position the replica holds is now unservable.
func reborn(t *testing.T, p *testNode) {
	t.Helper()
	p.Kill()
	if err := ode.RemoveFiles(p.path); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	if err := p.put("second-life"); err != nil {
		t.Fatal(err)
	}
}

// A resync demand mid-stream wipes the local copy and rejoins from a
// snapshot, when that is permitted.
func TestResyncDemandWipesAndRejoins(t *testing.T) {
	p, r := replicaOf(t, true)
	reborn(t, p)
	await(t, []*testNode{r}, "the replica to resync", func() bool { return r.names() == "second-life" })
	died, ok := r.find(node.StreamDied, nil)
	if !ok || !errors.Is(died.Err, repl.ErrResyncRequired) {
		t.Errorf("stream death = %v, want a resync demand:%s", died.Err, r.trail())
	}
	if !r.has(node.Resyncing) {
		t.Errorf("no Resyncing transition:%s", r.trail())
	}
	if _, ro, _, _ := r.state(); !ro {
		t.Error("resynced replica is writable")
	}
}

// The same demand met at boot wipes before the node ever serves.
func TestResyncDemandAtBoot(t *testing.T) {
	p, r := replicaOf(t, true)
	r.Kill()
	reborn(t, p)
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	if !r.has(node.Resyncing) {
		t.Errorf("no Resyncing transition:%s", r.trail())
	}
	await(t, []*testNode{r}, "the snapshot", func() bool { return r.names() == "second-life" })
}

// Without permission to wipe, the demand takes the node down with an
// error the daemon maps to exit code 3 — at boot and mid-stream alike.
func TestResyncDemandWithoutPermissionFails(t *testing.T) {
	p, r := replicaOf(t, false)
	reborn(t, p)
	await(t, []*testNode{r}, "the replica to fail", func() bool { return r.has(node.Failed) })
	failed, _ := r.find(node.Failed, nil)
	if !errors.Is(failed.Err, repl.ErrResyncRequired) {
		t.Errorf("failed with %v, want a resync demand", failed.Err)
	}
	if r.has(node.Resyncing) {
		t.Errorf("wiped without permission:%s", r.trail())
	}
	if up, _, _, _ := r.state(); up {
		t.Error("failed node still up")
	}
	if err := r.Start(); !errors.Is(err, repl.ErrResyncRequired) {
		t.Errorf("Start against the reborn primary = %v, want a resync demand", err)
	}
	if _, err := os.Stat(r.path); err != nil {
		t.Errorf("the local copy did not survive: %v", err)
	}
}

// An apply error with no permission to wipe stops replication and keeps
// serving what the node has.
func TestApplyErrorWithoutPermissionServesStale(t *testing.T) {
	p, r := replicaOf(t, false)
	// The primary's own append is the first hit; the replica's apply of
	// the shipped batch is the second.
	if err := failpoint.Arm("wal.append", failpoint.Spec{Action: failpoint.ActError, AfterN: 1, OneShot: true}); err != nil {
		t.Fatal(err)
	}
	defer failpoint.DisarmAll()
	if err := p.put("unapplied"); err != nil {
		t.Fatal(err)
	}
	await(t, []*testNode{r}, "the replica's stream to die", func() bool { return r.has(node.Stale) })
	if r.has(node.Resyncing) || r.has(node.Failed) {
		t.Errorf("apply error without -resync must neither wipe nor exit:%s", r.trail())
	}
	if got := r.names(); got != "first" {
		t.Errorf("stale replica serves %q, want what it had", got)
	}
}

// A primary that finds a peer writable at a newer epoch demotes itself
// and rejoins under it; its follower re-points too.
func TestDeposedPrimaryDemotesAndResubscribes(t *testing.T) {
	nodes, _ := group(t, 3, false)
	formed(t, nodes)
	n0, n1, n2 := nodes[0], nodes[1], nodes[2]
	if err := n0.put("before"); err != nil {
		t.Fatal(err)
	}
	await(t, nodes, "n1 to replicate", func() bool { return n1.names() == "before" })
	// The operator's promote (SIGUSR1, wire promote) on a follower.
	if err := n1.Promote(); err != nil {
		t.Fatal(err)
	}
	await(t, nodes, "n0 to notice its deposition", func() bool { return n0.has(node.Deposed) })
	await(t, nodes, "n0 to rejoin read-only", func() bool {
		up, ro, epoch, _ := n0.state()
		return up && ro && epoch == 2
	})
	if err := n1.put("after"); err != nil {
		t.Fatal(err)
	}
	for _, n := range []*testNode{n0, n2} {
		n := n
		await(t, nodes, n.name+" to follow the new primary", func() bool { return n.names() == "before,after" })
	}
	if err := n0.put("zombie"); !errors.Is(err, ode.ErrReadOnly) {
		t.Errorf("write on the deposed primary = %v, want ErrReadOnly", err)
	}
}

// A new primary that cannot be reached is no reason to wipe: the
// follower holds its copy read-only, seeks, and joins once the path
// heals.
func TestUnreachableNewPrimaryKeepsLocalCopy(t *testing.T) {
	nodes, links := group(t, 3, true)
	formed(t, nodes)
	link := links[2][1] // n2's path to n1, which the test will black-hole
	n0, n1, n2 := nodes[0], nodes[1], nodes[2]
	if err := n0.put("kept"); err != nil {
		t.Fatal(err)
	}
	await(t, nodes, "both followers to replicate", func() bool { return n1.names() == "kept" && n2.names() == "kept" })
	_, _, _, lsnBefore := n2.state()
	fileBefore, err := os.Stat(n2.path)
	if err != nil {
		t.Fatal(err)
	}

	// The moment n2's monitor decides to follow n1, n1 goes dark for it:
	// the probe that found it got through, the subscribe will not.
	n2.mu.Lock()
	n2.hook = func(line string) {
		if strings.Contains(line, "failover event new-primary") {
			link.SetStall(netchaos.ToTarget, true)
			link.SetStall(netchaos.FromTarget, true)
		}
	}
	n2.mu.Unlock()
	n0.Kill()
	await(t, nodes, "n1 to take over", func() bool { return n1.has(node.Promoted) })
	unreachable := func(tr node.Transition) bool { return tr.Err != nil && tr.Addr == link.Addr() }
	await(t, nodes, "n2 to give up on the dark primary", func() bool { _, ok := n2.find(node.Seeking, unreachable); return ok })

	if n2.has(node.Resyncing) {
		t.Fatalf("a dial failure wiped a healthy copy:%s", n2.trail())
	}
	up, ro, _, lsn := n2.state()
	if !up || !ro || lsn != lsnBefore {
		t.Errorf("holding node: up=%v readOnly=%v lsn=%d, want up, read-only, lsn %d untouched", up, ro, lsn, lsnBefore)
	}
	if fileNow, err := os.Stat(n2.path); err != nil || !os.SameFile(fileBefore, fileNow) {
		t.Errorf("the database file was replaced (stat error %v)", err)
	}
	if got := n2.names(); got != "kept" {
		t.Errorf("holding node serves %q, want its copy", got)
	}

	n2.mu.Lock()
	n2.hook = nil
	n2.mu.Unlock()
	link.Heal()
	if err := n1.put("healed"); err != nil {
		t.Fatal(err)
	}
	await(t, nodes, "n2 to join n1 once it can", func() bool { return n2.names() == "kept,healed" })
	if n2.has(node.Resyncing) {
		t.Errorf("joining after the heal needed a wipe:%s", n2.trail())
	}
}

// A manual replica whose primary cannot be reached at boot has nothing
// else to do: Start fails, and not with a resync demand (exit code 1).
func TestManualFollowUnreachableFails(t *testing.T) {
	addrs := reserve(t, 2)
	r := newNode(t, t.TempDir(), "r", addrs[0], nil, func(cfg *node.Config) { cfg.Follow, cfg.Resync = addrs[1], true })
	err := r.Start()
	if err == nil || errors.Is(err, repl.ErrResyncRequired) || errors.Is(err, ode.ErrStaleEpoch) {
		t.Fatalf("Start with a dead primary = %v, want a plain connect failure", err)
	}
	if up, _, _, _ := r.state(); up {
		t.Error("node up after a failed Start")
	}
	if r.has(node.Resyncing) {
		t.Errorf("an unreachable primary wiped the local copy:%s", r.trail())
	}
}

// A deposed primary whose unreplicated tail forked from the new history
// cannot re-subscribe in place: the new primary demands a resync, and
// the node wipes, restarts, and rejoins without its fork.
func TestDeposedPrimaryWithForkedTailResyncs(t *testing.T) {
	nodes, links := group(t, 3, true)
	formed(t, nodes)
	n0, n1, n2 := nodes[0], nodes[1], nodes[2]
	if err := n0.put("shared"); err != nil {
		t.Fatal(err)
	}
	await(t, nodes, "both followers to replicate", func() bool { return n1.names() == "shared" && n2.names() == "shared" })
	cut := func(on bool) {
		for _, j := range []int{1, 2} {
			links[0][j].SetPartition(on)
			links[j][0].SetPartition(on)
		}
	}
	cut(true)
	if err := n0.put("fork"); err != nil { // commits are asynchronous here: the isolated primary acks
		t.Fatal(err)
	}
	await(t, nodes, "the majority to elect n1", func() bool { return n1.has(node.Promoted) })
	if err := n1.put("new-history"); err != nil {
		t.Fatal(err)
	}
	cut(false)
	await(t, nodes, "n0 to be deposed", func() bool { return n0.has(node.Deposed) })
	await(t, nodes, "n0 to rejoin on the new history", func() bool { return n0.names() == "shared,new-history" })
	if !n0.has(node.Resyncing) {
		t.Errorf("the fork was dropped without a resync:%s", n0.trail())
	}
	if _, ro, epoch, _ := n0.state(); !ro || epoch != 2 {
		t.Errorf("rejoined node: readOnly=%v epoch=%d, want read-only at epoch 2", ro, epoch)
	}
}

// A stream fenced for carrying a stale epoch says the followed primary
// is deposed, not that the local copy is bad: a self-managing node
// drops the stream and seeks, keeping its files.
func TestStaleStreamSeeksWithoutWipe(t *testing.T) {
	dir := t.TempDir()
	addrs := reserve(t, 3)
	p := newNode(t, dir, "p", addrs[0], nil, nil)
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	if err := p.put("kept"); err != nil {
		t.Fatal(err)
	}
	r := newNode(t, dir, "r", addrs[1], []string{addrs[0], addrs[2]}, nil)
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	await(t, []*testNode{r}, "the replica to catch up", func() bool { return r.names() == "kept" })
	// The replica learns of a newer epoch than its primary serves.
	if err := r.WithDB(func(db *ode.DB) error { return db.AdoptEpoch(3, db.AppliedLSN()) }); err != nil {
		t.Fatal(err)
	}
	fenced := func(tr node.Transition) bool { return errors.Is(tr.Err, ode.ErrStaleEpoch) }
	await(t, []*testNode{r}, "the stale stream to be fenced", func() bool { _, ok := r.find(node.StreamDied, fenced); return ok })
	await(t, []*testNode{r}, "the node to seek", func() bool { _, ok := r.find(node.Seeking, fenced); return ok })
	if r.has(node.Resyncing) {
		t.Errorf("a fenced stream wiped the local copy:%s", r.trail())
	}
	if up, ro, _, _ := r.state(); !up || !ro || r.names() != "kept" {
		t.Errorf("seeking node: up=%v readOnly=%v holds %q, want up, read-only, data intact", up, ro, r.names())
	}
}

// A replacement incarnation that cannot boot takes the node down with
// a Failed transition (exit code 1); the supervisor's restart — Start —
// then carries the resync through.
func TestFailedRestartTakesNodeDown(t *testing.T) {
	dir := t.TempDir()
	addrs := reserve(t, 2)
	p := newNode(t, dir, "p", addrs[0], nil, nil)
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	if err := p.put("first"); err != nil {
		t.Fatal(err)
	}
	var r *testNode
	r = newNode(t, dir, "r", addrs[1], nil, func(cfg *node.Config) {
		cfg.Follow, cfg.Resync = addrs[0], true
		cfg.OnTransition = func(tr node.Transition) {
			r.record(tr)
			if tr.Kind == node.Resyncing {
				// The next page write is the fresh database's first.
				failpoint.Arm("storage.page_write", failpoint.Spec{Action: failpoint.ActError, OneShot: true})
			}
		}
	})
	defer failpoint.DisarmAll()
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	await(t, []*testNode{r}, "the replica to catch up", func() bool { return r.names() == "first" })
	reborn(t, p)
	await(t, []*testNode{r}, "the restart to fail", func() bool { return r.has(node.Failed) })
	failed, _ := r.find(node.Failed, nil)
	if !errors.Is(failed.Err, failpoint.ErrInjected) || errors.Is(failed.Err, repl.ErrResyncRequired) {
		t.Errorf("failed with %v, want the injected open failure", failed.Err)
	}
	if up, _, _, _ := r.state(); up {
		t.Error("failed node still up")
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	await(t, []*testNode{r}, "the restarted replica to resync", func() bool { return r.names() == "second-life" })
}

// Close and Kill are idempotent, in any order, and every goroutine a
// node started is gone when they return.
func TestCloseIsIdempotentAndLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	nodes, _ := group(t, 3, false)
	formed(t, nodes)
	if err := nodes[0].put("x"); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		if err := n.Close(); err != nil {
			t.Errorf("close %s: %v", n.name, err)
		}
		if err := n.Close(); err != nil {
			t.Errorf("second close %s: %v", n.name, err)
		}
		n.Kill()
		if err := n.Promote(); !errors.Is(err, node.ErrDown) {
			t.Errorf("Promote on a closed node = %v, want ErrDown", err)
		}
	}
	// Sockets the peers' probes left half-closed finish on their own
	// schedule; nothing of the nodes' may remain.
	var after int
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if after = runtime.NumGoroutine(); after <= before {
			return
		}
	}
	buf := make([]byte, 1<<20)
	t.Errorf("goroutines: %d before, %d after close\n%s", before, after, buf[:runtime.Stack(buf, true)])
}
