// Package node is the lifecycle of one served database: open it and
// make its DDL current, find the group's primary, follow it or seek
// one, serve on a stable address, and act on failover decisions —
// promote, re-point, demote, or wipe and resync — until closed.
// cmd/ode-server is this package behind flags and signals, and the
// torture harnesses drive the same Node the daemon runs, so what they
// prove is proved about the shipped state machine. The transition table
// is in docs/REPLICATION.md ("Node lifecycle").
package node

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ode"
	"ode/internal/repl"
	"ode/internal/server"
)

// Config is everything a node is started with: where it lives, what it
// serves, and the option structs of the layers it assembles. There is
// no timing of its own — restart backoff and subscribe retries are
// fractions of Monitor.Window.
type Config struct {
	// Path is the database file; Schema its class list. Start creates
	// the cluster of every class and the listed indexes when missing:
	// DDL is not replicated, so every node makes its own.
	Path    string
	Schema  *ode.Schema
	Indexes []Index
	// Addr is the listen address. A port of 0 is resolved by the first
	// Start; every later incarnation rebinds the resolved address.
	Addr string
	// Follow is the primary to subscribe to at Start; "" serves as
	// primary, or — self-managing — joins whatever primary the peers show.
	Follow string
	// Resync permits wiping the local copy when the history demands a
	// full snapshot resync. A self-managing node is always permitted.
	Resync bool

	DB      ode.Options
	Server  server.Options // Repl and Promote are set by the node
	Source  repl.SourceOptions
	Replica repl.ReplicaOptions
	// Monitor with Peers set runs the node self-managing: it never
	// crowns itself at boot, elects and promotes on primary failure,
	// and demotes and rejoins when deposed.
	Monitor repl.MonitorOptions

	// OnTransition, when set, observes every lifecycle transition. It is
	// called on the goroutine making the transition and must not call
	// back into the Node.
	OnTransition func(Transition)
}

// Index names one secondary index of the served schema.
type Index struct {
	Class *ode.Class
	Field string
}

func (c *Config) auto() bool   { return len(c.Monitor.Peers) > 0 }
func (c *Config) wipeOK() bool { return c.Resync || c.auto() }

func (c *Config) window() time.Duration {
	if c.Monitor.Window > 0 {
		return c.Monitor.Window
	}
	return repl.DefaultWindow
}

// Kind classifies a Transition.
type Kind int

const (
	Serving    Kind = iota + 1 // an incarnation is up; Addr is the primary it follows, if any
	Promoted                   // the node serves writes at Epoch
	Following                  // re-pointed at the primary Addr
	Seeking                    // read-only with no upstream; Err says why, if anything failed
	Deposed                    // Addr serves writes at the newer Epoch; demoting
	StreamDied                 // the stream from Addr ended with Err
	Stale                      // replication stopped and no wipe is permitted; reads go stale
	Resyncing                  // wiping the local copy for a snapshot resync; Err demanded it
	Failed                     // the node is down and needs its supervisor; Err says why
)

// Transition is one step of the lifecycle state machine.
type Transition struct {
	Kind  Kind
	Addr  string
	Epoch uint64
	Err   error
}

func (t Transition) String() string {
	switch t.Kind {
	case Serving:
		if t.Addr != "" {
			return fmt.Sprintf("serving as replica of %s at epoch %d", t.Addr, t.Epoch)
		}
		return fmt.Sprintf("serving at epoch %d", t.Epoch)
	case Promoted:
		return fmt.Sprintf("promoted: serving writes at epoch %d", t.Epoch)
	case Following:
		return fmt.Sprintf("following primary %s", t.Addr)
	case Seeking:
		if t.Err != nil {
			return fmt.Sprintf("holding read-only and seeking a primary: %v", t.Err)
		}
		return "no primary visible; read-only until the group elects one"
	case Deposed:
		return fmt.Sprintf("deposed by %s at epoch %d; demoting to replica", t.Addr, t.Epoch)
	case StreamDied:
		return fmt.Sprintf("replication stream from %s died: %v", t.Addr, t.Err)
	case Stale:
		return "replication stopped; serving stale reads (wiping the local copy is not permitted)"
	case Resyncing:
		return fmt.Sprintf("wiping local copy for full resync: %v", t.Err)
	case Failed:
		return fmt.Sprintf("node down: %v", t.Err)
	}
	return fmt.Sprintf("transition(%d)", int(t.Kind))
}

// ErrDown reports an operation on a node with no incarnation up.
var ErrDown = errors.New("node: down")

// Node runs one database through its lifecycle. An incarnation is one
// open of the database with everything built on it; a wipe-and-resync
// replaces the incarnation, everything else changes role in place.
type Node struct {
	cfg Config

	life sync.Mutex    // serialises Start, Close and Kill
	quit chan struct{} // closed to end the run goroutine
	done chan struct{} // closed when it has exited

	mu   sync.Mutex   // serialises role changes: the pump's actions and Promote
	dbMu sync.RWMutex // guards inc; WithDB holds it shared
	inc  *incarnation
	addr atomic.Value // string: the bound listen address

	// Run-goroutine state: the next restart delay, and when the current
	// incarnation came up.
	backoff time.Duration
	booted  time.Time
}

// incarnation is one open database and what serves it.
type incarnation struct {
	db  *ode.DB
	met *repl.Metrics
	mon *repl.Monitor // nil unless self-managing
	src *repl.Source
	srv *server.Server

	rep        *repl.Replica // guarded by Node.mu; nil when not following
	monitoring bool          // mon has been started

	stop     chan struct{} // closed when the incarnation is discarded
	died     chan death    // fatal replica exits
	serveErr chan error
	wg       sync.WaitGroup // replica watchers and the serve loop
}

// death is a replica's fatal exit, tagged so that the exit of a stream
// the node has since replaced is ignored.
type death struct {
	rep *repl.Replica
	err error
}

// New prepares a node; Start brings it up.
func New(cfg Config) *Node {
	n := &Node{cfg: cfg}
	n.addr.Store(cfg.Addr)
	return n
}

// Addr returns the listen address: Config.Addr until the first Start
// has bound it, the bound address from then on.
func (n *Node) Addr() string { return n.addr.Load().(string) }

func (n *Node) emit(t Transition) {
	if n.cfg.OnTransition != nil {
		n.cfg.OnTransition(t)
	}
}

// Start brings the node up and returns once it serves. A node that is
// already up is left alone. An error wrapping repl.ErrResyncRequired or
// ode.ErrStaleEpoch means the local copy cannot join the primary's
// history and wiping it was not permitted.
func (n *Node) Start() error {
	n.life.Lock()
	defer n.life.Unlock()
	if n.quit != nil {
		select {
		case <-n.done: // failed on its own; start over
		default:
			return nil
		}
	}
	inc, err := n.boot(n.cfg.Follow)
	if err != nil {
		return err
	}
	n.backoff = 0
	n.quit, n.done = make(chan struct{}), make(chan struct{})
	go n.run(inc, n.quit, n.done)
	return nil
}

// Close drains the server and closes the database cleanly. Closing a
// node that is down does nothing.
func (n *Node) Close() error { return n.halt(false) }

// Kill stops the node the way a process crash would: nothing is
// flushed, and the next Start runs recovery. For harnesses.
func (n *Node) Kill() { n.halt(true) }

func (n *Node) halt(crash bool) error {
	n.life.Lock()
	defer n.life.Unlock()
	if n.quit == nil {
		return nil
	}
	close(n.quit)
	<-n.done
	n.quit = nil
	if inc := n.current(); inc != nil {
		return n.teardown(inc, crash)
	}
	return nil
}

// WithDB runs fn on the current incarnation's database; the database
// cannot be closed or replaced until fn returns (its role still can
// change). fn must not call back into the Node.
func (n *Node) WithDB(fn func(*ode.DB) error) error {
	n.dbMu.RLock()
	defer n.dbMu.RUnlock()
	if n.inc == nil {
		return ErrDown
	}
	return fn(n.inc.db)
}

func (n *Node) current() *incarnation {
	n.dbMu.RLock()
	defer n.dbMu.RUnlock()
	return n.inc
}

// Promote turns the node writable in place: detach from the primary,
// bump the fencing epoch durably, accept writes. The operator's signal,
// the wire promote command and an election win all come through here.
// A failed epoch bump leaves the node read-only and unattached, and a
// self-managing node seeking.
func (n *Node) Promote() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	inc := n.current()
	if inc == nil {
		return ErrDown
	}
	rep := inc.rep
	inc.rep = nil
	var epoch uint64
	var err error
	switch {
	case rep != nil:
		epoch, err = rep.Promote()
	case inc.db.ReadOnly():
		epoch, err = repl.PromoteDB(inc.db, inc.met)
	default:
		return nil // already primary
	}
	if err != nil {
		err = fmt.Errorf("promote: epoch bump: %w", err)
		if inc.mon != nil {
			inc.mon.SetSeeking()
		}
		n.emit(Transition{Kind: Seeking, Err: err})
		return err
	}
	if inc.mon != nil {
		inc.mon.SetRole("")
	}
	n.emit(Transition{Kind: Promoted, Epoch: epoch})
	return nil
}

// open opens the database, makes its DDL current, and attaches the
// replication metrics and (self-managing) the monitor to it.
func (n *Node) open(inc *incarnation) error {
	db, err := ode.Open(n.cfg.Path, n.cfg.Schema, &n.cfg.DB)
	if err != nil {
		return err
	}
	if err := n.ensureDDL(db); err != nil {
		db.Close()
		return err
	}
	inc.db, inc.met = db, &repl.Metrics{}
	inc.met.Attach(db.MetricsRegistry())
	if n.cfg.auto() {
		inc.mon = repl.NewMonitor(db, inc.met, &n.cfg.Monitor)
	}
	return nil
}

func (n *Node) ensureDDL(db *ode.DB) error {
	for _, c := range db.Schema().Classes() {
		if !db.HasCluster(c) {
			if err := db.CreateCluster(c); err != nil {
				return fmt.Errorf("create cluster %s: %w", c.Name, err)
			}
		}
	}
	for _, ix := range n.cfg.Indexes {
		if !db.Manager().HasIndex(ix.Class, ix.Field) {
			if err := db.CreateIndex(ix.Class, ix.Field); err != nil {
				return fmt.Errorf("create index %s.%s: %w", ix.Class.Name, ix.Field, err)
			}
		}
	}
	return nil
}

// resyncDemand reports an error that condemns the local copy's history:
// the primary cannot serve this position, or fenced this epoch.
func resyncDemand(err error) bool {
	return errors.Is(err, repl.ErrResyncRequired) || errors.Is(err, ode.ErrStaleEpoch)
}

// subscribe begins following addr, retrying transient connect failures
// briefly (a freshly promoted primary may still be settling). A resync
// demand returns at once. The caller holds mu or owns inc exclusively.
func (n *Node) subscribe(inc *incarnation, addr string) error {
	for attempt, wait := 1, n.cfg.window()/15; ; attempt, wait = attempt+1, wait*2 {
		rep := repl.NewReplica(inc.db, addr, inc.met, &n.cfg.Replica)
		err := rep.Start()
		if err == nil {
			inc.rep = rep
			inc.wg.Add(1)
			go func() {
				defer inc.wg.Done()
				<-rep.Done()
				if err := rep.Err(); err != nil { // nil after a deliberate Stop
					select {
					case inc.died <- death{rep, err}:
					case <-inc.stop:
					}
				}
			}()
			return nil
		}
		if resyncDemand(err) || attempt == 4 {
			return fmt.Errorf("follow %s: %w", addr, err)
		}
		time.Sleep(wait)
	}
}

// boot brings up one incarnation following follow. A self-managing
// node with nobody to follow scans its peers, and finding no primary
// comes up read-only and seeking: a restarted node holds the epoch it
// last adopted, and coming up writable there could put two writers on
// one epoch — so it never crowns itself, the election does.
func (n *Node) boot(follow string) (*incarnation, error) {
	inc := &incarnation{
		stop:     make(chan struct{}),
		died:     make(chan death),
		serveErr: make(chan error, 1),
	}
	if err := n.open(inc); err != nil {
		return nil, err
	}
	if follow == "" && inc.mon != nil {
		follow, _ = inc.mon.WritablePeer()
	}
	var unreachable error
	for wiped := false; follow != ""; {
		err := n.subscribe(inc, follow)
		if err == nil {
			break
		}
		switch {
		case resyncDemand(err) && n.cfg.wipeOK() && !wiped:
			n.emit(Transition{Kind: Resyncing, Addr: follow, Err: err})
			wiped = true
			inc.db.Close()
			if err := ode.RemoveFiles(n.cfg.Path); err != nil {
				return nil, err
			}
			if err := n.open(inc); err != nil {
				return nil, err
			}
		case inc.mon != nil && !resyncDemand(err):
			// The peer cannot be subscribed to right now; the monitor
			// will find it, or its successor.
			unreachable, follow = err, ""
		default:
			inc.db.Close()
			return nil, err
		}
	}
	if follow == "" && inc.mon != nil {
		inc.db.SetReadOnly(true)
		n.emit(Transition{Kind: Seeking, Err: unreachable})
	}

	inc.src = repl.NewSource(inc.db, inc.met, &n.cfg.Source)
	opts := n.cfg.Server
	opts.Repl, opts.Promote = inc.src, n.Promote
	inc.srv = server.New(inc.db, &opts)
	// The address may still be held by the previous incarnation's
	// sockets for a moment; retry briefly.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(25 * time.Millisecond) {
		bound, err := inc.srv.Listen(n.Addr())
		if err == nil {
			n.addr.Store(bound.String())
			break
		}
		if time.Now().After(deadline) {
			n.discard(inc, false)
			return nil, err
		}
	}
	inc.wg.Add(1)
	go func() {
		defer inc.wg.Done()
		if err := inc.srv.Serve(nil); err != server.ErrServerClosed {
			inc.serveErr <- err
		}
	}()
	if inc.mon != nil {
		if follow != "" {
			inc.mon.SetRole(follow)
		} else {
			inc.mon.SetSeeking()
		}
		inc.mon.Start()
		inc.monitoring = true
	}
	n.dbMu.Lock()
	n.inc = inc
	n.dbMu.Unlock()
	n.booted = time.Now()
	n.emit(Transition{Kind: Serving, Addr: follow, Epoch: inc.db.Epoch()})
	return inc, nil
}

// teardown takes a served incarnation down: from here on the node is
// down to WithDB and Promote.
func (n *Node) teardown(inc *incarnation, crash bool) error {
	n.mu.Lock()
	n.dbMu.Lock()
	n.inc = nil
	n.dbMu.Unlock()
	n.mu.Unlock()
	return n.discard(inc, crash)
}

// discard releases an incarnation's parts, serving or not, and closes
// its database — as a crash would, if asked.
func (n *Node) discard(inc *incarnation, crash bool) error {
	close(inc.stop)
	if inc.monitoring {
		inc.mon.Stop()
	}
	if inc.rep != nil {
		inc.rep.Stop() // stop applying before the database closes
	}
	inc.srv.Close()
	inc.src.Close()
	inc.wg.Wait()
	if crash {
		inc.db.CrashForTesting()
		return nil
	}
	return inc.db.Close()
}

// verdict ends an incarnation from inside: fail the node with err, or
// (nil err) wipe the local copy and restart for a snapshot resync.
type verdict struct{ err error }

// run owns the node between Start and Close: it pumps the current
// incarnation's events and replaces the incarnation when a verdict
// asks for it. Restarts back off from a sixth of the failover window,
// doubling while they come in quick succession.
func (n *Node) run(inc *incarnation, quit <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	for {
		v, ok := n.pump(inc, quit)
		if !ok {
			return
		}
		n.teardown(inc, false)
		if v.err == nil {
			select {
			case <-time.After(n.nextBackoff()):
			case <-quit:
				return
			}
			v.err = ode.RemoveFiles(n.cfg.Path)
		}
		if v.err == nil {
			// A self-managing node rejoins through the peer scan: the
			// primary it followed may be the one that failed.
			follow := n.cfg.Follow
			if n.cfg.auto() {
				follow = ""
			}
			inc, v.err = n.boot(follow)
		}
		if v.err != nil {
			n.emit(Transition{Kind: Failed, Err: v.err})
			return
		}
	}
}

func (n *Node) nextBackoff() time.Duration {
	base := n.cfg.window() / 6
	if n.backoff == 0 || time.Since(n.booted) > 120*base {
		n.backoff = base // first restart, or the last incarnation ran healthy
	}
	d := n.backoff
	n.backoff = min(2*d, 20*base)
	return d
}

// pump acts on one incarnation's events until quit (ok false) or a
// verdict.
func (n *Node) pump(inc *incarnation, quit <-chan struct{}) (v verdict, ok bool) {
	var events <-chan repl.Event
	if inc.mon != nil {
		events = inc.mon.Events()
	}
	for {
		var end *verdict
		select {
		case <-quit:
			return verdict{}, false
		case err := <-inc.serveErr:
			end = &verdict{err: err}
		case ev := <-events:
			switch ev.Kind {
			case repl.EventPromoteSelf:
				n.Promote() // reported, and the monitor re-armed, inside
			case repl.EventDeposed:
				n.emit(Transition{Kind: Deposed, Addr: ev.Addr, Epoch: ev.Epoch})
				end = n.repoint(inc, ev.Addr)
			case repl.EventNewPrimary:
				end = n.repoint(inc, ev.Addr)
			}
		case d := <-inc.died:
			end = n.streamDied(inc, d)
		}
		if end != nil {
			return *end, true
		}
	}
}

// repoint demotes (if needed) and follows the writable peer at addr.
// Only a history that cannot join the new primary's is wiped; a peer
// that cannot be reached leaves the copy alone — the node holds
// read-only and the monitor, re-armed as a seeker, keeps looking.
func (n *Node) repoint(inc *incarnation, addr string) *verdict {
	n.mu.Lock()
	defer n.mu.Unlock()
	if inc.rep != nil {
		inc.rep.Stop()
		inc.rep = nil
	}
	inc.db.SetReadOnly(true)
	err := n.subscribe(inc, addr)
	switch {
	case err == nil:
		inc.mon.SetRole(addr)
		n.emit(Transition{Kind: Following, Addr: addr})
	case resyncDemand(err):
		// The usual case for a deposed primary: its unreplicated tail
		// forked from the new history.
		n.emit(Transition{Kind: Resyncing, Addr: addr, Err: err})
		return &verdict{}
	default:
		inc.mon.SetSeeking()
		n.emit(Transition{Kind: Seeking, Addr: addr, Err: err})
	}
	return nil
}

// streamDied handles a replica's fatal exit.
func (n *Node) streamDied(inc *incarnation, d death) *verdict {
	n.mu.Lock()
	current := d.rep == inc.rep
	if current {
		inc.rep = nil
	}
	n.mu.Unlock()
	if !current {
		return nil // a stream the node already replaced or promoted away from
	}
	n.emit(Transition{Kind: StreamDied, Addr: d.rep.Addr(), Err: d.err})
	switch {
	case errors.Is(d.err, ode.ErrStaleEpoch) && inc.mon != nil:
		// The node we followed is itself deposed. Nothing is wrong with
		// the local copy: seek the real primary.
		inc.mon.SetSeeking()
		n.emit(Transition{Kind: Seeking, Err: d.err})
		return nil
	case n.cfg.wipeOK():
		// A resync demand, or an apply error that leaves the local copy
		// suspect: rebuild it from a snapshot.
		n.emit(Transition{Kind: Resyncing, Addr: d.rep.Addr(), Err: d.err})
		return &verdict{}
	case resyncDemand(d.err):
		return &verdict{err: d.err}
	default:
		n.emit(Transition{Kind: Stale, Err: d.err})
		return nil
	}
}
