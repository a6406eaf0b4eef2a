package repl

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"ode"
	"ode/internal/wire"
)

// MonitorOptions tunes automatic failure detection and promotion.
type MonitorOptions struct {
	// Self is this node's advertised serve address — the identity peers
	// rank it under during an election.
	Self string
	// Peers are the serve addresses of every other node in the group.
	Peers []string
	// Window is how long the primary must stay unreachable before an
	// election starts (default 3s). Detection latency trades against
	// false positives under transient blips.
	Window time.Duration
	// Probe is the health-check interval (default Window/3).
	Probe time.Duration
	// DialTimeout bounds one probe's dial plus round trip (default
	// Probe, capped at 1s).
	DialTimeout time.Duration
	// Logf, when set, receives detection and election decisions.
	Logf func(format string, args ...any)
}

// DefaultWindow is the failover window when MonitorOptions.Window is
// unset; a node's other recovery timings (restart backoff, subscribe
// retries) are fractions of the window in force.
const DefaultWindow = 3 * time.Second

func (o *MonitorOptions) withDefaults() MonitorOptions {
	out := *o
	if out.Window <= 0 {
		out.Window = DefaultWindow
	}
	if out.Probe <= 0 {
		out.Probe = out.Window / 3
	}
	if out.DialTimeout <= 0 {
		out.DialTimeout = out.Probe
		if out.DialTimeout > time.Second {
			out.DialTimeout = time.Second
		}
	}
	return out
}

// EventKind classifies a Monitor decision.
type EventKind int

const (
	// EventPromoteSelf: the primary stayed unreachable for the whole
	// window, a quorum of the group is visible, and this node ranks
	// freshest — it should promote.
	EventPromoteSelf EventKind = iota + 1
	// EventNewPrimary: a different node is writable at this node's
	// epoch or newer — re-point the local replica at Addr.
	EventNewPrimary
	// EventDeposed: this node serves as primary but a peer is writable
	// at a higher epoch — demote, then rejoin under Addr.
	EventDeposed
)

func (k EventKind) String() string {
	switch k {
	case EventPromoteSelf:
		return "promote-self"
	case EventNewPrimary:
		return "new-primary"
	case EventDeposed:
		return "deposed"
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// Event is one Monitor decision. The monitor only ever observes and
// recommends; the owner (ode-server's run loop, a test harness) owns
// the database lifecycle and must act, then call SetRole — the monitor
// stays quiet in between, so every event is acknowledged exactly once.
type Event struct {
	Kind  EventKind
	Addr  string // the writable peer (EventNewPrimary, EventDeposed); "" for EventPromoteSelf
	Epoch uint64 // the epoch observed on Addr, or the local epoch for EventPromoteSelf
}

// Monitor is the failure detector and election logic of automatic
// failover. A follower probes its primary every Probe interval (a
// cheap dedicated repl-status round trip — the subscribe stream's
// heartbeats cover the data path, this covers the serve path); once
// the primary has been unreachable for Window it holds an election. A
// primary probes its peers to notice its own deposition.
//
// The election is deterministic, not coordinated: every surviving node
// probes the same group, ranks candidates by (epoch descending,
// applied LSN descending, advertised identity ascending), and only the
// winner promotes itself — the rest
// keep waiting until they observe the winner writable. With three or
// more nodes a candidate also requires a majority of the group
// reachable, so a partitioned minority never promotes; with two nodes
// no such quorum exists and the survivor promotes unconditionally
// (documented split-brain risk of 2-node groups — epoch fencing limits
// the damage to the partition's duration).
type Monitor struct {
	db   *ode.DB
	met  *Metrics
	opts MonitorOptions

	mu        sync.Mutex
	primary   string // address this node follows; "" when self is primary
	seeking   bool   // no upstream attached: adopt any writable peer on sight
	waiting   bool   // event emitted, owner has not called SetRole yet
	firstFail time.Time

	events   chan Event
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// NewMonitor prepares a monitor for db. Call SetRole to establish the
// starting role, then Start. met may be nil for an unregistered
// metric set.
func NewMonitor(db *ode.DB, met *Metrics, opts *MonitorOptions) *Monitor {
	if met == nil {
		met = &Metrics{}
	}
	return &Monitor{
		db:     db,
		met:    met,
		opts:   opts.withDefaults(),
		events: make(chan Event, 4),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// Events delivers the monitor's decisions. Consume promptly; the
// monitor blocks on a full channel rather than drop a decision.
func (m *Monitor) Events() <-chan Event { return m.events }

// SetRole records the node's current role: primaryAddr is the address
// of the primary this node follows, or "" when this node is the
// primary. The owner calls it at startup and after acting on every
// event; it also re-arms the monitor after an event.
func (m *Monitor) SetRole(primaryAddr string) {
	m.mu.Lock()
	m.primary = primaryAddr
	m.seeking = false
	m.waiting = false
	m.firstFail = time.Time{}
	m.mu.Unlock()
}

// SetSeeking marks the node as read-only with no upstream attached —
// booted into a group with no visible primary, or holding after a
// failed re-subscribe. A seeker emits EventNewPrimary the moment any
// peer is writable at its epoch or newer (a follower would call that
// healthy and stay silent, but a seeker has no stream to be healthy
// on), and otherwise runs the same window-then-elect path as a
// follower whose primary died.
func (m *Monitor) SetSeeking() {
	m.mu.Lock()
	m.primary = ""
	m.seeking = true
	m.waiting = false
	m.firstFail = time.Time{}
	m.mu.Unlock()
}

// Start launches the probe loop.
func (m *Monitor) Start() { go m.run() }

// Stop terminates the probe loop and waits for it. Idempotent.
func (m *Monitor) Stop() {
	m.stopOnce.Do(func() { close(m.stop) })
	<-m.done
}

func (m *Monitor) logf(format string, args ...any) {
	if m.opts.Logf != nil {
		m.opts.Logf(format, args...)
	}
}

func (m *Monitor) run() {
	defer close(m.done)
	t := time.NewTicker(m.opts.Probe)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
		}
		m.mu.Lock()
		waiting, primary, seeking := m.waiting, m.primary, m.seeking
		m.mu.Unlock()
		if waiting {
			continue
		}
		switch {
		case seeking:
			m.tickSeeker()
		case primary == "":
			m.tickPrimary()
		default:
			m.tickFollower(primary)
		}
	}
}

// emit hands one decision to the owner and goes quiet until SetRole.
func (m *Monitor) emit(ev Event) {
	m.mu.Lock()
	m.waiting = true
	m.firstFail = time.Time{}
	m.mu.Unlock()
	m.logf("repl: failover event %v addr=%q epoch=%d", ev.Kind, ev.Addr, ev.Epoch)
	if ev.Kind == EventDeposed {
		m.met.Demotions.Inc()
	}
	select {
	case m.events <- ev:
	case <-m.stop:
	}
}

// Probe asks the node at addr for its replication status over a
// dedicated throwaway connection (hello exchange plus one repl-status
// round trip), bounded by timeout. Deliberately minimal — repl must
// not depend on the client package.
func Probe(addr string, timeout time.Duration) (*wire.ReplStatus, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(timeout))
	if err := wire.WriteHello(nc, wire.Version, 0); err != nil {
		return nil, err
	}
	if _, _, err := wire.ReadHello(nc); err != nil {
		return nil, err
	}
	if _, err := wire.WriteFrame(nc, &wire.Frame{ReqID: 1, Type: wire.CmdReplStatus}); err != nil {
		return nil, err
	}
	f, _, err := wire.ReadFrame(bufio.NewReader(nc), 0)
	if err != nil {
		return nil, err
	}
	if f.Type == wire.RespErr {
		return nil, wire.DecodeErrBody(f.Body)
	}
	if f.Type != wire.RespReplStatus {
		return nil, fmt.Errorf("%w: unexpected repl-status response 0x%02x", wire.ErrProto, f.Type)
	}
	return wire.DecodeReplStatus(f.Body)
}

func (m *Monitor) probe(addr string) (*wire.ReplStatus, error) {
	return Probe(addr, m.opts.DialTimeout)
}

// probeAll probes every peer concurrently and returns the statuses of
// the reachable ones.
func (m *Monitor) probeAll() map[string]*wire.ReplStatus {
	type res struct {
		addr string
		st   *wire.ReplStatus
	}
	ch := make(chan res, len(m.opts.Peers))
	for _, p := range m.opts.Peers {
		go func(p string) {
			st, err := m.probe(p)
			if err != nil {
				st = nil
			}
			ch <- res{p, st}
		}(p)
	}
	out := make(map[string]*wire.ReplStatus, len(m.opts.Peers))
	for range m.opts.Peers {
		r := <-ch
		if r.st != nil {
			out[r.addr] = r.st
		}
	}
	return out
}

// WritablePeer probes the group and returns the peer a read-only node
// should follow: writable at this node's epoch or newer, the highest
// epoch first — a deposed primary that has not noticed its deposition
// is writable too, at a stale one, and joining it would resync onto
// fenced history. addr is "" when no such peer is visible. A node's
// boot-time scan, the seeker tick and the election all decide through
// here.
func (m *Monitor) WritablePeer() (addr string, epoch uint64) {
	return writablePeer(m.probeAll(), m.db.Epoch())
}

func writablePeer(statuses map[string]*wire.ReplStatus, localEpoch uint64) (addr string, epoch uint64) {
	for a, st := range statuses {
		if !st.ReadOnly && st.Epoch >= localEpoch && (addr == "" || st.Epoch > epoch) {
			addr, epoch = a, st.Epoch
		}
	}
	return addr, epoch
}

// tickPrimary checks a serving primary for its own deposition: a peer
// writable at a higher epoch means a promotion happened behind this
// node's back (it was partitioned away), and continuing to accept
// writes would fork history.
func (m *Monitor) tickPrimary() {
	local := m.db.Epoch()
	for addr, st := range m.probeAll() {
		if !st.ReadOnly && st.Epoch > local {
			m.emit(Event{Kind: EventDeposed, Addr: addr, Epoch: st.Epoch})
			return
		}
	}
}

// tickFollower probes the primary; after Window of continuous failure
// (or a primary that answers but is no longer writable at our epoch)
// it holds an election.
func (m *Monitor) tickFollower(primary string) {
	st, err := m.probe(primary)
	if err == nil && !st.ReadOnly && st.Epoch >= m.db.Epoch() {
		m.mu.Lock()
		m.firstFail = time.Time{}
		m.mu.Unlock()
		return
	}
	now := time.Now()
	m.mu.Lock()
	if m.firstFail.IsZero() {
		m.firstFail = now
		m.mu.Unlock()
		if err != nil {
			m.logf("repl: primary %s unreachable (%v); failing over in %v", primary, err, m.opts.Window)
		} else {
			m.logf("repl: primary %s no longer writable at epoch >= %d; failing over in %v",
				primary, m.db.Epoch(), m.opts.Window)
		}
		return
	}
	waited := now.Sub(m.firstFail)
	m.mu.Unlock()
	if waited < m.opts.Window {
		return
	}
	m.elect()
}

// tickSeeker looks for an upstream: a writable peer (see WritablePeer)
// is adopted immediately. With nobody writable the seeker behaves like
// a follower whose primary died: arm the window, then elect.
func (m *Monitor) tickSeeker() {
	localEpoch := m.db.Epoch()
	if addr, epoch := m.WritablePeer(); addr != "" {
		m.emit(Event{Kind: EventNewPrimary, Addr: addr, Epoch: epoch})
		return
	}
	now := time.Now()
	m.mu.Lock()
	if m.firstFail.IsZero() {
		m.firstFail = now
		m.mu.Unlock()
		m.logf("repl: no writable primary visible at epoch >= %d; electing in %v", localEpoch, m.opts.Window)
		return
	}
	waited := now.Sub(m.firstFail)
	m.mu.Unlock()
	if waited < m.opts.Window {
		return
	}
	m.elect()
}

// elect decides this node's move after the primary failed. Either a
// peer is already writable at our epoch or newer (follow it), or the
// reachable candidates are ranked and only the deterministic winner
// promotes. firstFail stays armed on a no-decision outcome, so the
// election re-runs every probe tick until the group converges.
func (m *Monitor) elect() {
	localEpoch := m.db.Epoch()
	localLSN := m.db.AppliedLSN()
	statuses := m.probeAll()

	// A peer already serving writes at our epoch or newer ends the
	// election: follow it.
	if addr, epoch := writablePeer(statuses, localEpoch); addr != "" {
		m.emit(Event{Kind: EventNewPrimary, Addr: addr, Epoch: epoch})
		return
	}

	total := 1 + len(m.opts.Peers)
	reachable := 1 + len(statuses)
	if total >= 3 && 2*reachable <= total {
		m.logf("repl: election blocked: only %d/%d nodes reachable (no quorum)", reachable, total)
		return
	}
	if localEpoch == 0 && localLSN == 0 && reachable < total {
		// A virgin node — no replicated history adopted, nothing applied
		// — holds an independent fork-to-be: at rank (0, 0) only the
		// identity tie-break separates candidates, and a transiently
		// missed probe would let two virgins promote concurrently. So a
		// virgin may only promote when the whole group is visible, which
		// makes cluster bootstrap fully deterministic (and means a brand
		// new cluster needs every node up once to form).
		m.logf("repl: election blocked: virgin node requires every peer visible (%d/%d)", reachable, total)
		return
	}

	// Rank candidates by (epoch descending, applied LSN descending,
	// advertised identity ascending). Epoch outranks LSN: a deposed
	// primary's unreplicated tail can carry a high LSN of *forked*
	// history, and letting raw LSN win would resurrect writes the
	// fencing already condemned. Within the newest epoch, the freshest
	// LSN holds every quorum-acknowledged write. Ties break on the
	// advertised identity (not the dialed address, which can differ per
	// observer behind proxies), so every reachable node computes the
	// same ranking from the same probes and exactly one concludes
	// "promote self".
	winID, winEpoch, winLSN := m.opts.Self, localEpoch, localLSN
	for addr, st := range statuses {
		id := st.Advertise
		if id == "" {
			id = addr
		}
		if st.Epoch > winEpoch ||
			(st.Epoch == winEpoch && st.LSN > winLSN) ||
			(st.Epoch == winEpoch && st.LSN == winLSN && id < winID) {
			winID, winEpoch, winLSN = id, st.Epoch, st.LSN
		}
	}
	if winID != m.opts.Self {
		m.logf("repl: election: waiting for peer %s (epoch %d, lsn %d) to promote", winID, winEpoch, winLSN)
		return
	}
	m.emit(Event{Kind: EventPromoteSelf, Epoch: localEpoch})
}
