// Package netchaos is an in-process network fault injector for
// replication and failover tests: a directed TCP proxy (Link) sits
// between two nodes and, on command, partitions them, delays traffic
// (order-preserving — bytes are never reordered, only held), stalls
// one direction (asymmetric drops: A can still hear B while B hears
// silence), or resets live connections.
//
// Links are deliberately dumb: they hold no randomness and make no
// decisions. A harness (internal/torture's netchaos mode) owns the
// seed and drives every fault deterministically, so a failing run
// replays from its seed alone.
//
// A Link proxies one direction of *initiation*: connections dialed
// toward Target. Both byte directions of those connections flow
// through it, each independently stallable, so a pair of nodes gets
// one Link per dialing direction and a full mesh of n nodes needs
// n·(n-1) links (plus one per client).
package netchaos

import (
	"net"
	"sync"
	"time"

	"ode/internal/obs"
)

// Metrics counts proxy activity process-wide, registered under the
// netchaos.* names documented in docs/OBSERVABILITY.md. One set is
// typically shared by every link of a harness.
type Metrics struct {
	ConnsOpened obs.Counter `metric:"netchaos.conns_opened"` // connections accepted and successfully proxied to their target
	ConnsKilled obs.Counter `metric:"netchaos.conns_killed"` // connections dropped by a fault (partition, reset, close)
	Refused     obs.Counter `metric:"netchaos.refused"`      // connection attempts refused while partitioned
	Bytes       obs.Counter `metric:"netchaos.bytes"`        // payload bytes forwarded, both directions summed
	Partitions  obs.Counter `metric:"netchaos.partitions"`   // partition transitions (off → on)
	Resets      obs.Counter `metric:"netchaos.resets"`       // explicit Reset calls that killed at least one connection
	Links       obs.Gauge   `metric:"netchaos.links"`        // links currently open
	Conns       obs.Gauge   `metric:"netchaos.conns"`        // proxied connections currently live
}

// Attach registers every netchaos metric into reg. Call once per
// registry; duplicate registration panics, as elsewhere in obs.
func (m *Metrics) Attach(reg *obs.Registry) { reg.Attach(m) }

// Dir selects one byte direction of a proxied connection.
type Dir int

const (
	// ToTarget is the dialer→target direction (requests, subscribe
	// acks).
	ToTarget Dir = iota
	// FromTarget is the target→dialer direction (replies, WAL frames,
	// heartbeats).
	FromTarget
)

// Link is one directed proxy: it listens on a loopback address and
// forwards each accepted connection to Target. All fault controls
// take effect immediately, on live connections as well as new ones.
type Link struct {
	target string
	ln     net.Listener
	met    *Metrics

	mu          sync.Mutex
	partitioned bool
	latency     time.Duration
	stalled     [2]bool
	conns       map[net.Conn]struct{} // both halves of every live pipe
	closed      bool
	change      chan struct{} // closed+replaced on every control change

	wg sync.WaitGroup
}

// NewLink starts a proxy toward target on an ephemeral loopback port.
// met may be nil for an unregistered metric set.
func NewLink(target string, met *Metrics) (*Link, error) {
	if met == nil {
		met = &Metrics{}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &Link{
		target: target,
		ln:     ln,
		met:    met,
		conns:  make(map[net.Conn]struct{}),
		change: make(chan struct{}),
	}
	met.Links.Add(1)
	l.wg.Add(1)
	go l.acceptLoop()
	return l, nil
}

// Addr returns the address to dial instead of the target.
func (l *Link) Addr() string { return l.ln.Addr().String() }

// Target returns the address this link forwards to.
func (l *Link) Target() string { return l.target }

// bumpChange wakes every stalled/delayed copier to re-read controls.
// Callers hold l.mu.
func (l *Link) bumpChange() {
	close(l.change)
	l.change = make(chan struct{})
}

// SetPartition cuts (or heals) the link: live connections die, new
// attempts are accepted and immediately closed — to the dialer this is
// indistinguishable from a crashed target.
func (l *Link) SetPartition(on bool) {
	l.mu.Lock()
	was := l.partitioned
	l.partitioned = on
	var kill []net.Conn
	if on && !was {
		l.met.Partitions.Inc()
		for c := range l.conns {
			kill = append(kill, c)
		}
	}
	l.bumpChange()
	l.mu.Unlock()
	for _, c := range kill {
		c.Close()
	}
}

// SetLatency delays every forwarded chunk by d, preserving byte order
// (the copier is sequential, so delays queue rather than reorder).
func (l *Link) SetLatency(d time.Duration) {
	l.mu.Lock()
	l.latency = d
	l.bumpChange()
	l.mu.Unlock()
}

// SetStall stops forwarding dir while leaving connections open: the
// asymmetric drop. A stalled FromTarget on a WAL stream silences the
// primary's heartbeats without the replica's TCP noticing anything.
func (l *Link) SetStall(dir Dir, on bool) {
	l.mu.Lock()
	l.stalled[dir] = on
	l.bumpChange()
	l.mu.Unlock()
}

// Reset kills every live connection (both halves) without changing any
// other control — the transient connection-loss fault. Dialers see a
// reset/EOF and may reconnect immediately.
func (l *Link) Reset() {
	l.mu.Lock()
	var kill []net.Conn
	for c := range l.conns {
		kill = append(kill, c)
	}
	if len(kill) > 0 {
		l.met.Resets.Inc()
	}
	l.mu.Unlock()
	for _, c := range kill {
		c.Close()
	}
}

// Heal clears every fault at once.
func (l *Link) Heal() {
	l.mu.Lock()
	l.partitioned = false
	l.latency = 0
	l.stalled = [2]bool{}
	l.bumpChange()
	l.mu.Unlock()
}

// Close shuts the listener and kills live connections. Idempotent.
func (l *Link) Close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	var kill []net.Conn
	for c := range l.conns {
		kill = append(kill, c)
	}
	l.bumpChange()
	l.mu.Unlock()
	l.ln.Close()
	for _, c := range kill {
		c.Close()
	}
	l.wg.Wait()
	l.met.Links.Add(-1)
}

func (l *Link) acceptLoop() {
	defer l.wg.Done()
	for {
		in, err := l.ln.Accept()
		if err != nil {
			return
		}
		l.mu.Lock()
		refuse := l.partitioned || l.closed
		l.mu.Unlock()
		if refuse {
			l.met.Refused.Inc()
			in.Close()
			continue
		}
		out, err := net.DialTimeout("tcp", l.target, 2*time.Second)
		if err != nil {
			in.Close()
			continue
		}
		l.mu.Lock()
		if l.partitioned || l.closed {
			l.mu.Unlock()
			l.met.Refused.Inc()
			in.Close()
			out.Close()
			continue
		}
		l.conns[in] = struct{}{}
		l.conns[out] = struct{}{}
		l.mu.Unlock()
		l.met.ConnsOpened.Inc()
		l.met.Conns.Add(1)
		l.wg.Add(2)
		var once sync.Once
		closeBoth := func() {
			once.Do(func() {
				in.Close()
				out.Close()
				l.mu.Lock()
				delete(l.conns, in)
				delete(l.conns, out)
				l.mu.Unlock()
				l.met.Conns.Add(-1)
				l.met.ConnsKilled.Inc()
			})
		}
		go l.copy(out, in, ToTarget, closeBoth)
		go l.copy(in, out, FromTarget, closeBoth)
	}
}

// copy forwards one direction, applying latency and stalls between
// read and write. Faults land between whole chunks, so the stream
// content is never corrupted, only delayed or cut.
func (l *Link) copy(dst, src net.Conn, dir Dir, done func()) {
	defer l.wg.Done()
	defer done()
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if !l.gate(dir) {
				return
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
			l.met.Bytes.Add(uint64(n))
		}
		if err != nil {
			return // EOF, kill, and real errors all just end the pipe
		}
	}
}

// gate blocks the copier while its direction is stalled and sleeps out
// the configured latency; it reports false when the link died while
// waiting.
func (l *Link) gate(dir Dir) bool {
	// Latency first: a fixed hold per chunk, re-read each time so a
	// mid-sleep SetLatency(0) is only a bounded overshoot.
	l.mu.Lock()
	lat := l.latency
	l.mu.Unlock()
	if lat > 0 {
		time.Sleep(lat)
	}
	for {
		l.mu.Lock()
		stalled, closed, ch := l.stalled[dir], l.closed, l.change
		l.mu.Unlock()
		if closed {
			return false
		}
		if !stalled {
			return true
		}
		<-ch
	}
}
