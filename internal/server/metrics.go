package server

import (
	"ode/internal/obs"
	"ode/internal/wire"
)

// Metrics instruments the network server. One set exists per Server;
// Attach registers it into the owning database's metric registry under
// the server.* names documented in docs/OBSERVABILITY.md, so the
// daemon's metrics endpoint exposes engine and server counters through
// one snapshot.
type Metrics struct {
	Conns      obs.Gauge   `metric:"server.conns"`       // connections currently in the session table
	ConnsTotal obs.Counter `metric:"server.conns_total"` // connections accepted over the server's lifetime
	Sheds      obs.Counter `metric:"server.sheds"`       // connections/requests rejected by overload (session table full)
	Requests   obs.Counter `metric:"server.requests"`    // request frames processed
	BytesIn    obs.Counter `metric:"server.bytes_in"`    // frame bytes read from clients
	BytesOut   obs.Counter `metric:"server.bytes_out"`   // frame bytes written to clients

	// The entries of deref-cached requests, by outcome, the requested
	// entry included: proven (the client's copy is current), modified
	// (the current image was sent) and skipped (a neighbour whose lock
	// was busy or that is gone). A request that fails counts none.
	RevalProven   obs.Counter `metric:"server.reval_proven"`
	RevalModified obs.Counter `metric:"server.reval_modified"`
	RevalSkipped  obs.Counter `metric:"server.reval_skipped"`

	// Per-command request latency, measured from frame decode to the
	// final response frame written. A forall counts once, from its
	// request to the frame that ends it, less the time it spent paused
	// waiting for the client to ask for the next window; its
	// CmdForallMore frames are requests, not latencies of their own.
	LatBegin   obs.Histogram `metric:"server.req_ns.begin"`
	LatCommit  obs.Histogram `metric:"server.req_ns.commit"`
	LatAbort   obs.Histogram `metric:"server.req_ns.abort"`
	LatPNew    obs.Histogram `metric:"server.req_ns.pnew"`
	LatDeref   obs.Histogram `metric:"server.req_ns.deref"`
	LatUpdate  obs.Histogram `metric:"server.req_ns.update"`
	LatPDelete obs.Histogram `metric:"server.req_ns.pdelete"`
	LatVersion obs.Histogram `metric:"server.req_ns.version"`
	LatForall  obs.Histogram `metric:"server.req_ns.forall"`
	LatExplain obs.Histogram `metric:"server.req_ns.explain"`
	LatOQL     obs.Histogram `metric:"server.req_ns.oql"`
	LatOther   obs.Histogram `metric:"server.req_ns.other"` // ping, metrics, unknown
}

// Attach registers every server metric into reg. Call once per
// registry; duplicate registration panics, as elsewhere in obs.
func (m *Metrics) Attach(reg *obs.Registry) { reg.Attach(m) }

// latency returns the histogram recording command t.
func (m *Metrics) latency(t byte) *obs.Histogram {
	switch t {
	case wire.CmdBegin:
		return &m.LatBegin
	case wire.CmdCommit:
		return &m.LatCommit
	case wire.CmdAbort:
		return &m.LatAbort
	case wire.CmdPNew:
		return &m.LatPNew
	case wire.CmdDeref, wire.CmdDerefCached: // a client-cache revalidation is a deref
		return &m.LatDeref
	case wire.CmdUpdate:
		return &m.LatUpdate
	case wire.CmdPDelete:
		return &m.LatPDelete
	case wire.CmdCurrentVersion, wire.CmdNewVersion, wire.CmdDeleteVersion,
		wire.CmdVersions, wire.CmdDerefVersion:
		return &m.LatVersion
	case wire.CmdForall:
		return &m.LatForall
	case wire.CmdExplain:
		return &m.LatExplain
	case wire.CmdOQL:
		return &m.LatOQL
	}
	return &m.LatOther
}
