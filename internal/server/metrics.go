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
	Conns      obs.Gauge   // connections currently in the session table
	ConnsTotal obs.Counter // connections accepted over the server's lifetime
	Sheds      obs.Counter // connections/requests rejected by overload (session table full)
	Requests   obs.Counter // request frames processed
	BytesIn    obs.Counter // frame bytes read from clients
	BytesOut   obs.Counter // frame bytes written to clients

	// The entries of deref-cached requests, by outcome, the requested
	// entry included: proven (the client's copy is current), modified
	// (the current image was sent) and skipped (a neighbour whose lock
	// was busy or that is gone). A request that fails counts none.
	RevalProven   obs.Counter
	RevalModified obs.Counter
	RevalSkipped  obs.Counter

	// Per-command request latency, measured from frame decode to the
	// final response frame written. A forall counts once, from its
	// request to the frame that ends it, less the time it spent paused
	// waiting for the client to ask for the next window; its
	// CmdForallMore frames are requests, not latencies of their own.
	LatBegin   obs.Histogram
	LatCommit  obs.Histogram
	LatAbort   obs.Histogram
	LatPNew    obs.Histogram
	LatDeref   obs.Histogram
	LatUpdate  obs.Histogram
	LatPDelete obs.Histogram
	LatVersion obs.Histogram
	LatForall  obs.Histogram
	LatExplain obs.Histogram
	LatOQL     obs.Histogram
	LatOther   obs.Histogram // ping, metrics, unknown
}

// Attach registers every server metric into reg. Call once per
// registry; duplicate registration panics, as elsewhere in obs.
func (m *Metrics) Attach(reg *obs.Registry) {
	reg.RegisterGauge("server.conns", &m.Conns)
	reg.RegisterCounter("server.conns_total", &m.ConnsTotal)
	reg.RegisterCounter("server.sheds", &m.Sheds)
	reg.RegisterCounter("server.requests", &m.Requests)
	reg.RegisterCounter("server.bytes_in", &m.BytesIn)
	reg.RegisterCounter("server.bytes_out", &m.BytesOut)
	reg.RegisterCounter("server.reval_proven", &m.RevalProven)
	reg.RegisterCounter("server.reval_modified", &m.RevalModified)
	reg.RegisterCounter("server.reval_skipped", &m.RevalSkipped)
	for name, h := range map[string]*obs.Histogram{
		"server.req_ns.begin":   &m.LatBegin,
		"server.req_ns.commit":  &m.LatCommit,
		"server.req_ns.abort":   &m.LatAbort,
		"server.req_ns.pnew":    &m.LatPNew,
		"server.req_ns.deref":   &m.LatDeref,
		"server.req_ns.update":  &m.LatUpdate,
		"server.req_ns.pdelete": &m.LatPDelete,
		"server.req_ns.version": &m.LatVersion,
		"server.req_ns.forall":  &m.LatForall,
		"server.req_ns.explain": &m.LatExplain,
		"server.req_ns.oql":     &m.LatOQL,
		"server.req_ns.other":   &m.LatOther,
	} {
		reg.RegisterHistogram(name, h)
	}
}

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
