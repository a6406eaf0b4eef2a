package client

import "ode/internal/obs"

// Metrics counts the client's object-cache behavior and its network
// round trips. Every Client owns one set (CacheMetrics); Attach
// optionally registers it into an obs registry under the client.* names
// documented in docs/OBSERVABILITY.md, for processes that export one.
type Metrics struct {
	Hits          obs.Counter // derefs served from the cache: locally (tag proven this transaction) or via a cheap not-modified revalidation
	Misses        obs.Counter // derefs that shipped and decoded a full image (cold or stale entry)
	Invalidations obs.Counter // cached objects dropped by writes, routing decisions, or promotion
	ScanHits      obs.Counter // forall rows whose image the cache held at the same tag: handed out as a copy of the cached object, not decoded
	RoundTrips    obs.Counter // sends that waited for their replies: one per request, pipeline flush or forall window asked for, with a riding begin included
}

// Attach registers the metrics into reg. Call at most once per
// registry; duplicate registration panics, as elsewhere in obs.
func (m *Metrics) Attach(reg *obs.Registry) {
	reg.RegisterCounter("client.cache_hits", &m.Hits)
	reg.RegisterCounter("client.cache_misses", &m.Misses)
	reg.RegisterCounter("client.cache_invalidations", &m.Invalidations)
	reg.RegisterCounter("client.scan_hits", &m.ScanHits)
	reg.RegisterCounter("client.round_trips", &m.RoundTrips)
}
