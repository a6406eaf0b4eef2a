// Package repl is the replication layer of a served Ode database: a
// primary ships committed WAL batches, in LSN order, to subscribed
// replicas over the wire protocol's CmdWALSubscribe stream; each
// replica applies them through DB.ApplyReplicatedBatch (durable in its
// own WAL first, visible second), acknowledges its applied LSN, and
// serves read-only traffic until an operator promotes it.
//
// docs/REPLICATION.md is the normative description of the protocol,
// the LSN semantics, and the failure matrix.
package repl

import "ode/internal/obs"

// Metrics instruments both roles of a node (Source for a primary,
// Replica for a follower — a promoted node has used both). One set
// exists per process; Attach registers it into the database's metric
// registry under the repl.* names documented in docs/OBSERVABILITY.md.
type Metrics struct {
	FramesShipped obs.Counter `metric:"repl.frames_shipped"` // WAL frames written to subscribers (all subscribers summed)
	BytesShipped  obs.Counter `metric:"repl.bytes_shipped"`  // raw batch bytes written to subscribers
	FramesApplied obs.Counter `metric:"repl.frames_applied"` // replicated batches applied locally (replica role)
	BytesApplied  obs.Counter `metric:"repl.bytes_applied"`  // raw batch bytes applied locally
	Acks          obs.Counter `metric:"repl.acks"`           // CmdWALAck frames received from subscribers
	Reconnects    obs.Counter `metric:"repl.reconnects"`     // replica reconnect attempts after a lost primary link
	Snapshots     obs.Counter `metric:"repl.snapshots"`      // full-resync snapshot dumps served (primary role)

	SubscriberKills   obs.Counter `metric:"repl.subscriber_kills"`    // subscribers the source dropped (queue overflow, shutdown)
	Resyncs           obs.Counter `metric:"repl.resyncs"`             // full-resync demands issued to unserviceable subscribers
	StaleEpochRejects obs.Counter `metric:"repl.stale_epoch_rejects"` // frames/streams rejected for carrying a deposed epoch
	HeartbeatsSent    obs.Counter `metric:"repl.heartbeats_sent"`     // heartbeat frames written to subscribers (primary role)
	HeartbeatsRecv    obs.Counter `metric:"repl.heartbeats_recv"`     // heartbeat frames received from the primary (replica role)
	Promotions        obs.Counter `metric:"repl.promotions"`          // times this node promoted itself to primary
	Demotions         obs.Counter `metric:"repl.demotions"`           // times this node was demoted back to replica

	Subscribers obs.Gauge `metric:"repl.subscribers"` // currently connected subscribers (primary role)
	LSN         obs.Gauge `metric:"repl.lsn"`         // last shipped (primary) or applied (replica) LSN
	LagLSN      obs.Gauge `metric:"repl.lag_lsn"`     // max batches behind across connected subscribers; replica: local lag vs primary
	LagBytes    obs.Gauge `metric:"repl.lag_bytes"`   // bytes queued for the slowest connected subscriber
	Epoch       obs.Gauge `metric:"repl.epoch"`       // current fencing epoch (bumped by promotion, adopted from the primary)
}

// Attach registers every replication metric into reg. Call once per
// registry; duplicate registration panics, as elsewhere in obs.
func (m *Metrics) Attach(reg *obs.Registry) { reg.Attach(m) }
