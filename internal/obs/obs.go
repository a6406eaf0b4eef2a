// Package obs is the engine-wide observability layer: atomic counters,
// gauges, and fixed-bucket latency histograms, plus a registry that
// maps canonical dotted metric names to the metric values so they can
// be snapshotted, exported (expvar), and diffed against documentation.
//
// The package is a stdlib-only leaf: every engine package (storage,
// wal, txn, object, query, trigger) imports it, so it must import none
// of them. All metric types are usable at their zero value, and all
// operations are safe for concurrent use without external locking —
// recording a counter increment is a single atomic add, and recording
// a latency sample is a bucket lookup plus two atomic adds, cheap
// enough to live on every hot path unconditionally.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count. The zero value is
// ready to use.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

func (c *Counter) value() any { return c.v.Load() }

// Gauge is an instantaneous signed level (e.g. currently pinned
// frames). The zero value is ready to use.
type Gauge struct{ v atomic.Int64 }

// Set replaces the level.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the level by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Load returns the current level.
func (g *Gauge) Load() int64 { return g.v.Load() }

func (g *Gauge) value() any { return g.v.Load() }

// histBounds are the histogram upper bounds in nanoseconds: powers of
// four from 1µs to ~1s, chosen so one multiply-free loop classifies a
// sample and the range covers everything from a pool hit to a slow
// fsync. Samples above the last bound land in the overflow bucket.
var histBounds = [...]int64{
	1_000,         // 1µs
	4_000,         // 4µs
	16_000,        // 16µs
	64_000,        // 64µs
	256_000,       // 256µs
	1_024_000,     // ~1ms
	4_096_000,     // ~4ms
	16_384_000,    // ~16ms
	65_536_000,    // ~66ms
	262_144_000,   // ~262ms
	1_048_576_000, // ~1s
}

// numHistBuckets is the bucket count of every Histogram, including the
// overflow bucket.
const numHistBuckets = len(histBounds) + 1

// Histogram is a fixed-bucket latency histogram. The recording path is
// a linear scan over eleven int64 bounds plus two atomic adds — cheap
// enough for per-commit and per-fsync use. The zero value is ready to
// use.
type Histogram struct {
	buckets [numHistBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Int64 // nanoseconds
}

// Observe records one duration sample.
func (h *Histogram) Observe(d time.Duration) {
	ns := int64(d)
	i := 0
	for i < len(histBounds) && ns > histBounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
}

// Since records the elapsed time from start, the idiomatic
// `defer h.Since(time.Now())` recording path.
func (h *Histogram) Since(start time.Time) { h.Observe(time.Since(start)) }

// Count returns the number of samples recorded.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the total of all samples.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Snapshot captures the histogram state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   time.Duration(h.sum.Load()),
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

func (h *Histogram) value() any { return h.Snapshot() }

// HistogramSnapshot is a point-in-time copy of a Histogram. Buckets[i]
// counts samples with duration <= bucketBound(i); the last bucket is
// the overflow (everything slower than the largest bound).
type HistogramSnapshot struct {
	Count   uint64
	Sum     time.Duration
	Buckets [numHistBuckets]uint64
}

// Mean returns the average sample, or 0 with no samples.
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// bucketBound returns the inclusive upper bound of bucket i, or a
// negative duration for the overflow bucket.
func bucketBound(i int) time.Duration {
	if i < 0 || i >= len(histBounds) {
		return -1
	}
	return time.Duration(histBounds[i])
}

// metric is any value the registry can hold.
type metric interface{ value() any }

// Registry maps canonical dotted metric names ("pool.hits",
// "wal.fsync_ns") to their live metric values.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]metric
	names   []string // registration order
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]metric)}
}

func (r *Registry) register(name string, m metric) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.metrics[name]; dup {
		panic("obs: duplicate metric " + name)
	}
	r.metrics[name] = m
	r.names = append(r.names, name)
}

// RegisterCounter registers an externally owned counter under name.
// It exists for metric sources that outlive any single DB — e.g. the
// process-global failpoint sites — whose counters cannot live inside
// the per-DB Metrics set. Duplicate names panic, as with register.
func (r *Registry) RegisterCounter(name string, c *Counter) { r.register(name, c) }

// RegisterGauge registers an externally owned gauge under name (the
// network server attaches its session-table gauge this way).
func (r *Registry) RegisterGauge(name string, g *Gauge) { r.register(name, g) }

// RegisterHistogram registers an externally owned histogram under name
// (the network server attaches its per-command latency histograms this
// way).
func (r *Registry) RegisterHistogram(name string, h *Histogram) { r.register(name, h) }

// Names returns every registered metric name, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]string(nil), r.names...)
	sort.Strings(out)
	return out
}

// Snapshot returns name -> current value for every registered metric.
// Counter and Gauge values come back as uint64/int64; histograms as
// HistogramSnapshot.
func (r *Registry) Snapshot() map[string]any {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]any, len(r.metrics))
	for name, m := range r.metrics {
		out[name] = m.value()
	}
	return out
}

// PoolMetrics instruments the buffer pool.
type PoolMetrics struct {
	Hits      Counter // Fetch served from a resident frame
	Misses    Counter // Fetch that had to read the page from disk
	Evictions Counter // frames reclaimed by LRU replacement
	Pins      Counter // page pin acquisitions (Fetch + NewPage)
	Pinned    Gauge   // frames currently pinned
	Shards    Gauge   // lock stripes the pool was built with
}

// StorageMetrics instruments the page file and double-write buffer.
type StorageMetrics struct {
	PageReads      Counter // pages read from the data file
	PageWrites     Counter // pages written to the data file
	DWFlushes      Counter // double-write buffer stagings (torn-page fences)
	Compactions    Counter // DB.Compact passes completed
	PagesReclaimed Counter // heap pages returned to the free list by compaction
}

// WALMetrics instruments the write-ahead log.
type WALMetrics struct {
	Appends            Counter   // commit batches appended
	AppendBytes        Counter   // bytes appended (records + commit markers)
	Fsyncs             Counter   // log fsyncs issued
	FsyncNS            Histogram // log fsync latency
	AutoCheckpoints    Counter   // checkpoints triggered by the WAL soft limit
	BackpressureStalls Counter   // commits stalled by the WAL hard limit
	GroupCommits       Counter   // shared fsyncs issued by group-commit leaders
	GroupCommitSize    Counter   // commits covered by those fsyncs (avg group = size/commits)
}

// TxnMetrics instruments the transaction engine and lock manager.
type TxnMetrics struct {
	Begins               Counter   // transactions started
	Commits              Counter   // transactions committed
	Aborts               Counter   // transactions that ended uncommitted with a write set to discard (incl. deadlock victims)
	ReadOnlyEnds         Counter   // transactions that ended uncommitted with no write set (View, read-only aborts)
	ConstraintViolations Counter   // commits rejected by class constraints
	LockGrants           Counter   // fresh lock grants (rows and clusters), added at release
	LockWaits            Counter   // lock requests that had to block
	LockWaitTimeouts     Counter   // lock waits abandoned by deadline or cancellation
	Deadlocks            Counter   // waits-for cycles detected
	Cancels              Counter   // transactions that failed on an expired/cancelled context
	AdmissionWaits       Counter   // Begin calls that queued for an admission slot
	AdmissionRejects     Counter   // Begin calls rejected with ErrOverloaded
	AdmissionActive      Gauge     // transactions currently holding an admission slot
	AdmissionQueued      Gauge     // Begin calls currently waiting for a slot
	PreparedTotal        Counter   // two-phase commits prepared (votes logged)
	PreparedCommits      Counter   // prepared transactions committed by decision
	PreparedAborts       Counter   // prepared transactions aborted by decision
	PreparedTimeouts     Counter   // prepared transactions aborted by the orphan timeout
	PreparedInDoubt      Gauge     // prepared transactions currently awaiting a decision
	CommitNS             Histogram // Commit() latency (constraint checks through log+apply)
}

// ObjectMetrics instruments the object manager.
type ObjectMetrics struct {
	Creates            Counter // persistent objects created (pnew)
	Updates            Counter // object images replaced in place
	Deletes            Counter // persistent objects deleted (pdelete)
	IndexPuts          Counter // secondary-index entries inserted
	IndexDeletes       Counter // secondary-index entries removed
	CacheHits          Counter // Gets served from the decoded-object cache
	CacheMisses        Counter // Gets that fetched and decoded from the heap
	CacheInvalidations Counter // cache entries dropped by update/delete
	CacheEvictions     Counter // cache entries dropped by the size bound
}

// QueryMetrics instruments the query layer: plan choices and work
// performed per forall / join / fixpoint run.
type QueryMetrics struct {
	Foralls            Counter // forall executions
	PlanExtentScan     Counter // foralls answered by a cluster extent scan
	PlanIndexRange     Counter // foralls answered by an index range scan
	Joins              Counter // join executions
	PlanJoinNestedLoop Counter // joins run as plain nested loops
	PlanJoinIndexNL    Counter // joins run as index nested loops
	PlanJoinHash       Counter // joins run as hash joins
	RowsScanned        Counter // objects fetched by scans (before predicates)
	RowsYielded        Counter // objects that satisfied predicates and reached the body
	FixpointRounds     Counter // delta rounds executed by fixpoint iteration
}

// TriggerMetrics instruments the trigger service.
type TriggerMetrics struct {
	Activations  Counter // triggers activated on objects
	Firings      Counter // trigger actions scheduled after commit
	Timeouts     Counter // timed triggers fired by deadline expiry
	ActionErrors Counter // trigger actions that returned an error
}

// Metrics is the full engine metric set, one substruct per layer. A DB
// owns one; layers receive a pointer to their substruct via SetMetrics
// and default to an unregistered zero value so library code never
// nil-checks.
type Metrics struct {
	Pool    PoolMetrics
	Storage StorageMetrics
	WAL     WALMetrics
	Txn     TxnMetrics
	Object  ObjectMetrics
	Query   QueryMetrics
	Trigger TriggerMetrics
}

// PoolStats is a point-in-time copy of PoolMetrics.
type PoolStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Pins      uint64
	Pinned    int64
	Shards    int64
}

// StorageStats is a point-in-time copy of StorageMetrics.
type StorageStats struct {
	PageReads      uint64
	PageWrites     uint64
	DWFlushes      uint64
	Compactions    uint64
	PagesReclaimed uint64
}

// WALStats is a point-in-time copy of WALMetrics.
type WALStats struct {
	Appends            uint64
	AppendBytes        uint64
	Fsyncs             uint64
	FsyncNS            HistogramSnapshot
	AutoCheckpoints    uint64
	BackpressureStalls uint64
	GroupCommits       uint64
	GroupCommitSize    uint64
}

// TxnStats is a point-in-time copy of TxnMetrics.
type TxnStats struct {
	Begins               uint64
	Commits              uint64
	Aborts               uint64
	ReadOnlyEnds         uint64
	ConstraintViolations uint64
	LockWaits            uint64
	LockWaitTimeouts     uint64
	Deadlocks            uint64
	Cancels              uint64
	AdmissionWaits       uint64
	AdmissionRejects     uint64
	AdmissionActive      int64
	AdmissionQueued      int64
	PreparedTotal        uint64
	PreparedCommits      uint64
	PreparedAborts       uint64
	PreparedTimeouts     uint64
	PreparedInDoubt      int64
	CommitNS             HistogramSnapshot
}

// ObjectStats is a point-in-time copy of ObjectMetrics.
type ObjectStats struct {
	Creates            uint64
	Updates            uint64
	Deletes            uint64
	IndexPuts          uint64
	IndexDeletes       uint64
	CacheHits          uint64
	CacheMisses        uint64
	CacheInvalidations uint64
	CacheEvictions     uint64
}

// QueryStats is a point-in-time copy of QueryMetrics.
type QueryStats struct {
	Foralls            uint64
	PlanExtentScan     uint64
	PlanIndexRange     uint64
	Joins              uint64
	PlanJoinNestedLoop uint64
	PlanJoinIndexNL    uint64
	PlanJoinHash       uint64
	RowsScanned        uint64
	RowsYielded        uint64
	FixpointRounds     uint64
}

// TriggerStats is a point-in-time copy of TriggerMetrics.
type TriggerStats struct {
	Activations  uint64
	Firings      uint64
	Timeouts     uint64
	ActionErrors uint64
}

// Snapshot is a point-in-time copy of the full engine metric set, the
// payload of DB.Stats().
type Snapshot struct {
	Pool    PoolStats
	Storage StorageStats
	WAL     WALStats
	Txn     TxnStats
	Object  ObjectStats
	Query   QueryStats
	Trigger TriggerStats
}

// Stats captures the current value of every metric.
func (m *Metrics) Stats() Snapshot {
	return Snapshot{
		Pool: PoolStats{
			Hits:      m.Pool.Hits.Load(),
			Misses:    m.Pool.Misses.Load(),
			Evictions: m.Pool.Evictions.Load(),
			Pins:      m.Pool.Pins.Load(),
			Pinned:    m.Pool.Pinned.Load(),
			Shards:    m.Pool.Shards.Load(),
		},
		Storage: StorageStats{
			PageReads:      m.Storage.PageReads.Load(),
			PageWrites:     m.Storage.PageWrites.Load(),
			DWFlushes:      m.Storage.DWFlushes.Load(),
			Compactions:    m.Storage.Compactions.Load(),
			PagesReclaimed: m.Storage.PagesReclaimed.Load(),
		},
		WAL: WALStats{
			Appends:            m.WAL.Appends.Load(),
			AppendBytes:        m.WAL.AppendBytes.Load(),
			Fsyncs:             m.WAL.Fsyncs.Load(),
			FsyncNS:            m.WAL.FsyncNS.Snapshot(),
			AutoCheckpoints:    m.WAL.AutoCheckpoints.Load(),
			BackpressureStalls: m.WAL.BackpressureStalls.Load(),
			GroupCommits:       m.WAL.GroupCommits.Load(),
			GroupCommitSize:    m.WAL.GroupCommitSize.Load(),
		},
		Txn: TxnStats{
			Begins:               m.Txn.Begins.Load(),
			Commits:              m.Txn.Commits.Load(),
			Aborts:               m.Txn.Aborts.Load(),
			ReadOnlyEnds:         m.Txn.ReadOnlyEnds.Load(),
			ConstraintViolations: m.Txn.ConstraintViolations.Load(),
			LockWaits:            m.Txn.LockWaits.Load(),
			LockWaitTimeouts:     m.Txn.LockWaitTimeouts.Load(),
			Deadlocks:            m.Txn.Deadlocks.Load(),
			Cancels:              m.Txn.Cancels.Load(),
			AdmissionWaits:       m.Txn.AdmissionWaits.Load(),
			AdmissionRejects:     m.Txn.AdmissionRejects.Load(),
			AdmissionActive:      m.Txn.AdmissionActive.Load(),
			AdmissionQueued:      m.Txn.AdmissionQueued.Load(),
			PreparedTotal:        m.Txn.PreparedTotal.Load(),
			PreparedCommits:      m.Txn.PreparedCommits.Load(),
			PreparedAborts:       m.Txn.PreparedAborts.Load(),
			PreparedTimeouts:     m.Txn.PreparedTimeouts.Load(),
			PreparedInDoubt:      m.Txn.PreparedInDoubt.Load(),
			CommitNS:             m.Txn.CommitNS.Snapshot(),
		},
		Object: ObjectStats{
			Creates:            m.Object.Creates.Load(),
			Updates:            m.Object.Updates.Load(),
			Deletes:            m.Object.Deletes.Load(),
			IndexPuts:          m.Object.IndexPuts.Load(),
			IndexDeletes:       m.Object.IndexDeletes.Load(),
			CacheHits:          m.Object.CacheHits.Load(),
			CacheMisses:        m.Object.CacheMisses.Load(),
			CacheInvalidations: m.Object.CacheInvalidations.Load(),
			CacheEvictions:     m.Object.CacheEvictions.Load(),
		},
		Query: QueryStats{
			Foralls:            m.Query.Foralls.Load(),
			PlanExtentScan:     m.Query.PlanExtentScan.Load(),
			PlanIndexRange:     m.Query.PlanIndexRange.Load(),
			Joins:              m.Query.Joins.Load(),
			PlanJoinNestedLoop: m.Query.PlanJoinNestedLoop.Load(),
			PlanJoinIndexNL:    m.Query.PlanJoinIndexNL.Load(),
			PlanJoinHash:       m.Query.PlanJoinHash.Load(),
			RowsScanned:        m.Query.RowsScanned.Load(),
			RowsYielded:        m.Query.RowsYielded.Load(),
			FixpointRounds:     m.Query.FixpointRounds.Load(),
		},
		Trigger: TriggerStats{
			Activations:  m.Trigger.Activations.Load(),
			Firings:      m.Trigger.Firings.Load(),
			Timeouts:     m.Trigger.Timeouts.Load(),
			ActionErrors: m.Trigger.ActionErrors.Load(),
		},
	}
}

// NewMetrics builds the engine metric set and registers every metric
// under its canonical name. reg may be nil for an unregistered set.
func NewMetrics(reg *Registry) *Metrics {
	m := &Metrics{}
	for _, e := range []struct {
		name string
		m    metric
	}{
		{"pool.hits", &m.Pool.Hits},
		{"pool.misses", &m.Pool.Misses},
		{"pool.evictions", &m.Pool.Evictions},
		{"pool.pins", &m.Pool.Pins},
		{"pool.pinned", &m.Pool.Pinned},
		{"pool.shards", &m.Pool.Shards},
		{"storage.page_reads", &m.Storage.PageReads},
		{"storage.page_writes", &m.Storage.PageWrites},
		{"storage.dw_flushes", &m.Storage.DWFlushes},
		{"storage.compactions", &m.Storage.Compactions},
		{"storage.pages_reclaimed", &m.Storage.PagesReclaimed},
		{"wal.appends", &m.WAL.Appends},
		{"wal.append_bytes", &m.WAL.AppendBytes},
		{"wal.fsyncs", &m.WAL.Fsyncs},
		{"wal.fsync_ns", &m.WAL.FsyncNS},
		{"wal.auto_checkpoints", &m.WAL.AutoCheckpoints},
		{"wal.backpressure_stalls", &m.WAL.BackpressureStalls},
		{"wal.group_commits", &m.WAL.GroupCommits},
		{"wal.group_commit_size", &m.WAL.GroupCommitSize},
		{"txn.begins", &m.Txn.Begins},
		{"txn.commits", &m.Txn.Commits},
		{"txn.aborts", &m.Txn.Aborts},
		{"txn.read_only_ends", &m.Txn.ReadOnlyEnds},
		{"txn.constraint_violations", &m.Txn.ConstraintViolations},
		{"txn.lock_grants", &m.Txn.LockGrants},
		{"txn.lock_waits", &m.Txn.LockWaits},
		{"txn.lock_wait_timeouts", &m.Txn.LockWaitTimeouts},
		{"txn.deadlocks", &m.Txn.Deadlocks},
		{"txn.cancels", &m.Txn.Cancels},
		{"txn.admission_waits", &m.Txn.AdmissionWaits},
		{"txn.admission_rejects", &m.Txn.AdmissionRejects},
		{"txn.admission_active", &m.Txn.AdmissionActive},
		{"txn.admission_queued", &m.Txn.AdmissionQueued},
		{"txn.prepared_total", &m.Txn.PreparedTotal},
		{"txn.prepared_commits", &m.Txn.PreparedCommits},
		{"txn.prepared_aborts", &m.Txn.PreparedAborts},
		{"txn.prepared_timeouts", &m.Txn.PreparedTimeouts},
		{"txn.prepared_indoubt", &m.Txn.PreparedInDoubt},
		{"txn.commit_ns", &m.Txn.CommitNS},
		{"object.creates", &m.Object.Creates},
		{"object.updates", &m.Object.Updates},
		{"object.deletes", &m.Object.Deletes},
		{"object.index_puts", &m.Object.IndexPuts},
		{"object.index_deletes", &m.Object.IndexDeletes},
		{"object.cache_hits", &m.Object.CacheHits},
		{"object.cache_misses", &m.Object.CacheMisses},
		{"object.cache_invalidations", &m.Object.CacheInvalidations},
		{"object.cache_evictions", &m.Object.CacheEvictions},
		{"query.foralls", &m.Query.Foralls},
		{"query.plan_extent_scan", &m.Query.PlanExtentScan},
		{"query.plan_index_range", &m.Query.PlanIndexRange},
		{"query.joins", &m.Query.Joins},
		{"query.plan_join_nested_loop", &m.Query.PlanJoinNestedLoop},
		{"query.plan_join_index_nl", &m.Query.PlanJoinIndexNL},
		{"query.plan_join_hash", &m.Query.PlanJoinHash},
		{"query.rows_scanned", &m.Query.RowsScanned},
		{"query.rows_yielded", &m.Query.RowsYielded},
		{"query.fixpoint_rounds", &m.Query.FixpointRounds},
		{"trigger.activations", &m.Trigger.Activations},
		{"trigger.firings", &m.Trigger.Firings},
		{"trigger.timeouts", &m.Trigger.Timeouts},
		{"trigger.action_errors", &m.Trigger.ActionErrors},
	} {
		reg.register(e.name, e.m)
	}
	return m
}
