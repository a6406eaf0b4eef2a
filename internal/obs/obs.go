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
	"reflect"
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

var metricType = reflect.TypeFor[metric]()

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
// It exists for metric sources whose names are built at run time — the
// process-global failpoint sites, one pair of counters per site.
// Duplicate names panic, as with Attach.
func (r *Registry) RegisterCounter(name string, c *Counter) { r.register(name, c) }

// Attach registers every metric field of set, a pointer to a struct,
// under the canonical name in the field's `metric` tag, and walks the
// exported fields that are structs in turn. A Counter, Gauge or
// Histogram field with no tag panics, as does a name already
// registered: a metric left unnamed would never be exported. A nil
// registry registers nothing but checks the tags all the same.
func (r *Registry) Attach(set any) {
	v := reflect.ValueOf(set).Elem()
	for i := 0; i < v.NumField(); i++ {
		f, sf := v.Field(i).Addr(), v.Type().Field(i)
		switch {
		case f.Type().Implements(metricType):
			name := sf.Tag.Get("metric")
			if name == "" {
				panic("obs: metric " + v.Type().String() + "." + sf.Name + " has no metric tag")
			}
			r.register(name, f.Interface().(metric))
		case sf.Type.Kind() == reflect.Struct && sf.IsExported():
			r.Attach(f.Interface())
		}
	}
}

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
	Hits      Counter `metric:"pool.hits"`      // Fetch served from a resident frame
	Misses    Counter `metric:"pool.misses"`    // Fetch that had to read the page from disk
	Evictions Counter `metric:"pool.evictions"` // frames reclaimed by LRU replacement
	Pins      Counter `metric:"pool.pins"`      // page pin acquisitions (Fetch + NewPage)
	Pinned    Gauge   `metric:"pool.pinned"`    // frames currently pinned
	Shards    Gauge   `metric:"pool.shards"`    // lock stripes the pool was built with
}

// StorageMetrics instruments the page file and double-write buffer.
type StorageMetrics struct {
	PageReads      Counter `metric:"storage.page_reads"`      // pages read from the data file
	PageWrites     Counter `metric:"storage.page_writes"`     // pages written to the data file
	DWFlushes      Counter `metric:"storage.dw_flushes"`      // double-write buffer stagings (torn-page fences)
	Compactions    Counter `metric:"storage.compactions"`     // DB.Compact passes completed
	PagesReclaimed Counter `metric:"storage.pages_reclaimed"` // heap pages returned to the free list by compaction
}

// WALMetrics instruments the write-ahead log.
type WALMetrics struct {
	Appends            Counter   `metric:"wal.appends"`             // commit batches appended
	AppendBytes        Counter   `metric:"wal.append_bytes"`        // bytes appended (records + commit markers)
	Fsyncs             Counter   `metric:"wal.fsyncs"`              // log fsyncs issued
	FsyncNS            Histogram `metric:"wal.fsync_ns"`            // log fsync latency
	AutoCheckpoints    Counter   `metric:"wal.auto_checkpoints"`    // checkpoints triggered by the WAL soft limit
	BackpressureStalls Counter   `metric:"wal.backpressure_stalls"` // commits stalled by the WAL hard limit
	GroupCommits       Counter   `metric:"wal.group_commits"`       // shared fsyncs issued by group-commit leaders
	GroupCommitSize    Counter   `metric:"wal.group_commit_size"`   // commits covered by those fsyncs (avg group = size/commits)
}

// TxnMetrics instruments the transaction engine and lock manager.
type TxnMetrics struct {
	Begins               Counter   `metric:"txn.begins"`                // transactions started
	Commits              Counter   `metric:"txn.commits"`               // transactions committed
	Aborts               Counter   `metric:"txn.aborts"`                // transactions that ended uncommitted with a write set to discard (incl. deadlock victims)
	ReadOnlyEnds         Counter   `metric:"txn.read_only_ends"`        // transactions that ended uncommitted with no write set (View, read-only aborts)
	ConstraintViolations Counter   `metric:"txn.constraint_violations"` // commits rejected by class constraints
	LockGrants           Counter   `metric:"txn.lock_grants"`           // fresh lock grants (rows and clusters), added at release
	LockWords            Counter   `metric:"txn.lock_words"`            // lock words inserted into the lock table (a resident word is not), added at release
	LockWaits            Counter   `metric:"txn.lock_waits"`            // lock requests that had to block
	LockWaitTimeouts     Counter   `metric:"txn.lock_wait_timeouts"`    // lock waits abandoned by deadline or cancellation
	Deadlocks            Counter   `metric:"txn.deadlocks"`             // waits-for cycles detected
	Cancels              Counter   `metric:"txn.cancels"`               // transactions that failed on an expired/cancelled context
	AdmissionWaits       Counter   `metric:"txn.admission_waits"`       // Begin calls that queued for an admission slot
	AdmissionRejects     Counter   `metric:"txn.admission_rejects"`     // Begin calls rejected with ErrOverloaded
	AdmissionActive      Gauge     `metric:"txn.admission_active"`      // transactions currently holding an admission slot
	AdmissionQueued      Gauge     `metric:"txn.admission_queued"`      // Begin calls currently waiting for a slot
	PreparedTotal        Counter   `metric:"txn.prepared_total"`        // two-phase commits prepared (votes logged)
	PreparedCommits      Counter   `metric:"txn.prepared_commits"`      // prepared transactions committed by decision
	PreparedAborts       Counter   `metric:"txn.prepared_aborts"`       // prepared transactions aborted by decision
	PreparedTimeouts     Counter   `metric:"txn.prepared_timeouts"`     // prepared transactions aborted by the orphan timeout
	PreparedInDoubt      Gauge     `metric:"txn.prepared_indoubt"`      // prepared transactions currently awaiting a decision
	CommitNS             Histogram `metric:"txn.commit_ns"`             // Commit() latency (constraint checks through log+apply)
}

// ObjectMetrics instruments the object manager.
type ObjectMetrics struct {
	Creates            Counter `metric:"object.creates"`             // persistent objects created (pnew)
	Updates            Counter `metric:"object.updates"`             // object images replaced in place
	Deletes            Counter `metric:"object.deletes"`             // persistent objects deleted (pdelete)
	IndexPuts          Counter `metric:"object.index_puts"`          // secondary-index entries inserted
	IndexDeletes       Counter `metric:"object.index_deletes"`       // secondary-index entries removed
	CacheHits          Counter `metric:"object.cache_hits"`          // Gets served from the decoded-object cache
	CacheMisses        Counter `metric:"object.cache_misses"`        // Gets that fetched and decoded from the heap
	CacheInvalidations Counter `metric:"object.cache_invalidations"` // cache entries dropped by update/delete
	CacheEvictions     Counter `metric:"object.cache_evictions"`     // cache entries dropped by the size bound
}

// QueryMetrics instruments the query layer: plan choices and work
// performed per forall / join / fixpoint run.
type QueryMetrics struct {
	Foralls            Counter `metric:"query.foralls"`               // forall executions
	PlanExtentScan     Counter `metric:"query.plan_extent_scan"`      // foralls answered by a cluster extent scan
	PlanIndexRange     Counter `metric:"query.plan_index_range"`      // foralls answered by an index range scan
	Joins              Counter `metric:"query.joins"`                 // join executions
	PlanJoinNestedLoop Counter `metric:"query.plan_join_nested_loop"` // joins run as plain nested loops
	PlanJoinIndexNL    Counter `metric:"query.plan_join_index_nl"`    // joins run as index nested loops
	PlanJoinHash       Counter `metric:"query.plan_join_hash"`        // joins run as hash joins
	RowsScanned        Counter `metric:"query.rows_scanned"`          // objects fetched by scans (before predicates)
	RowsYielded        Counter `metric:"query.rows_yielded"`          // objects that satisfied predicates and reached the body
	FixpointRounds     Counter `metric:"query.fixpoint_rounds"`       // delta rounds executed by fixpoint iteration
}

// TriggerMetrics instruments the trigger service.
type TriggerMetrics struct {
	Activations  Counter `metric:"trigger.activations"`   // triggers activated on objects
	Firings      Counter `metric:"trigger.firings"`       // trigger actions scheduled after commit
	Timeouts     Counter `metric:"trigger.timeouts"`      // timed triggers fired by deadline expiry
	ActionErrors Counter `metric:"trigger.action_errors"` // trigger actions that returned an error
}

// Metrics is the full engine metric set, one substruct per layer. A DB
// owns one and attaches it to its registry; layers receive a pointer to
// their substruct via SetMetrics and default to an unregistered zero
// value so library code never nil-checks. Each field's canonical name
// is its `metric` tag.
type Metrics struct {
	Pool    PoolMetrics
	Storage StorageMetrics
	WAL     WALMetrics
	Txn     TxnMetrics
	Object  ObjectMetrics
	Query   QueryMetrics
	Trigger TriggerMetrics
}
