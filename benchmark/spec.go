package main

// metricSpec names one reported metric. The lists below are the
// benchmark's contract with BENCHMARK.json: TestSmoke fails when either
// side names a metric the other does not.
type metricSpec struct {
	name, unit string
}

// endToEnd is what a caller of the system sees. Every workload reports
// every one of them, and none is ever 0, so each can carry a regression
// bound in BENCHMARK.json.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"txn_per_s", "1/s"},
	{"txn_p50_us", "us"},
	{"cpu_us_per_txn", "us"},
	{"peak_rss_mb", "MB"},
}

// perLayer is the traced run's report. A metric whose layer is idle on a
// workload (wire on an embedded shape, wal on a read-only mix) reads 0;
// a percentile with too few samples reads 0 rather than a guess.
var perLayer = []metricSpec{
	// The end-to-end numbers over the whole window, background work and
	// the host's interference included, where the bounded ones above are
	// over its quiet slices.
	{"window.txn_per_s", "1/s"},
	{"window.cpu_us_per_txn", "us"},
	// The end-to-end numbers that do not exist on every workload, or
	// that no run on a shared host repeats within a bound (the tails).
	{"txn_p95_us", "us"},
	{"txn_p99_us", "us"},
	{"rtxn_p50_us", "us"},
	{"rtxn_p99_us", "us"},
	{"wtxn_p50_us", "us"},
	{"wtxn_p99_us", "us"},
	{"fail_ratio", "ratio"},
	{"wire_bytes_per_txn", "B"},
	{"wal_bytes_per_user_byte", "ratio"},
	{"file_bytes_per_live_byte", "ratio"},

	{"ode.begin_us", "us"},
	{"ode.deref_us", "us"},
	{"ode.update_us", "us"},
	{"ode.commit_us", "us"},

	{"client.begin_us", "us"},
	{"client.deref_us", "us"},
	{"client.commit_us", "us"},
	{"client.cache_hit_ratio", "ratio"},
	{"client.requests_per_txn", "count"},
	{"client.shard.cross_commit_ratio", "ratio"},
	{"client.shard.scatter_per_txn", "count"},
	{"client.shard.vs_single_ratio", "ratio"},
	{"client.shard.indoubt", "count"},

	{"wire.frame_roundtrip_ns", "ns"},
	{"wire.bytes_in_per_txn", "B"},
	{"wire.bytes_out_per_txn", "B"},
	{"wire.bytes_per_row", "B"},
	{"wire.rtt_us", "us"},

	{"server.begin_us", "us"},
	{"server.deref_us", "us"},
	{"server.commit_us", "us"},
	{"server.forall_us", "us"},
	{"server.dispatch_us", "us"},
	{"server.sheds", "count"},

	{"txn.commit_engine_us", "us"},
	{"txn.lock_waits_per_txn", "count"},
	{"txn.deadlocks_per_txn", "count"},
	{"txn.retry_ratio", "ratio"},
	{"txn.prepared_per_txn", "count"},

	{"object.cache_hit_ratio", "ratio"},
	{"object.cache_evictions_per_txn", "count"},
	{"object.cache_invalidations_per_txn", "count"},
	{"object.index_puts_per_txn", "count"},
	{"object.encode_ns", "ns"},
	{"object.decode_ns", "ns"},

	{"query.rows_scanned_per_yield", "ratio"},
	{"query.index_plan_ratio", "ratio"},
	{"query.foralls_per_txn", "count"},
	{"query.scan_ns_per_row", "ns"},

	{"btree.get_ns", "ns"},
	{"btree.put_ns", "ns"},
	{"btree.delete_ns", "ns"},
	{"btree.pages_per_get", "count"},

	{"storage.pool_hit_ratio", "ratio"},
	{"storage.pool_evictions_per_txn", "count"},
	{"storage.page_reads_per_txn", "count"},
	{"storage.page_writes_per_txn", "count"},
	{"storage.dw_flushes_per_txn", "count"},
	{"storage.pins_per_deref", "count"},
	{"storage.fetch_hit_ns", "ns"},
	{"storage.fetch_miss_us", "us"},

	{"wal.bytes_per_commit", "B"},
	{"wal.appends_per_commit", "count"},
	{"wal.stage_ns", "ns"},
	{"wal.auto_checkpoints", "count"},
	{"wal.checkpoint_ms", "ms"},
	{"wal.backpressure_stalls", "count"},
	{"wal.fsyncs_per_commit", "ratio"},
	{"wal.group_size", "count"},
	{"wal.fsync_us", "us"},
	{"wal.recover_ms", "ms"},

	{"version.newversion_us", "us"},
	{"version.derefversion_us", "us"},
	{"trigger.update_us", "us"},
	{"trigger.firings_per_txn", "count"},

	{"process.allocs_per_txn", "count"},
	{"process.gc_pause_ms", "ms"},
	{"process.trace_overhead_ratio", "ratio"},
}

// metrics is one run's report, keyed by metric name.
type metrics map[string]float64
