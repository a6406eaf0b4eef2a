package main

import (
	"fmt"
	"io"
	"path/filepath"
	"time"
)

// refWindow is how long a traced run measures each reference it compares
// the workload with (the embedded replay, the single server).
const refWindow = 1500 * time.Millisecond

// runTraced is the per-layer run. It measures half the window untraced
// and half traced on the same deployment, so the ratio of the two rates
// is the tracing overhead; diffs the public registries over both halves;
// and then takes the measurements only some workloads have: an embedded
// replay behind a server (what share of a remote call is the engine), a
// single-server replay of the sharded mix, the durable phase of the
// write mix.
func runTraced(wl *workload, cfg config, out io.Writer) (*report, error) {
	r := &report{wl: wl, m: metrics{}, samples: map[string]int{}}
	// Probes go first, while the process is quiet and its heap small.
	probes, err := runProbes(filepath.Join(cfg.dir, "probes"), cfg.smoke)
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	e, err := setUp(wl, filepath.Join(cfg.dir, "traced"), cfg.seed, wl.shape, wl.options())
	if err != nil {
		return nil, err
	}
	defer e.dep.close()

	ref, commits := refWindow, durableCommits
	if cfg.smoke {
		ref, commits = 300*time.Millisecond, 30
	}
	plain := e.run(cfg.warmup, cfg.window()/2, false)
	traced := e.run(0, cfg.window()/2, true)
	tt := sumTraces(traced.traces)
	if err := writeTrace(filepath.Join(cfg.traceDir, "trace-"+wl.name+".json"), e.dep.st.layer(), traced.traces); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}

	// What the engine alone costs for the same units, measured on the
	// server's own database with the server idle.
	var engine *traceTotals
	if wl.shape == shapeRemote {
		st, sc := e.dep.embedded()
		e.use(st, sc)
		engine = sumTraces(e.run(0, ref, true).traces)
		e.use(e.dep.st, e.dep.sc)
	}

	ctr := counters{}
	for k, v := range plain.ctr {
		ctr[k] = v + traced.ctr[k]
	}
	units := plain.units() + traced.units()
	m := r.m
	for name, v := range probes {
		m[name] = v
	}

	r.finish(e, ctr, cfg)
	fileBytes, ckpt, err := e.dep.fileBytes()
	if err != nil {
		return nil, fmt.Errorf("final checkpoint: %w", err)
	}
	live := e.w.live
	for _, k := range e.workers {
		live += k.liveBytes
	}

	// The end-to-end numbers that only some workloads have.
	for _, c := range []struct {
		name          string
		reads, writes bool
		q             float64
	}{
		{"txn_p95_us", true, true, 0.95}, {"txn_p99_us", true, true, 0.99},
		{"rtxn_p50_us", true, false, 0.50}, {"rtxn_p99_us", true, false, 0.99},
		{"wtxn_p50_us", false, true, 0.50}, {"wtxn_p99_us", false, true, 0.99},
	} {
		lat := merged(plain.recs, plain.all(), c.reads, c.writes)
		if v, ok := percentile(lat, c.q); ok {
			m[c.name] = v / 1e3
			r.samples[c.name] = len(lat)
		}
	}
	m["window.txn_per_s"] = plain.rate(plain.all())
	m["window.cpu_us_per_txn"] = plain.cpuPerUnit(plain.all())
	m["fail_ratio"] = ratio(float64(r.failed), float64(r.attempted))
	m["wire_bytes_per_txn"] = ratio(ctr["server.bytes_in"]+ctr["server.bytes_out"], units)
	m["wal_bytes_per_user_byte"] = ratio(ctr["wal.append_bytes"], float64(plain.userBytes+traced.userBytes))
	m["file_bytes_per_live_byte"] = ratio(float64(fileBytes), float64(live))

	// Spans: the top layer's own calls, and the engine's where known.
	top := "ode"
	if wl.shape != shapeEmbedded {
		top = "client"
	}
	m[top+".begin_us"] = tt.op(opBegin).meanUS()
	m[top+".deref_us"] = tt.op(opDeref).meanUS()
	m[top+".commit_us"] = tt.op(opCommit).meanUS()
	if top == "ode" {
		m["ode.update_us"] = tt.op(opUpdate).meanUS()
	} else if engine != nil {
		m["ode.begin_us"] = engine.op(opBegin).meanUS()
		m["ode.deref_us"] = engine.op(opDeref).meanUS()
		m["ode.update_us"] = engine.op(opUpdate).meanUS()
		m["ode.commit_us"] = engine.op(opCommit).meanUS()
	}
	m["version.newversion_us"] = tt.op(opNewVersion).meanUS()
	m["version.derefversion_us"] = tt.op(opDerefVersion).meanUS()
	m["trigger.update_us"] = tt.calls[kTrigger][opCommit].meanUS()

	// Registry deltas, per unit transaction.
	per := func(name string) float64 { return ratio(ctr[name], units) }
	hist := func(name string) float64 { return ratio(ctr[name+".sum"], ctr[name+".count"]) / 1e3 }
	m["client.cache_hit_ratio"] = ratio(ctr["client.cache_hits"], ctr["client.cache_hits"]+ctr["client.cache_misses"])
	m["client.requests_per_txn"] = per("server.requests")
	m["client.shard.cross_commit_ratio"] = ratio(ctr["client.shard.cross_commits"],
		ctr["client.shard.cross_commits"]+ctr["client.shard.single_commits"])
	m["client.shard.scatter_per_txn"] = per("client.shard.scatter_scans")
	m["client.shard.indoubt"] = ctr["client.shard.indoubt"]
	m["wire.bytes_in_per_txn"] = per("server.bytes_in")
	m["wire.bytes_out_per_txn"] = per("server.bytes_out")
	m["server.begin_us"] = hist("server.req_ns.begin")
	m["server.commit_us"] = hist("server.req_ns.commit")
	m["server.forall_us"] = hist("server.req_ns.forall")
	// A deref of an object the client holds travels as a revalidation,
	// which the server times under "other"; nothing else in a timed
	// window lands there.
	m["server.deref_us"] = ratio(ctr["server.req_ns.deref.sum"]+ctr["server.req_ns.other.sum"],
		ctr["server.req_ns.deref.count"]+ctr["server.req_ns.other.count"]) / 1e3
	m["server.sheds"] = ctr["server.sheds"]
	if wl.shape != shapeEmbedded && ctr["query.rows_yielded"] > 0 {
		m["wire.bytes_per_row"] = ratio(ctr["server.bytes_out"], ctr["query.rows_yielded"])
	}
	m["txn.commit_engine_us"] = hist("txn.commit_ns")
	m["txn.lock_waits_per_txn"] = per("txn.lock_waits")
	m["txn.deadlocks_per_txn"] = per("txn.deadlocks")
	m["txn.retry_ratio"] = ratio(float64(plain.retries+traced.retries), units)
	m["txn.prepared_per_txn"] = per("txn.prepared_total")
	gets := ctr["object.cache_hits"] + ctr["object.cache_misses"]
	m["object.cache_hit_ratio"] = ratio(ctr["object.cache_hits"], gets)
	m["object.cache_evictions_per_txn"] = per("object.cache_evictions")
	m["object.cache_invalidations_per_txn"] = per("object.cache_invalidations")
	m["object.index_puts_per_txn"] = per("object.index_puts")
	m["query.rows_scanned_per_yield"] = ratio(ctr["query.rows_scanned"], ctr["query.rows_yielded"])
	m["query.index_plan_ratio"] = ratio(ctr["query.plan_index_range"], ctr["query.foralls"])
	m["query.foralls_per_txn"] = per("query.foralls")
	m["storage.pool_hit_ratio"] = ratio(ctr["pool.hits"], ctr["pool.hits"]+ctr["pool.misses"])
	m["storage.pool_evictions_per_txn"] = per("pool.evictions")
	m["storage.page_reads_per_txn"] = per("storage.page_reads")
	m["storage.page_writes_per_txn"] = per("storage.page_writes")
	m["storage.dw_flushes_per_txn"] = per("storage.dw_flushes")
	m["storage.pins_per_deref"] = ratio(ctr["pool.pins"], gets)
	m["wal.bytes_per_commit"] = ratio(ctr["wal.append_bytes"], ctr["wal.appends"])
	m["wal.appends_per_commit"] = ratio(ctr["wal.appends"], ctr["txn.commits"])
	m["wal.auto_checkpoints"] = ctr["wal.auto_checkpoints"]
	m["wal.checkpoint_ms"] = float64(ckpt) / 1e6
	m["wal.backpressure_stalls"] = ctr["wal.backpressure_stalls"]
	m["trigger.firings_per_txn"] = per("trigger.firings")
	m["process.allocs_per_txn"] = ratio(plain.mallocs+traced.mallocs, units)
	m["process.gc_pause_ms"] = float64(plain.gcPause+traced.gcPause) / 1e6
	m["process.trace_overhead_ratio"] = ratio(traced.rate(traced.quiet()), plain.rate(plain.quiet()))

	switch {
	case engine != nil:
		// One remote deref = the engine's deref + what the server adds
		// around it + everything between the client's call and the
		// server's timer (both codecs, both kernels' loopback).
		walk, walkEngine := tt.calls[kWalk][opDeref], engine.calls[kWalk][opDeref]
		if walk.n == 0 { // a mix without walks: use every deref
			walk, walkEngine = tt.op(opDeref), engine.op(opDeref)
		}
		if walk.n > 0 {
			m["wire.rtt_us"] = walk.meanUS() - m["server.deref_us"]
			m["server.dispatch_us"] = m["server.deref_us"] - walkEngine.meanUS()
		}
		printRemoteGaps(out, wl, tt, engine, m, walk, walkEngine)
	case wl.shape == shapeSharded:
		one, err := setUp(wl, filepath.Join(cfg.dir, "single"), cfg.seed, shapeRemote, wl.options())
		if err != nil {
			return nil, fmt.Errorf("single-server reference: %w", err)
		}
		single := one.run(cfg.warmup/2, ref, true)
		err = one.dep.close()
		if err != nil {
			return nil, err
		}
		m["client.shard.vs_single_ratio"] = ratio(traced.rate(traced.quiet()), single.rate(single.quiet()))
		printShardGap(out, wl, tt, sumTraces(single.traces), m)
	case wl.data.armed:
		d, err := durablePhase(wl, filepath.Join(cfg.dir, "durable"), cfg.seed, commits)
		if err != nil {
			return nil, fmt.Errorf("durable phase: %w", err)
		}
		m["wal.fsyncs_per_commit"] = d.fsyncsPerCommit
		m["wal.group_size"] = d.groupSize
		m["wal.fsync_us"] = d.fsyncUS
		m["wal.recover_ms"] = d.recoverMS
		r.attempted += d.attempted
		r.failed += d.failed
		r.problems = append(r.problems, d.problems...)
	}

	return r, nil
}

// printRemoteGaps prints the attribution of the two embedded-to-remote
// gaps: one deref, and one whole walk unit.
func printRemoteGaps(out io.Writer, wl *workload, remote, engine *traceTotals, m metrics, hop, hopEngine total) {
	if hop.n > 0 {
		fmt.Fprintf(out, "# %s: where a remote deref's time goes (us per deref)\n", wl.name)
		fmt.Fprintf(out, "  %-34s %9.2f\n", "client.deref_us (caller sees)", hop.meanUS())
		fmt.Fprintf(out, "  %-34s %9.2f  %5.1f%%\n", "ode (same deref, embedded)", hopEngine.meanUS(), 100*ratio(hopEngine.meanUS(), hop.meanUS()))
		fmt.Fprintf(out, "  %-34s %9.2f  %5.1f%%\n", "server.dispatch_us", m["server.dispatch_us"], 100*ratio(m["server.dispatch_us"], hop.meanUS()))
		fmt.Fprintf(out, "  %-34s %9.2f  %5.1f%%\n", "wire.rtt_us (client+wire+kernel)", m["wire.rtt_us"], 100*ratio(m["wire.rtt_us"], hop.meanUS()))
		fmt.Fprintf(out, "  of wire.rtt_us, one frame's encode+decode by probe: %.2f us\n", m["wire.frame_roundtrip_ns"]/1e3)
	}

	for k := kind(0); k < numKinds; k++ {
		r, e := remote.units[k], engine.units[k]
		if r.n == 0 || e.n == 0 {
			continue
		}
		fmt.Fprintf(out, "# %s: one %s unit, embedded -> remote (us per unit)\n", wl.name, kindNames[k])
		fmt.Fprintf(out, "  %-14s %10s %10s %10s\n", "", "embedded", "remote", "added")
		row := func(name string, ev, rv float64) {
			fmt.Fprintf(out, "  %-14s %10.2f %10.2f %10.2f\n", name, ev, rv, rv-ev)
		}
		row("unit", e.meanUS(), r.meanUS())
		for o := op(0); o < numOps; o++ {
			rc, ec := remote.calls[k][o], engine.calls[k][o]
			if rc.n == 0 && ec.n == 0 {
				continue
			}
			row(opNames[o], float64(ec.ns)/float64(e.n)/1e3, float64(rc.ns)/float64(r.n)/1e3)
		}
		row("benchmark self", float64(engine.self[k])/float64(e.n)/1e3, float64(remote.self[k])/float64(r.n)/1e3)
	}
}

// printShardGap prints each kind of unit on three shards against the
// same unit on one server, with the calls that make the difference.
func printShardGap(out io.Writer, wl *workload, sharded, single *traceTotals, m metrics) {
	fmt.Fprintf(out, "# %s: sharded vs single server, txn_per_s ratio %.3f (us per unit)\n", wl.name, m["client.shard.vs_single_ratio"])
	fmt.Fprintf(out, "  %-10s %-8s %10s %10s %10s\n", "unit", "call", "single", "sharded", "added")
	for k := kind(0); k < numKinds; k++ {
		s, o := sharded.units[k], single.units[k]
		if s.n == 0 || o.n == 0 {
			continue
		}
		fmt.Fprintf(out, "  %-10s %-8s %10.2f %10.2f %10.2f\n", kindNames[k], "unit", o.meanUS(), s.meanUS(), s.meanUS()-o.meanUS())
		for c := op(0); c < numOps; c++ {
			sc, oc := sharded.calls[k][c], single.calls[k][c]
			if sc.n == 0 && oc.n == 0 {
				continue
			}
			sv, ov := float64(sc.ns)/float64(s.n)/1e3, float64(oc.ns)/float64(o.n)/1e3
			fmt.Fprintf(out, "  %-10s %-8s %10.2f %10.2f %10.2f\n", "", opNames[c], ov, sv, sv-ov)
		}
	}
}
