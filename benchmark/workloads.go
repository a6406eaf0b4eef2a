package main

import (
	"fmt"

	"ode"
)

// clients is the number of closed-loop client goroutines. It is fixed
// here, not derived from the host's CPU count, so runs compare across
// hosts.
const clients = 2

// workload is one named traffic mix on one deployment shape.
type workload struct {
	name  string
	shape string
	why   string // one line, repeated in BENCHMARK.json
	data  dataset
	opts  ode.Options // on top of the flush policy every timed window shares
	// loadPool, when set, is the pool the dataset is loaded through
	// before the database is reopened under opts: loading through a
	// pool a tenth of the data would spend set-up on eviction fsyncs.
	loadPool int
	mix      []share

	skewed   bool // kPoints reads 80 % from the hot tenth instead of uniformly
	shared   int  // items [0, shared) belong to no worker: kTransfer's contended set
	armedPer int  // trigger-armed items per worker
	xferPer  int  // items per worker that kTransfer moves qty between (exact model)

	// check names what is wrong with a timed window's counters, if the
	// workload has stopped exercising what it exists for.
	check func(c counters) string
}

var workloads = []*workload{
	{
		name:  "emb-hot",
		shape: shapeEmbedded,
		why:   "cache-resident reads, embedded: the ode/txn/object hit path with wire, wal, btree and storage idle",
		data:  dataset{stock: 1500, chain: 1800, dagDepth: 5, dagWidth: 30, dagFan: 3},
		mix:   []share{{kWalk, 60}, {kBatch, 30}, {kBOM, 10}},
		check: func(c counters) string {
			if r := ratio(c["object.cache_hits"], c["object.cache_hits"]+c["object.cache_misses"]); r < 0.99 {
				return fmt.Sprintf("object cache hit ratio %.4f < 0.99: the dataset no longer fits the cache", r)
			}
			return ""
		},
	},
	{
		name:     "emb-cold",
		shape:    shapeEmbedded,
		why:      "data 10x the buffer pool and 7x the object cache: btree descent, page miss/evict and decode do the work",
		data:     dataset{stock: 30000, namePad: 160},
		opts:     ode.Options{PoolPages: 128},
		loadPool: 4096,
		// Read-only: every page an update dirties is later evicted
		// through the double-write buffer, two fsyncs a page, paid by
		// whichever reader needs the frame. At 2 % of updates half the
		// window was this sandbox's disk (README.md, Departures).
		mix: []share{{kPoints, 100}},
		check: func(c counters) string {
			if r := ratio(c["pool.hits"], c["pool.hits"]+c["pool.misses"]); r >= 0.9 {
				return fmt.Sprintf("pool hit ratio %.4f >= 0.9: the dataset is no longer larger than the pool", r)
			}
			return ""
		},
	},
	{
		name:  "emb-write",
		shape: shapeEmbedded,
		why:   "every unit commits: update, create, delete, version, trigger and contended transfer, with auto-checkpoints",
		data:  dataset{stock: 4000, indexQty: true, armed: true},
		// Small enough that several automatic checkpoints fall inside
		// every timed window.
		opts: ode.Options{WALSoftLimit: 512 << 10},
		mix: []share{{kUpdate, 40}, {kNew, 15}, {kDelete, 15}, {kVersion, 10},
			{kTrigger, 15}, {kTransfer, 5}},
		shared:   16,
		armedPer: 200,
		check: func(c counters) string {
			if n := c["wal.auto_checkpoints"]; n < 3 {
				return fmt.Sprintf("%.0f auto-checkpoints < 3 in the timed window", n)
			}
			return ""
		},
	},
	{
		name:  "rem-chase",
		shape: shapeRemote,
		why:   "emb-hot's data over one server: a round trip per hop, so client/wire/server dispatch dominate",
		data:  dataset{stock: 1500, chain: 1800, dagDepth: 5, dagWidth: 30, dagFan: 3},
		mix:   []share{{kWalk, 70}, {kBOM, 20}, {kBatch, 10}},
	},
	{
		name:  "rem-scan",
		shape: shapeRemote,
		why:   "few round trips, many bytes: counts, indexed collects, early-stopped foralls and pipelined creates",
		data:  dataset{stock: 2000, indexQty: true},
		mix:   []share{{kCount, 50}, {kCollect, 20}, {kFirst, 20}, {kNewBatch, 10}},
	},
	{
		name:    "shard-mix",
		shape:   shapeSharded,
		why:     "3 shards behind the router: skewed views, single-shard updates, 2PC transfers, scatter-gather scans",
		data:    dataset{stock: 6000, indexQty: true},
		mix:     []share{{kPoints, 50}, {kUpdate, 20}, {kTransfer, 15}, {kCount, 10}, {kCollect, 5}},
		skewed:  true,
		xferPer: 600,
	},
}

func workloadNamed(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
