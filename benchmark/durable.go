package main

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"
)

// durableCommits is the number of unit transactions each client commits
// in each part of the durable phase.
const durableCommits = 300

// durable is what the durable phase measured. The counts are exact for
// one client: they do not depend on how fast the disk is.
type durable struct {
	fsyncsPerCommit float64 // one client: log fsyncs per engine commit
	groupSize       float64 // two clients: commits covered by one shared fsync
	fsyncUS         float64 // mean log fsync, this host's disk
	recoverMS       float64 // reopening after the crash
	attempted       int64
	failed          int64
	problems        []string
}

// durablePhase is the one place the benchmark runs with fsync on. The
// write mix commits a fixed number of units from one client, then from
// each of two; the database is then crashed (file handles dropped, no
// checkpoint, no clean-shutdown mark) and reopened, and every write a
// commit acknowledged must be there.
func durablePhase(wl *workload, dir string, seed int64, commits int) (*durable, error) {
	opts := wl.options()
	opts.NoSync = false
	opts.WALSoftLimit = 0 // no background checkpoint between the counted fsyncs
	e, err := setUp(wl, dir, seed, shapeEmbedded, opts)
	if err != nil {
		return nil, err
	}
	d := &durable{}
	commit := func(ks ...*worker) counters {
		before := e.dep.counters()
		var wg sync.WaitGroup
		for _, k := range ks {
			wg.Add(1)
			go func(k *worker) {
				defer wg.Done()
				for i := 0; i < commits; i++ {
					k.run(k.gen.next())
				}
			}(k)
		}
		wg.Wait()
		return e.dep.counters().sub(before)
	}
	one := commit(e.workers[0])
	two := commit(e.workers...)
	d.fsyncsPerCommit = ratio(one["wal.fsyncs"], one["txn.commits"])
	d.groupSize = ratio(two["wal.group_commit_size"], two["wal.group_commits"])
	d.fsyncUS = ratio(one["wal.fsync_ns.sum"]+two["wal.fsync_ns.sum"], one["wal.fsync_ns.count"]+two["wal.fsync_ns.count"]) / 1e3

	for _, db := range e.dep.dbs {
		db.CrashForTesting()
	}
	if err := e.dep.shutdown(); err != nil {
		return nil, err
	}
	start := time.Now()
	again, err := deploy(shapeEmbedded, filepath.Join(dir, shapeEmbedded), opts)
	if err != nil {
		return nil, fmt.Errorf("reopen after crash: %w", err)
	}
	d.recoverMS = float64(time.Since(start)) / 1e6
	defer again.close()

	checks, bad, verr := verify(again.st, again.sc, e.w, wl, e.workers)
	d.attempted, d.failed = checks, bad
	if verr != nil {
		d.problems = append(d.problems, "after crash: "+verr.Error())
	}
	for _, k := range e.workers {
		d.attempted += k.attempted
		d.failed += k.failed
		if k.firstErr != nil {
			d.problems = append(d.problems, "durable phase: "+k.firstErr.Error())
		}
	}
	return d, nil
}
