package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"ode/internal/bench"
	"ode/internal/workload"
)

// runWorkloads is the -workload mode: the macro suite from
// internal/workload, reported as a JSON array of workload.Report rows
// (the format ci/workload_gate.sh diffs against WORKLOAD_BASELINE.json).
//
// Shape selection: by default every mix runs embedded; -connect runs
// the remote-capable mixes against the named daemons instead (one
// address: a direct session; several: the router); -loopback runs
// embedded rows and then remote rows through an in-process server (how
// the committed baseline is recorded — see ci/workload_gate.sh);
// -loopback-shards runs them through the router over in-process shards.
func runWorkloads(c *config, stdout, stderr io.Writer) int {
	// The op mix is a pure function of (seed, workers), so the worker
	// count defaults to the suite's fixed 4, not GOMAXPROCS: the same
	// command line produces the same op counts on every machine (the
	// gate asserts this against the committed baseline).
	cfg := workload.Config{Seed: c.seed, Short: c.params.Div > 1}
	if c.workersSet {
		cfg.Workers = c.params.Workers
	}
	names := workload.Names()
	if c.workloads != "all" {
		names = strings.Split(c.workloads, ",")
	}
	var mixes []*workload.Workload
	for _, name := range names {
		wl, ok := workload.Lookup(strings.TrimSpace(name))
		if !ok {
			fmt.Fprintf(stderr, "ode-bench: unknown workload %q (have: %s)\n",
				name, strings.Join(workload.Names(), ", "))
			return 2
		}
		mixes = append(mixes, wl)
	}
	reports, err := workload.RunSuite(stdout, mixes, cfg, func(wl *workload.Workload) []bench.Shape {
		switch {
		case c.params.Connect != "":
			return []bench.Shape{bench.Connect(c.params.Connect)}
		case c.loopbackShards > 1:
			return []bench.Shape{{Kind: bench.Sharded, Shards: c.loopbackShards}}
		case c.loopback && wl.RemoteOK:
			return []bench.Shape{{Opts: wl.DBOptions(cfg)}, {Kind: bench.Remote}}
		}
		return []bench.Shape{{Opts: wl.DBOptions(cfg)}}
	})
	if err == nil && c.jsonPath != "" {
		var buf []byte
		if buf, err = workload.EncodeReports(reports); err == nil {
			err = os.WriteFile(c.jsonPath, buf, 0o644)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "ode-bench:", err)
		return 1
	}
	if c.jsonPath != "" {
		fmt.Fprintf(stdout, "\nwrote %d workload rows to %s\n", len(reports), c.jsonPath)
	}
	return 0
}
