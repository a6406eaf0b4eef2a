// ode-bench prints the reproduction's experiment suite (DESIGN.md §5,
// EXPERIMENTS.md), one table per experiment. The source paper is a
// design paper without measured tables, so each experiment regenerates
// a worked example or quantifies a performance claim; the tables here
// are the rows EXPERIMENTS.md records. The experiments themselves —
// worlds, sizes, measured operations, checks — are the table in
// internal/bench; this command is flag parsing and printing.
//
// Usage:
//
//	ode-bench [-quick] [-run E3,E7] [-http :8080] [-workers N] [-json FILE]
//	          [-max-tx N] [-deadline D] [-overload N] [-connect ADDR]
//
// With -http, the engine metrics of the world currently under
// measurement are published as expvar at /debug/vars (key "ode",
// canonical metric names as in docs/OBSERVABILITY.md). With -json,
// every measured row is also written to FILE as a JSON array.
package main

import (
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"ode"
	"ode/internal/bench"
)

// config is the parsed command line.
type config struct {
	params   bench.Params
	run      map[string]bool // experiment ids to run (empty: all)
	httpAddr string
	jsonPath string
}

// parseFlags turns the command line into a config; what is wrong with
// a bad one has been written to stderr when it returns an error.
func parseFlags(args []string, stderr io.Writer) (*config, error) {
	c := &config{params: bench.Defaults(), run: map[string]bool{}}
	fs := flag.NewFlagSet("ode-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "smaller workloads (CI-sized)")
	runFilter := fs.String("run", "", "comma-separated experiment ids (default: all)")
	fs.StringVar(&c.httpAddr, "http", "", "serve expvar metrics (/debug/vars) on this address")
	fs.StringVar(&c.jsonPath, "json", "", "write measured rows to this file as JSON")
	fs.IntVar(&c.params.Workers, "workers", c.params.Workers,
		"max worker count for the multi-core experiment (E13)")
	fs.IntVar(&c.params.MaxTx, "max-tx", c.params.MaxTx,
		"admission slots (Options.MaxConcurrentTx) for the governance experiment (E14)")
	fs.DurationVar(&c.params.Deadline, "deadline", c.params.Deadline,
		"per-transaction deadline for the governance experiment (E14)")
	fs.IntVar(&c.params.Overload, "overload", c.params.Overload,
		"offered-load multiplier over -max-tx for the governance experiment (E14)")
	fs.StringVar(&c.params.Connect, "connect", "",
		"HOST:PORT of a running ode-server daemon (started with -bench-schema) for E15 to measure instead of an in-process loopback server")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if *quick {
		c.params.Div = 10
	}
	known := map[string]bool{}
	for _, x := range bench.Experiments {
		known[x.ID] = true
	}
	for _, id := range strings.Split(*runFilter, ",") {
		if id = strings.ToUpper(strings.TrimSpace(id)); id == "" {
			continue
		}
		if !known[id] {
			err := fmt.Errorf("unknown experiment %q (have E1 … E%d)", id, len(bench.Experiments))
			fmt.Fprintln(stderr, "ode-bench:", err)
			return nil, err
		}
		c.run[id] = true
	}
	return c, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	c, err := parseFlags(args, stderr)
	if err != nil {
		return 2
	}
	if c.httpAddr != "" {
		serveMetrics(c.httpAddr, stdout, stderr)
	}
	var results []benchResult
	for _, x := range bench.Experiments {
		if len(c.run) > 0 && !c.run[x.ID] {
			continue
		}
		fmt.Fprintf(stdout, "\n== %s: %s ==\n", x.ID, x.Title)
		rows, err := runExperiment(x, c.params, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "%s failed: %v\n", x.ID, err)
			return 1
		}
		results = append(results, rows...)
	}
	if c.jsonPath != "" {
		buf, err := json.MarshalIndent(results, "", "  ")
		if err == nil {
			err = os.WriteFile(c.jsonPath, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "ode-bench: write results:", err)
			return 1
		}
		fmt.Fprintf(stdout, "\nwrote %d rows to %s\n", len(results), c.jsonPath)
	}
	return 0
}

// runExperiment builds one experiment, measures its cases in table
// order, and prints each row as soon as its last case is measured.
func runExperiment(x bench.Experiment, p bench.Params, stdout io.Writer) ([]benchResult, error) {
	env, err := x.Build(p)
	if err != nil {
		return nil, err
	}
	defer env.Close()
	var results []benchResult
	var line strings.Builder
	for i, c := range env.Cases {
		m, err := c.Measure()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.Label(), err)
		}
		results = append(results, record(x.ID, c, m))
		if line.Len() == 0 {
			fmt.Fprintf(&line, "  %-28s", c.Name)
		}
		line.WriteString(cell(c, m))
		if i+1 == len(env.Cases) || env.Cases[i+1].Name != c.Name {
			fmt.Fprintln(stdout, line.String())
			line.Reset()
		}
	}
	if env.Note != "" {
		fmt.Fprintf(stdout, "  (%s)\n", strings.ReplaceAll(env.Note, "\n", "\n   "))
	}
	return results, nil
}

// benchResult is one measured row of the machine-readable output.
type benchResult struct {
	Experiment string             `json:"experiment"`
	Workload   string             `json:"workload"`
	NsPerOp    int64              `json:"ns_per_op"`
	Workers    int                `json:"workers,omitempty"`
	Extra      map[string]float64 `json:"extra,omitempty"`
}

// record is the -json row of one measured case: each timing goes under
// its row name plus the one column label that precedes it.
func record(experiment string, c bench.Case, m *bench.Measurement) benchResult {
	return benchResult{
		Experiment: experiment,
		Workload:   c.Label(),
		NsPerOp:    m.PerOp.Nanoseconds(),
		Workers:    c.Workers,
		Extra:      m.Extra,
	}
}

// cell renders one timing of a table row: the column label when the
// row has several, the time, then worker count and extra counters.
func cell(c bench.Case, m *bench.Measurement) string {
	var b strings.Builder
	if c.Col != "" {
		fmt.Fprintf(&b, " %-16s", c.Col)
	}
	fmt.Fprintf(&b, " %12s", m.PerOp.Round(time.Microsecond))
	if c.Workers > 0 && !strings.Contains(c.Name, "workers=") {
		fmt.Fprintf(&b, "  workers=%d", c.Workers)
	}
	keys := make([]string, 0, len(m.Extra))
	for k := range m.Extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if v := m.Extra[k]; v == float64(int64(v)) {
			fmt.Fprintf(&b, "  %s=%.0f", k, v)
		} else {
			fmt.Fprintf(&b, "  %s=%.2f", k, v)
		}
	}
	return b.String()
}

// serveMetrics is -http: the registry of the most recently opened
// benchmark database, as expvar (/debug/vars, key "ode") and plain
// (/metrics, the documented metric names as top-level JSON keys). A bad
// address is not fatal; the experiments run regardless.
func serveMetrics(addr string, stdout, stderr io.Writer) {
	var live atomic.Pointer[ode.DB]
	bench.OnOpen = func(db *ode.DB) { live.Store(db) }
	snapshot := func() any {
		if db := live.Load(); db != nil {
			return db.MetricsRegistry().Snapshot()
		}
		return map[string]any{}
	}
	expvar.Publish("ode", expvar.Func(snapshot))
	http.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(snapshot())
	})
	go func() {
		if err := http.ListenAndServe(addr, nil); err != nil {
			fmt.Fprintln(stderr, "ode-bench: metrics server:", err)
		}
	}()
	fmt.Fprintf(stdout, "serving metrics on %s/metrics (JSON) and /debug/vars (expvar)\n", addr)
}
