// Command benchmark is the repository's benchmark: six named workloads
// over the three deployment shapes (embedded, one server, three shards),
// each reporting the end-to-end metrics BENCHMARK.json bounds and, in a
// traced run, the per-layer metrics that explain them. README.md in this
// directory documents the protocol, the metrics and the workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/debug"
	"time"
)

func main() {
	var (
		name  = flag.String("workload", "all", "workload to run, or all")
		seed  = flag.Int64("seed", 1, "seed of the dataset and of every generator")
		secs  = flag.Float64("seconds", 10, "length of the timed window")
		trace = flag.Int("trace", 0, "1 = the traced run: per-layer metrics, spans, probes")
		smoke = flag.Bool("smoke", false, "boot, run 1 s without warm-up, verify")
		aa    = flag.Bool("aa", false, "run the timed suite twice and compare the two against BENCHMARK.json's bounds")
		dir   = flag.String("dir", ".bench_build/data", "directory for database files")
		out   = flag.String("out", "benchmark/out", "directory for trace files")
		spec  = flag.String("spec", "BENCHMARK.json", "the bounds -aa compares against")
	)
	flag.Parse()
	setGCPolicy()
	cfg := config{seed: *seed, seconds: *secs, warmup: time.Second,
		smoke: *smoke, dir: *dir, traceDir: *out}
	if *smoke {
		cfg.seconds, cfg.warmup = 1, 0
	}
	var wls []*workload
	if *name == "all" {
		wls = workloads
	} else if wl := workloadNamed(*name); wl != nil {
		wls = []*workload{wl}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: no workload named %q\n", *name)
		os.Exit(2)
	}
	cleanup, err := scratch(&cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	code := 0
	if *aa {
		code = runAA(wls, cfg, *spec, os.Stdout)
	} else {
		for _, wl := range wls {
			r, err := runOne(wl, cfg, *trace == 1, os.Stdout)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", wl.name, err)
				code = 1
				break
			}
			r.print(os.Stdout, *trace == 1)
		}
	}
	cleanup()
	os.Exit(code)
}

// ballast stands in for the heap of the application an engine is embedded
// in. The datasets here are a few megabytes; with nothing else on the
// heap the collector would run every few milliseconds, and how long each
// cycle's wake-ups and pauses take on a shared host would decide every
// number. 64 MiB of pointer-free memory costs the collector nothing to
// scan and spaces its cycles to a few per second.
var ballast []byte

// setGCPolicy fixes the collector's pacing, whatever GOGC says, so runs
// compare across environments.
func setGCPolicy() {
	debug.SetGCPercent(100)
	ballast = make([]byte, 64<<20)
}

// runOne runs wl once, traced or not. Tables a traced run prints on the
// way go to out.
func runOne(wl *workload, cfg config, traced bool, out io.Writer) (*report, error) {
	if traced {
		return runTraced(wl, cfg, out)
	}
	return runTimed(wl, cfg)
}

// result is the last line of a run's output: the contract with the
// driver.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the report as the result line spells it: every metric the
// mode owes, those a workload does not have reading 0.
func (r *report) result(traced bool) result {
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	res := result{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, s := range specs {
		v := r.m[s.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[s.name] = metricValue{v, s.unit}
	}
	return res
}

// print writes every metric by name with its unit, then the result line.
func (r *report) print(out io.Writer, traced bool) {
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	res := r.result(traced)
	fmt.Fprintf(out, "# %s (%s): %s\n", r.wl.name, r.wl.shape, r.wl.why)
	for _, s := range specs {
		fmt.Fprintf(out, "%-36s %14.4f %-6s", s.name, res.Metrics[s.name].Value, s.unit)
		if n, ok := r.samples[s.name]; ok {
			fmt.Fprintf(out, " n %d", n)
		}
		fmt.Fprintln(out)
	}
	for _, p := range r.problems {
		fmt.Fprintln(out, "PROBLEM:", p)
	}
	line, _ := json.Marshal(res) // a map of numbers and strings cannot fail to encode
	fmt.Fprintf(out, "%s\n", line)
}
