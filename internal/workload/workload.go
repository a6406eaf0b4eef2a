// Package workload is the macro-benchmark suite: deterministic, seeded,
// OO-bench-style mixed workloads that exercise the engine the way the
// clustering literature says object bases are used — hot/cold skewed
// point derefs, pointer-chasing traversals, version churn, trigger
// storms, and the paper's bill-of-materials fixpoint — plus the
// larger-than-RAM churn scenario that drives online compaction.
//
// Each workload runs against a *bench.Deployment — whichever shape
// bench.Open opened (embedded, one server, a shard group) — through the
// ode.ObjectTx its RunTx and View hand out, so a mix is written once and
// no adapter sits between it and the transaction it measures. A run
// produces a Report: throughput, a latency histogram (via the obs
// registry types), the per-op-kind counts (a pure function of the seed,
// so CI can assert reproducibility), and engine counter deltas.
// cmd/ode-bench surfaces the suite as -workload <name>;
// ci/workload_gate.sh diffs the JSON reports against a committed
// baseline.
package workload

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"ode"
	"ode/internal/bench"
	"ode/internal/obs"
)

// Config parameterizes one workload run.
type Config struct {
	Seed    int64 // PRNG seed; op counts are a pure function of it
	Workers int   // concurrent workers (default 4)
	Short   bool  // CI-sized op counts
}

func (cfg Config) withDefaults() Config {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return cfg
}

// Workload is one named mix.
type Workload struct {
	Name string
	Desc string
	// RemoteOK marks mixes that run through the client; the rest need
	// embedded-only APIs (trigger activation, DB.Compact).
	RemoteOK bool
	// dbOpts sizes the database for an embedded run (nil: bench
	// defaults). The larger-than-RAM mix shrinks the buffer pool here.
	dbOpts func(cfg Config) *ode.Options
	run    func(r *runner) error
}

// DBOptions returns the ode.Options an embedded run of this workload
// should open its database with (nil for the bench defaults).
func (wl *Workload) DBOptions(cfg Config) *ode.Options {
	if wl.dbOpts == nil {
		return nil
	}
	return wl.dbOpts(cfg.withDefaults())
}

// registry of mixes, ordered for display.
var mixes = []*Workload{pointsMix, traverseMix, versionsMix, triggersMix, bomMix, churn10xMix}

// Names lists the registered workloads in display order.
func Names() []string {
	out := make([]string, len(mixes))
	for i, wl := range mixes {
		out[i] = wl.Name
	}
	return out
}

// Lookup finds a workload by name.
func Lookup(name string) (*Workload, bool) {
	for _, wl := range mixes {
		if wl.Name == name {
			return wl, true
		}
	}
	return nil, false
}

// runner carries one run's state: the deployment, the seeded op
// accounting, and the latency histogram (an obs.Histogram, so the
// buckets match every other latency metric in the engine).
type runner struct {
	d   *bench.Deployment
	cfg Config
	rng *rand.Rand // setup-phase randomness; workers get their own

	hist obs.Histogram
	ops  obs.Counter
	errs obs.Counter

	mu       sync.Mutex
	opCounts map[string]int64
}

// Registry builds the run's own obs registry (names documented in
// docs/OBSERVABILITY.md). It is per-run, not per-database: a database
// registry lives as long as the DB and would reject re-registration on
// a second run.
func (r *runner) Registry() *obs.Registry {
	reg := obs.NewRegistry()
	reg.RegisterHistogram("workload.op_ns", &r.hist)
	reg.RegisterCounter("workload.ops", &r.ops)
	reg.RegisterCounter("workload.errors", &r.errs)
	return reg
}

// count records n completed operations of the named kind.
func (r *runner) count(kind string, n int64) {
	r.mu.Lock()
	r.opCounts[kind] += n
	r.mu.Unlock()
	r.ops.Add(uint64(n))
}

// observe records one op latency sample.
func (r *runner) observe(d time.Duration) { r.hist.Observe(d) }

// timed runs fn as one counted, latency-observed op.
func (r *runner) timed(kind string, fn func() error) error {
	start := time.Now()
	err := fn()
	r.observe(time.Since(start))
	if err != nil {
		r.errs.Inc()
		return err
	}
	r.count(kind, 1)
	return nil
}

// fanout splits totalOps across the configured workers, each with its
// own PRNG seeded from (seed, worker index) so the op mix is a pure
// function of the seed regardless of scheduling.
func (r *runner) fanout(totalOps int, fn func(w int, rng *rand.Rand, ops int) error) error {
	workers := r.cfg.Workers
	if workers > totalOps {
		workers = 1
	}
	per := totalOps / workers
	extra := totalOps % workers
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		ops := per
		if w < extra {
			ops++
		}
		wg.Add(1)
		go func(w, ops int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(r.cfg.Seed + int64(w)*1_000_003))
			errs[w] = fn(w, rng, ops)
		}(w, ops)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Run executes the workload against d and builds its report; the
// report's counters are the delta of d.Counters across the run.
func (wl *Workload) Run(d *bench.Deployment, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if d.DB == nil && !wl.RemoteOK {
		return nil, fmt.Errorf("workload %q needs embedded APIs and cannot run remotely", wl.Name)
	}
	r := &runner{
		d:        d,
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		opCounts: map[string]int64{},
	}
	before, err := d.Counters()
	if err != nil {
		return nil, fmt.Errorf("workload %q: counter snapshot: %w", wl.Name, err)
	}
	start := time.Now()
	if err := wl.run(r); err != nil {
		return nil, fmt.Errorf("workload %q: %w", wl.Name, err)
	}
	elapsed := time.Since(start)
	after, err := d.Counters()
	if err != nil {
		return nil, fmt.Errorf("workload %q: counter snapshot: %w", wl.Name, err)
	}
	return r.report(wl.Name, elapsed, counterDelta(before, after)), nil
}

// counterDelta keeps the counters that moved during the run.
func counterDelta(before, after map[string]int64) map[string]int64 {
	d := map[string]int64{}
	for name, v := range after {
		if dv := v - before[name]; dv != 0 {
			d[name] = dv
		}
	}
	return d
}

// sortedKinds returns the op kinds in stable order (report determinism).
func (r *runner) sortedKinds() []string {
	kinds := make([]string, 0, len(r.opCounts))
	for k := range r.opCounts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}
