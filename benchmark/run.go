package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"ode"
)

// config is one invocation's protocol. The defaults are the protocol
// BENCHMARK.json's bounds were measured under.
type config struct {
	seed     int64
	seconds  float64       // length of the timed window
	warmup   time.Duration // untimed, before the window
	smoke    bool          // a boot-and-verify pass: asserts that need a full window are skipped
	dir      string        // database files live here
	traceDir string        // trace-<workload>.json is written here
}

// window is the length of the timed window.
func (c config) window() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// env is a workload set up on one shape and ready to run.
type env struct {
	wl      *workload
	dep     *deployment
	w       *world
	workers []*worker
}

// options is the flush policy every timed window shares, NoSync with
// group commit at its default, laid over the workload's own options.
func (wl *workload) options() ode.Options {
	o := wl.opts
	o.NoSync = true
	return o
}

// setUp opens shape (wl's own, or a reference shape a traced run
// compares it with) under dir, loads the dataset and builds the workers.
func setUp(wl *workload, dir string, seed int64, shape string, opts ode.Options) (*env, error) {
	dir = filepath.Join(dir, shape)
	loadOpts := opts
	if wl.loadPool > 0 {
		loadOpts.PoolPages = wl.loadPool
	}
	dep, err := deploy(shape, dir, loadOpts)
	if err != nil {
		return nil, fmt.Errorf("deploy %s: %w", shape, err)
	}
	e := &env{wl: wl, dep: dep}
	if wl.data.indexQty {
		if err := dep.createIndex(); err != nil {
			dep.close()
			return nil, fmt.Errorf("create index: %w", err)
		}
	}
	if e.w, err = load(dep.st, dep.sc, wl.data, seed); err != nil {
		dep.close()
		return nil, err
	}
	if wl.loadPool > 0 {
		// Loaded through a pool that holds the data; now reopen under
		// the small one, cold.
		if err := dep.shutdown(); err != nil {
			return nil, err
		}
		if e.dep, err = deploy(shape, dir, opts); err != nil {
			return nil, fmt.Errorf("reopen %s: %w", shape, err)
		}
	}
	for id := 0; id < clients; id++ {
		e.workers = append(e.workers, newWorker(id, wl, e.w, e.dep.sc, e.dep.st, seed))
	}
	if wl.data.armed {
		if err := e.arm(); err != nil {
			e.dep.close()
			return nil, fmt.Errorf("arm triggers: %w", err)
		}
	}
	return e, nil
}

// arm activates the restock trigger on every worker's trigger pool and
// parks each armed item just above its threshold, so a steady share of
// decrements fires the trigger from the first second on.
func (e *env) arm() error {
	db := e.dep.dbs[0]
	return db.RunTx(func(tx *ode.Tx) error {
		for _, k := range e.workers {
			for _, i := range k.trig {
				oid := e.w.stock[i]
				o, err := tx.Deref(oid)
				if err != nil {
					return err
				}
				e.w.qty[i] = threshold(i) + int64(i%restockLot)
				o.MustSet("qty", ode.Int(e.w.qty[i]))
				if err := tx.Update(oid, o); err != nil {
					return err
				}
				if _, err := db.Triggers().Activate(tx, oid, "restock", ode.Int(restockLot)); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// use points the workers at another store over the same databases.
func (e *env) use(st store, sc *schema) {
	for _, k := range e.workers {
		k.st, k.sc = st, sc
	}
}

// sliceLen is the length of one slice of a timed window. It is short so
// that the stretches in which the host took the processor away (this
// sandbox freezes the whole process for 20 to 100 ms several times a
// window, and steals 10 to 50 % of the rest in bursts) spoil few slices,
// and long enough that a slice of the slowest workload still holds
// several units.
const sliceLen = 25 * time.Millisecond

// sliceCapacity is the room a recorder starts each slice with; append
// grows the few slices of the fastest workloads that need more.
const sliceCapacity = 1 << 8

// window is what one timed window measured.
type window struct {
	recs    []*recorder
	cpu     []float64 // process CPU seconds spent in each slice
	work    []float64 // seconds of work done in each slice (workPerSlice)
	count   []float64 // unit transactions finished in each slice
	ctr     counters  // registry deltas over the window
	mallocs float64
	gcPause time.Duration
	traces  []*workerTrace // nil when untraced

	retries   int64
	userBytes int64
}

// rusage reads the process's user+system CPU seconds so far and its peak
// resident set in MiB (Linux reports KiB).
func rusage() (cpuSeconds, peakRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024
}

// run drives the closed loop: every worker runs units back to back
// through the warm-up and a window of length d, while this goroutine
// reads the registries at the window's ends.
func (e *env) run(warmup, d time.Duration, traced bool) *window {
	n := max(int(d/sliceLen), 1)
	win := &window{}
	start := time.Now()
	var before struct{ retries, userBytes int64 }
	for _, k := range e.workers {
		win.recs = append(win.recs, newRecorder(n, sliceCapacity))
		before.retries += k.retries
		before.userBytes += k.userBytes
		k.tr = nil
		if traced {
			k.tr = newWorkerTrace(start)
			win.traces = append(win.traces, k.tr)
		}
	}
	var wg sync.WaitGroup
	for i, k := range e.workers {
		wg.Add(1)
		go func(k *worker, rec *recorder) {
			defer wg.Done()
			last, slice := time.Now(), -1
			for {
				u := k.gen.next()
				k.run(u)
				now := time.Now()
				in := now.Sub(start) - warmup
				cur := -1
				if in >= 0 {
					cur = int(in / sliceLen)
				}
				if cur != slice {
					cpu, _ := rusage()
					rec.clock = append(rec.clock, cpuReading{in, cpu})
					slice = cur
				}
				if cur >= n {
					return
				}
				if cur >= 0 {
					rec.add(cur, u.kind, int64(now.Sub(last)))
				}
				last = now
			}
		}(k, win.recs[i])
	}

	time.Sleep(time.Until(start.Add(warmup)))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ctr0 := e.dep.counters()
	time.Sleep(time.Until(start.Add(warmup + time.Duration(n)*sliceLen)))
	win.ctr = e.dep.counters().sub(ctr0)
	runtime.ReadMemStats(&ms1)
	win.mallocs = float64(ms1.Mallocs - ms0.Mallocs)
	win.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	wg.Wait()
	win.cpu = cpuPerSlice(win.recs, n, sliceLen)
	win.work, win.count = workPerSlice(win.recs)
	for _, k := range e.workers {
		win.retries += k.retries
		win.userBytes += k.userBytes
		k.tr = nil
	}
	win.retries -= before.retries
	win.userBytes -= before.userBytes
	return win
}

// all is every slice of the window.
func (w *window) all() []int {
	out := make([]int, len(w.cpu))
	for i := range out {
		out[i] = i
	}
	return out
}

// quiet is the twentieth of the window's slices in which most work was
// done: the ones the host disturbed least. On a host that other tenants
// share, interference only ever slows a slice down, so what the best
// slices did is what the code does, and it repeats from run to run where
// the mean over the window does not (README.md, Why the quiet slices).
func (w *window) quiet() []int { return quietest(w.work) }

// units is the number of unit transactions that finished in the window.
func (w *window) units() float64 { return sumAll(w.count) }

// pace is how much more work a slice of the given ones did than a slice
// of the whole window: 1 for all of them, above 1 for the quiet ones.
func (w *window) pace(which []int) float64 {
	return ratio(sum(w.work, which)/float64(len(which)), sumAll(w.work)/float64(len(w.work)))
}

// rate is the unit transactions per second the given slices completed,
// had they held the window's mix of kinds: the window's rate, scaled by
// their pace.
func (w *window) rate(which []int) float64 {
	return w.units() / (float64(len(w.work)) * sliceLen.Seconds()) * w.pace(which)
}

// cpuPerUnit is the process CPU microseconds the given slices spent per
// unit of the window's mix: their CPU time per second of work, times the
// work in the window's average unit.
func (w *window) cpuPerUnit(which []int) float64 {
	return ratio(sum(w.cpu, which), sum(w.work, which)) * ratio(sumAll(w.work), w.units()) * 1e6
}

// report is one run's outcome: what main prints.
type report struct {
	wl        *workload
	m         metrics
	samples   map[string]int // units behind each timing metric
	attempted int64
	failed    int64
	problems  []string // why the run is not correct
}

func (r *report) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

// finish ends a run's measuring: the verify pass, the counts every
// report carries, and the workload's own assert over the measured windows' counters.
func (r *report) finish(e *env, ctr counters, cfg config) {
	checks, bad, err := verify(e.dep.st, e.dep.sc, e.w, e.wl, e.workers)
	if err != nil {
		r.problems = append(r.problems, "verify: "+err.Error())
	}
	r.attempted, r.failed = checks, bad
	for _, k := range e.workers {
		r.attempted += k.attempted
		r.failed += k.failed
		if k.firstErr != nil {
			r.problems = append(r.problems, k.firstErr.Error())
		}
	}
	if e.wl.check != nil && !cfg.smoke {
		if p := e.wl.check(ctr); p != "" {
			r.problems = append(r.problems, e.wl.name+": "+p)
		}
	}
	for _, db := range e.dep.dbs {
		for _, ae := range db.Triggers().Errors() {
			r.problems = append(r.problems, fmt.Sprintf("trigger action failed: %v", ae.Err))
		}
	}
}

// Set-up is repeated on fresh files, at least minSetups times and then
// until setupBudget is spent or maxSetups are done, so that its time can
// be reported as a median: a small dataset sets up in a tenth of a
// second, most of it the checkpoints' fsyncs behind each DDL statement,
// and this sandbox's fsync takes 2 to 10 ms as the disk's other tenants
// please.
const (
	minSetups   = 3
	maxSetups   = 10
	setupBudget = 2 * time.Second
)

// runTimed is the end-to-end run: tracing off, set-up repeated so its
// time can be reported as a median, one warm-up, one timed window.
func runTimed(wl *workload, cfg config) (*report, error) {
	r := &report{wl: wl, m: metrics{}, samples: map[string]int{}}
	var e *env
	var setups []float64
	begun := time.Now()
	for i := 0; i < maxSetups && (i < minSetups || time.Since(begun) < setupBudget); i++ {
		if cfg.smoke && i > 0 {
			break
		}
		if e != nil {
			if err := e.dep.close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		if e, err = setUp(wl, filepath.Join(cfg.dir, fmt.Sprintf("setup%d", i)), cfg.seed, wl.shape, wl.options()); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer e.dep.close()

	win := e.run(cfg.warmup, cfg.window(), false)
	r.finish(e, win.ctr, cfg)

	quiet := win.quiet()
	lat := merged(win.recs, quiet, true, true)
	// Everything before the first timed slice: a set-up and the warm-up.
	// The warm-up is a constant. With it the bound on setup_s allows a
	// change about a quarter of a second more set-up on any workload;
	// against the bare tenth of a second a small dataset sets up in,
	// which swings by half with the disk, it would trip on noise.
	r.m["setup_s"] = median(setups) + cfg.warmup.Seconds()
	r.m["txn_per_s"] = win.rate(quiet)
	r.m["txn_p50_us"] = quantile(lat, 0.5) / 1e3
	r.m["cpu_us_per_txn"] = win.cpuPerUnit(quiet)
	_, r.m["peak_rss_mb"] = rusage()
	r.samples["setup_s"] = len(setups)
	for _, name := range []string{"txn_per_s", "txn_p50_us", "cpu_us_per_txn"} {
		r.samples[name] = len(lat)
	}
	return r, nil
}

// scratch makes cfg.dir/run-<pid>, the directory one invocation keeps
// its databases in, and returns a function that removes it.
func scratch(cfg *config) (func(), error) {
	dir := filepath.Join(cfg.dir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cfg.dir = dir
	return func() { os.RemoveAll(dir) }, nil
}
