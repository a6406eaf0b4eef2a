package bench

import (
	"os"
	"runtime"
	"time"

	"ode"
)

// Params sizes and parameterizes the experiments. The zero Div means
// full size.
type Params struct {
	Div      int           // world-size divisor: 1 full size, 10 ode-bench -quick; sizes clamp at per-experiment floors
	Workers  int           // E13: largest worker count swept
	MaxTx    int           // E14: admission slots (Options.MaxConcurrentTx)
	Deadline time.Duration // E14: per-transaction deadline
	Overload int           // E14: offered-load multiplier over MaxTx
	Connect  string        // ode-bench -connect: external ode-server -bench-schema addresses ("" boots loopback servers)
}

// Defaults is the full-size parameter set: what EXPERIMENTS.md's tables
// are recorded with and what ode-bench's flags default to.
func Defaults() Params {
	return Params{Div: 1, Workers: runtime.GOMAXPROCS(0), MaxTx: 4, Deadline: 50 * time.Millisecond, Overload: 8}
}

// scale divides a full-size count by Div, clamped at floor.
func (p Params) scale(n, floor int) int {
	if p.Div > 1 {
		n /= p.Div
	}
	return max(n, floor)
}

// Case is one measured row of an experiment. After Build, every case
// is independent of the others: any subset may run, in any order, and
// Op may be called any number of times.
type Case struct {
	Name    string // row name; consecutive cases sharing a Name print as one table row
	Col     string // column label within that row ("" when the row has one timing)
	Workers int    // concurrent workers inside one Op call (0: not a concurrency row)
	Reps    int    // Op calls per Measure (default 1); testing.B substitutes b.N
	Units   int    // work units one Op call performs (default 1); Measure reports time per unit
	// Prep, when set, runs untimed before every Op call to re-arm state
	// the call consumes.
	Prep func() error
	// Op is the measured operation. It verifies its own result: a wrong
	// count is an error, not a fast row.
	Op func() error
	// After, when set, runs once, untimed, after the last Op call: it
	// verifies what the calls left behind and fills in the row's extra
	// counters. It may replace PerOp when the row reports a latency
	// other than wall time per unit.
	After func(m *Measurement) error
}

// Label is the name a case is recorded under: the row name, qualified
// by its column when the row has several timings.
func (c Case) Label() string {
	if c.Col == "" {
		return c.Name
	}
	return c.Name + " " + c.Col
}

// Measurement is the outcome of measuring one case.
type Measurement struct {
	PerOp time.Duration
	Extra map[string]float64
}

// Measure runs the case Reps times and returns the time per unit. It is
// the only timing loop behind ode-bench's tables.
func (c Case) Measure() (*Measurement, error) {
	reps := max(c.Reps, 1)
	var total time.Duration
	if c.Prep == nil {
		start := time.Now()
		for i := 0; i < reps; i++ {
			if err := c.Op(); err != nil {
				return nil, err
			}
		}
		total = time.Since(start)
	} else {
		for i := 0; i < reps; i++ {
			if err := c.Prep(); err != nil {
				return nil, err
			}
			start := time.Now()
			if err := c.Op(); err != nil {
				return nil, err
			}
			total += time.Since(start)
		}
	}
	m := &Measurement{PerOp: total / time.Duration(reps*max(c.Units, 1)), Extra: map[string]float64{}}
	if c.After != nil {
		if err := c.After(m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Experiment is one entry of the evaluation (DESIGN.md §5,
// EXPERIMENTS.md): a worked example of the paper regenerated, or a
// performance claim quantified.
type Experiment struct {
	ID, Title string
	build     func(e *Env)
}

// Env is one built experiment: its worlds are open and loaded, its
// cases ready to measure. Close releases everything Build opened.
type Env struct {
	Params
	Cases []Case
	Note  string // printed under the experiment's table
	closers
}

// Build runs the experiment's untimed set-up.
func (x Experiment) Build(p Params) (e *Env, err error) {
	e = &Env{Params: p}
	defer func() {
		if r := recover(); r != nil {
			failure, ok := r.(buildFailure)
			if !ok {
				panic(r)
			}
			e.Close()
			e, err = nil, failure.err
		}
	}()
	x.build(e)
	return e, nil
}

// Set-up has one failure policy — the experiment is abandoned and Build
// returns the error — so build functions read straight down and check
// raises it from wherever it happens. Measured code (Prep, Op, After)
// runs after Build and returns its errors instead.
type buildFailure struct{ err error }

func check(err error) {
	if err != nil {
		panic(buildFailure{err})
	}
}

func must[T any](v T, err error) T {
	check(err)
	return v
}

// closers undoes what an Env or a Deployment opened.
type closers []func()

func (c *closers) onClose(f func()) { *c = append(*c, f) }

// Close runs the registered functions, newest first. It is idempotent.
func (c *closers) Close() {
	for i := len(*c) - 1; i >= 0; i-- {
		(*c)[i]()
	}
	*c = nil
}

func (e *Env) add(c Case) { e.Cases = append(e.Cases, c) }

// stock opens a default embedded deployment holding n stockitems (qty = i).
func (e *Env) stock(n int) (*Deployment, []ode.OID) {
	w := e.deploy(Shape{})
	return w, must(w.LoadStock(n))
}

// deploy opens a deployment that Close tears down.
func (e *Env) deploy(s Shape) *Deployment {
	d := must(Open(s))
	e.onClose(d.Close)
	return d
}

// tempDir makes a directory that Close removes, for the experiments
// that open databases over their own schemas.
func (e *Env) tempDir() string {
	dir := must(os.MkdirTemp("", "ode-bench"))
	e.onClose(func() { os.RemoveAll(dir) })
	return dir
}

// Experiments is the evaluation, in report order. ode-bench prints it,
// BenchmarkExperiments loops it, and the package test runs every case
// of it; an experiment's sizes, predicates and checks live here only.
var Experiments = []Experiment{
	{"E1", "persistent object creation and reopen scan (WE §2.2-2.5)", buildE1},
	{"E2", "cluster iteration vs pointer navigation (PC §3)", buildE2},
	{"E3", "suchthat selection: scan vs index across selectivities (WE §3.1)", buildE3},
	{"E4", "the by (ordering) clause (WE §3.1)", buildE4},
	{"E5", "hierarchy iteration: person vs person* (WE §3.1.1)", buildE5},
	{"E6", "two-variable joins by strategy (WE §3.1)", buildE6},
	{"E7", "fixpoint parts explosion: worklist vs naive vs semi-naive (WE §3.2)", buildE7},
	{"E8", "versioning: newversion and deref costs (WE §4)", buildE8},
	{"E9", "constraint enforcement (WE §5)", buildE9},
	{"E10", "trigger activation / firing / quiescence (WE §6)", buildE10},
	{"E11", "volatile vs persistent manipulation (PC §2)", buildE11},
	{"E12", "crash recovery (repair-on-open)", buildE12},
	{"E13", "multi-core read path: parallel forall and concurrent deref", buildE13},
	{"E14", "resource governance: admission control, deadlines, bounded WAL", buildE14},
	{"E15", "network server: embedded vs remote wire protocol", buildE15},
	{"E16", "commit & wire fast paths: group commit, client object cache", buildE16},
}
