// Package torture is the fault-injection torture harness: one seeded
// history of object traffic — pnew, update, pdelete, newversion,
// deleteversion, and where the topology holds the embedded database
// trigger activations and constraint aborts — run against every shape
// the system ships, under that shape's faults, and checked against one
// model.
//
// The harness is one op generator, one model, one executor, one
// resolve and one verify, all speaking ode.ObjectTx, plus a table of
// modes (see modes). A mode row supplies only what is its own: its
// topology (an embedded *ode.DB, or internal/node Nodes behind
// client.Replicated or client.Sharded), its fault driver (failpoints
// and crash/reopen, node kills and wipes, netchaos link faults, staged
// 2PC kills), its extra ops and its extra checks. The invariants every
// row is held to:
//
//   - a committed plan is durable and an aborted one invisible: the
//     extent and the qty index hold exactly the model's live set, and
//     every object reads back its modelled state, versions and trigger
//     activations included, twice (the second read through the caches);
//   - a plan whose outcome is unknown — its commit errored, timed out or
//     was cut off by a crash — resolves to all of its before-state or
//     all of its after-state, never a mix; across shards that is the
//     2PC atomicity sweep;
//   - an object the model holds live is never handed out again by PNew,
//     and a recently deleted object stays deleted.
//
// Everything is driven by one seeded PRNG, so a failing run is
// reproducible from its mode and seed (docs/TESTING.md). The fault
// schedule is fully determined by the seed; which page or transaction
// happens to hit an armed site can vary run to run with Go's map
// iteration order and goroutine scheduling, so the checks are
// outcome-blind: every possible resolution of a round must verify.
package torture

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"

	"ode"
	"ode/internal/failpoint"
)

// Config parameterizes a torture run.
type Config struct {
	// Mode names the row of the mode table: "" (embedded crash
	// recovery), "cancel", "compact", "repl", "netchaos" or "shard".
	Mode string
	// Seed drives every random decision of the run.
	Seed int64
	// Rounds is the number of fault/traffic/recover/verify cycles; it
	// must be positive.
	Rounds int
	// OpsPerRound bounds the operations attempted per round; it must be
	// positive.
	OpsPerRound int
	// Dir holds the stores' files. It must exist; the harness never
	// deletes it (CI uploads it as an artifact on failure).
	Dir string
	// Log, if non-nil, receives progress lines.
	Log io.Writer
}

// Result summarizes a run: named event counters (commits, uncertain,
// verified, and each mode's own) and the failpoint sites that fired.
type Result struct {
	Counts     map[string]int
	SitesFired map[string]uint64
}

// String renders the counters and the sites fired, each sorted by name.
func (res *Result) String() string {
	return fmt.Sprintf("%v fired=%v", res.Counts, res.SitesFired)
}

// row is one mode's own part of a run; the run it is built over holds
// the generator, the model, the executor, resolve and verify.
type row interface {
	// boot brings the topology up, points the run's runTx, view and dbs
	// at it, and seeds the population.
	boot() error
	// round runs one fault/traffic/recover/check cycle.
	round(n int) error
	// finish runs the end-of-run checks.
	finish() error
	// shutdown stops everything the row started; the stores stay on disk.
	shutdown()
}

// modes is the mode table: each row's name and constructor.
var modes = []struct {
	name string
	row  func(r *run) row
}{
	{"", func(r *run) row { return &embedded{r: r} }},
	{"cancel", func(r *run) row { return &embedded{r: r, cancel: true} }},
	{"compact", func(r *run) row { return &embedded{r: r, compact: true} }},
	{"repl", newRepl},
	{"netchaos", newNetChaos},
	{"shard", newShard},
}

// run is the shared harness state of one torture run.
type run struct {
	cfg Config
	rng *rand.Rand
	log io.Writer
	row row

	// The topology, as the row's boot sets it up. stock is the class
	// instance traffic creates with; runTx runs fn once in a transaction
	// and commits it; view runs fn read-only; dbs visits every database
	// holding part of the extent, with that database's class instance.
	stock *ode.Class
	runTx func(ctx context.Context, fn func(ode.ObjectTx) error) error
	view  func(fn func(ode.ObjectTx) error) error
	dbs   func(fn func(db *ode.DB, stock *ode.Class) error) error
	// triggers is set where the topology holds the embedded database:
	// only there do activation and constraint-abort ops run.
	triggers bool
	// pad lengthens every created name (compact mode: records big
	// enough that delete bursts leave sparse heap pages).
	pad int

	model     map[ode.OID]*snap
	dead      []ode.OID        // recently deleted oids, checked to stay deleted
	uncertain []*pending       // plans whose outcome resolve decides
	fenced    map[ode.OID]bool // objects of uncertain plans: not picked until resolve

	mu     sync.Mutex // counters and the violation are also written by event goroutines
	counts map[string]int
	fatal  error
}

// Run executes one torture run and returns its summary; an invariant
// violation or unexpected error is returned naming the mode and seed
// to reproduce it with.
func Run(cfg Config) (*Result, error) {
	r, err := newRun(cfg)
	if err != nil {
		return nil, err
	}
	firesBefore := failpoint.FireCounts()
	defer failpoint.DisarmAll()
	err = r.runAll()
	res := &Result{Counts: make(map[string]int), SitesFired: make(map[string]uint64)}
	for site, n := range failpoint.FireCounts() {
		if d := n - firesBefore[site]; d > 0 {
			res.SitesFired[site] = d
			r.count("faults", int(d))
		}
	}
	r.mu.Lock()
	for name, n := range r.counts {
		res.Counts[name] = n
	}
	r.mu.Unlock()
	if err != nil {
		return res, fmt.Errorf("torture: mode %q seed %d: %w (stores kept at %s)", cfg.Mode, cfg.Seed, err, cfg.Dir)
	}
	return res, nil
}

// newRun validates cfg and builds the run over its mode's row.
func newRun(cfg Config) (*run, error) {
	i := 0
	for i < len(modes) && modes[i].name != cfg.Mode {
		i++
	}
	if i == len(modes) {
		return nil, fmt.Errorf("torture: unknown mode %q (modes: \"\", cancel, compact, repl, netchaos, shard)", cfg.Mode)
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("torture: Config.Dir is required")
	}
	if cfg.Rounds <= 0 || cfg.OpsPerRound <= 0 {
		return nil, fmt.Errorf("torture: Config.Rounds and Config.OpsPerRound must be positive, got %d and %d", cfg.Rounds, cfg.OpsPerRound)
	}
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	r := &run{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		log:    cfg.Log,
		model:  make(map[ode.OID]*snap),
		fenced: make(map[ode.OID]bool),
		counts: make(map[string]int),
	}
	r.row = modes[i].row(r)
	return r, nil
}

func (r *run) runAll() error {
	defer r.row.shutdown()
	err := r.row.boot()
	if err != nil {
		err = fmt.Errorf("boot: %w", err)
	}
	for n := 1; err == nil && n <= r.cfg.Rounds; n++ {
		if err = r.row.round(n); err != nil {
			err = fmt.Errorf("round %d: %w", n, err)
		} else {
			r.count("rounds", 1)
		}
	}
	if err == nil {
		err = r.row.finish()
	}
	// A violation recorded off the failing path (split brain, say)
	// explains a failure far better than the timeout it usually causes.
	if v := r.violation(); v != nil && !errors.Is(err, v) {
		return v
	}
	return err
}

func (r *run) count(name string, n int) {
	r.mu.Lock()
	r.counts[name] += n
	r.mu.Unlock()
}

func (r *run) get(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts[name]
}

// failf records the run's first invariant violation and returns it.
func (r *run) failf(format string, args ...any) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.fatal == nil {
		r.fatal = fmt.Errorf(format, args...)
	}
	return r.fatal
}

// violation returns the first recorded invariant violation, if any.
func (r *run) violation() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fatal
}

// arm arms one failpoint site; a name no site answers to is an error,
// so a misspelt site cannot leave a mode silently torturing nothing.
func (r *run) arm(site string, spec failpoint.Spec) error {
	if err := failpoint.Arm(site, spec); err != nil {
		return fmt.Errorf("arm %s: %w", site, err)
	}
	return nil
}

// traffic runs up to OpsPerRound operations through op, counting each,
// until op reports the round over or an invariant violation is recorded.
func (r *run) traffic(op func(i int) (stop bool, err error)) error {
	for i := 0; i < r.cfg.OpsPerRound; i++ {
		r.count("ops", 1)
		stop, err := op(i)
		if err == nil {
			err = r.violation()
		}
		if err != nil || stop {
			return err
		}
	}
	return nil
}

// workloadFaults are the I/O sites a round can arm, with the actions
// that make sense at each.
var workloadFaults = []struct {
	site    string
	actions []failpoint.Action
}{
	{"storage.page_read", []failpoint.Action{failpoint.ActError}},
	{"storage.page_write", []failpoint.Action{failpoint.ActTornWrite, failpoint.ActShortWrite, failpoint.ActError}},
	{"storage.sync", []failpoint.Action{failpoint.ActError}},
	{"storage.dw_stage", []failpoint.Action{failpoint.ActShortWrite, failpoint.ActError}},
	{"storage.dw_clear", []failpoint.Action{failpoint.ActError}},
	{"storage.pool_evict", []failpoint.Action{failpoint.ActError}},
	{"wal.append", []failpoint.Action{failpoint.ActShortWrite, failpoint.ActTornWrite, failpoint.ActError}},
	{"wal.fsync", []failpoint.Action{failpoint.ActError}},
	{"wal.truncate", []failpoint.Action{failpoint.ActError}},
	{"txn.commit_wal", []failpoint.Action{failpoint.ActError}},
	{"txn.commit_apply", []failpoint.Action{failpoint.ActError}},
}

// workloadFault draws one one-shot workload fault that fires after up
// to maxAfter hits; a late draw may outlast the round's traffic, which
// then ends in a plain kill.
func (r *run) workloadFault(maxAfter int) (string, failpoint.Spec) {
	wf := workloadFaults[r.rng.Intn(len(workloadFaults))]
	return wf.site, failpoint.Spec{
		Action:  wf.actions[r.rng.Intn(len(wf.actions))],
		AfterN:  uint64(r.rng.Intn(maxAfter)),
		Seed:    r.rng.Int63(),
		OneShot: true,
	}
}

// Schema builds the torture schema: a stock item with a non-negativity
// constraint and a quiescent "sentinel" trigger (its condition can
// never hold while the constraint is enforced, so activations are pure
// durable state).
func Schema() (*ode.Schema, *ode.Class) {
	schema := ode.NewSchema()
	stock := ode.NewClass("stockitem").
		Field("name", ode.TString).
		Field("qty", ode.TInt).
		Constraint("nonneg-qty", "qty >= 0", func(_ ode.Store, o *ode.Object) (bool, error) {
			return o.MustGet("qty").Int() >= 0, nil
		}).
		Trigger(&ode.TriggerDef{
			Name:      "sentinel",
			Perpetual: true,
			Src:       "qty < 0 ==> unreachable",
			Cond: func(_ ode.Store, self *ode.Object, _ []ode.Value) (bool, error) {
				return self.MustGet("qty").Int() < 0, nil
			},
			Action: func(_ ode.Store, _ *ode.Object, _ ode.OID, _ []ode.Value) error {
				return fmt.Errorf("torture: sentinel trigger fired (constraint breached)")
			},
		}).
		Register(schema)
	return schema, stock
}

// dbTx is an embedded transaction that knows its database, for the two
// things ode.ObjectTx does not carry: trigger activation and the
// activation list resolve and verify compare.
type dbTx struct {
	ode.EmbeddedTx
	db *ode.DB
}

// embeddedRunTx is the embedded topology's runTx: exactly one attempt.
func embeddedRunTx(ctx context.Context, db *ode.DB, fn func(ode.ObjectTx) error) error {
	tx := db.BeginCtx(ctx)
	defer tx.Abort() // no-op after commit
	if err := fn(dbTx{ode.EmbeddedTx{Tx: tx}, db}); err != nil {
		return err
	}
	return tx.Commit()
}

// embeddedView is the embedded topology's view.
func embeddedView(db *ode.DB, fn func(ode.ObjectTx) error) error {
	return db.View(func(tx *ode.Tx) error { return fn(dbTx{ode.EmbeddedTx{Tx: tx}, db}) })
}
