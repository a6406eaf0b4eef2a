package torture

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"ode"
	"ode/internal/failpoint"
)

// fixedSeeds is the deterministic tier of the suite, one row per mode:
// the seeds that must pass on every machine and in CI, the run size,
// the counters that must be non-zero on every seed ("a+b" sums two),
// and those that must be non-zero summed over the row's seeds — faults
// wherever failpoints are armed.
var fixedSeeds = []struct {
	mode            string
	rounds, ops     int
	seeds           []int64
	perSeed, summed []string
}{
	{"", 6, 20, []int64{1, 2, 3}, []string{"commits", "verified"}, []string{"faults"}},
	{"cancel", 6, 25, []int64{7, 11}, []string{"commits", "kills", "verified"}, []string{"overloads", "faults"}},
	{"compact", 6, 25, []int64{9, 21}, []string{"commits", "compactions", "verified"}, []string{"reclaimed", "faults"}},
	{"repl", 6, 25, []int64{5, 13}, []string{"commits", "pcrashes+rcrashes+wipes", "verified"}, []string{"pcrashes", "rcrashes", "faults"}},
	{"netchaos", 5, 18, []int64{17, 42}, []string{"commits", "promotions", "verified"}, []string{"uncertain"}},
	{"shard", 5, 15, []int64{19, 23}, []string{"commits", "coordkills+partkills", "resolved", "verified"}, []string{"crossacked", "crossmixed", "coordkills", "partkills", "faults"}},
}

// runFixedSeeds runs one row of fixedSeeds. Each mode keeps its own
// test function below so a failing mode is named by the test that ran
// it.
func runFixedSeeds(t *testing.T, mode string) {
	i := 0
	for fixedSeeds[i].mode != mode {
		i++
	}
	row := fixedSeeds[i]
	total := make(map[string]int)
	for _, seed := range row.seeds {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			res, err := Run(Config{Mode: mode, Seed: seed, Rounds: row.rounds, OpsPerRound: row.ops, Dir: t.TempDir(), Log: testWriter{t}})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("seed %d: %v", seed, res)
			for name, n := range res.Counts {
				total[name] += n
			}
			for _, names := range row.perSeed {
				if sum(res.Counts, names) == 0 {
					t.Errorf("counter %q is zero: the seed no longer exercises what its mode is for", names)
				}
			}
			// The embedded rows crash and recover in every round.
			if c := res.Counts; (mode == "" || mode == "cancel" || mode == "compact") && c["recoveries"] < c["rounds"] {
				t.Errorf("recoveries %d < rounds %d: crashes are not happening", c["recoveries"], c["rounds"])
			}
		})
	}
	for _, name := range row.summed {
		if total[name] == 0 {
			t.Errorf("counter %q is zero across seeds %v: the mode no longer exercises what it is for", name, row.seeds)
		}
	}
}

// sum adds up the counters names lists, joined by "+".
func sum(counts map[string]int, names string) int {
	n := 0
	for _, name := range strings.Split(names, "+") {
		n += counts[name]
	}
	return n
}

func TestTortureFixedSeeds(t *testing.T)         { runFixedSeeds(t, "") }
func TestTortureCancelFixedSeeds(t *testing.T)   { runFixedSeeds(t, "cancel") }
func TestTortureCompactFixedSeeds(t *testing.T)  { runFixedSeeds(t, "compact") }
func TestTortureReplFixedSeeds(t *testing.T)     { runFixedSeeds(t, "repl") }
func TestTortureNetChaosFixedSeeds(t *testing.T) { runFixedSeeds(t, "netchaos") }
func TestTortureShardFixedSeeds(t *testing.T)    { runFixedSeeds(t, "shard") }

// TestTortureCI is the environment-driven entry point of the CI torture
// matrix. TORTURE_SEED is a number, or RANDOM for a time-derived seed
// that is logged so a failure can be reproduced:
//
//	TORTURE_MODE=shard TORTURE_SEED=12345 go test -run TestTortureCI -v ./internal/torture
//
// TORTURE_MODE names the mode (unset: embedded crash recovery),
// TORTURE_ROUNDS and TORTURE_OPS size the run (unset: 10 and 30, as in
// CI), and with TORTURE_DIR set the store files survive the test for
// artifact upload on failure.
func TestTortureCI(t *testing.T) {
	seedEnv := os.Getenv("TORTURE_SEED")
	if seedEnv == "" {
		t.Skip("TORTURE_SEED not set (CI entry point; the fixed-seed tests run locally)")
	}
	cfg := Config{Mode: os.Getenv("TORTURE_MODE"), Rounds: 10, OpsPerRound: 30, Dir: os.Getenv("TORTURE_DIR"), Log: testWriter{t}}
	var err error
	if strings.EqualFold(seedEnv, "RANDOM") {
		cfg.Seed = time.Now().UnixNano()
	} else if cfg.Seed, err = strconv.ParseInt(seedEnv, 10, 64); err != nil {
		t.Fatalf("bad TORTURE_SEED %q: %v", seedEnv, err)
	}
	for env, dst := range map[string]*int{"TORTURE_ROUNDS": &cfg.Rounds, "TORTURE_OPS": &cfg.OpsPerRound} {
		if v := os.Getenv(env); v != "" {
			if *dst, err = strconv.Atoi(v); err != nil {
				t.Fatalf("bad %s %q: %v", env, v, err)
			}
		}
	}
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	} else if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		t.Fatal(err)
	}
	t.Logf("torture seed %d mode=%s (reproduce: TORTURE_SEED=%d TORTURE_MODE=%s go test -run TestTortureCI -v ./internal/torture)",
		cfg.Seed, cfg.Mode, cfg.Seed, cfg.Mode)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res)
}

func TestRunRejectsUnknownMode(t *testing.T) {
	if _, err := Run(Config{Mode: "chaos"}); err == nil || !strings.Contains(err.Error(), "unknown mode") {
		t.Fatalf("Run(Mode: chaos) = %v, want an unknown-mode error", err)
	}
	if _, err := Run(Config{Rounds: 1, Dir: t.TempDir()}); err == nil || !strings.Contains(err.Error(), "must be positive") {
		t.Fatalf("Run(OpsPerRound: 0) = %v, want a size error", err)
	}
}

// bootRun boots mode's topology and seeds it, without running rounds.
func bootRun(t *testing.T, mode string) *run {
	t.Helper()
	r, err := newRun(Config{Mode: mode, Seed: 1, Rounds: 1, OpsPerRound: 1, Dir: t.TempDir(), Log: testWriter{t}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.row.shutdown)
	if err := r.row.boot(); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestVerifyCatchesWriteBehindModel proves the shared verify has teeth:
// a committed write the model never saw is reported as divergence.
func TestVerifyCatchesWriteBehindModel(t *testing.T) {
	r := bootRun(t, "")
	if err := r.verify(); err != nil {
		t.Fatalf("verify before the rogue write: %v", err)
	}
	oid := keys(r.model)[0]
	err := r.row.(*embedded).db.RunTx(func(tx *ode.Tx) error {
		o, err := tx.Deref(oid)
		if err != nil {
			return err
		}
		o.MustSet("qty", ode.Int(o.MustGet("qty").Int()+1))
		return tx.Update(oid, o)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.verify(); err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("verify after a write behind the model = %v, want divergence", err)
	}
}

// TestResolveCatchesSplitDecision proves the shared resolve is the 2PC
// atomicity sweep: a staged transaction committed on its coordinator
// and aborted on a participant is reported as an atomicity violation.
func TestResolveCatchesSplitDecision(t *testing.T) {
	r := bootRun(t, "shard")
	x := r.row.(*shardRow)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	p, gid := r.newPlan(), "s0-split-1"
	if ok, err := x.stage(ctx, p, []int{0, 1}, gid); !ok {
		t.Fatalf("stage: %v", err)
	}
	if _, _, err := x.router.Shard(0).CommitPrepared(ctx, gid); err != nil {
		t.Fatal(err)
	}
	if err := x.router.Shard(1).AbortPrepared(ctx, gid); err != nil {
		t.Fatal(err)
	}
	r.doubt(p)
	if err := r.resolve(); err == nil || !strings.Contains(err.Error(), "atomicity violation") {
		t.Fatalf("resolve of a split decision = %v, want an atomicity violation", err)
	}
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimRight(string(p), "\n"))
	return len(p), nil
}

// tornFlushAttempt drives the exact sequence the double-write buffer
// exists for: dirty pages, a checkpoint whose (afterN+1)-th in-place
// page write is torn mid-write, then a crash. With the buffer on,
// recovery must restore the staged image and the store reopens intact.
// With the buffer skipped (Options.UnsafeSkipDoubleWrite — a
// deliberately introduced durability bug), the torn page survives to
// disk and recovery must *detect* it as a checksum failure.
//
// Which page the (afterN+1)-th write lands on depends on the flush
// order of the dirty-frame set (map iteration), so a single attempt may
// tear a freshly allocated page that recovery can legitimately rebuild
// from the WAL. The callers therefore sweep afterN across the first few
// writes: some attempt is guaranteed to hit a page that was durable at
// the previous checkpoint (catalog, directory, or old heap), which a
// store without torn-page protection cannot survive silently.
//
// fired reports whether the fault triggered at all (false once afterN
// exceeds the number of page writes the checkpoint issues).
func tornFlushAttempt(t *testing.T, skipDoubleWrite bool, afterN int) (fired bool, reopenErr error) {
	t.Helper()
	defer failpoint.DisarmAll()
	dir := t.TempDir()
	path := dir + "/torn.odb"

	schema, stock := Schema()
	db, err := ode.Open(path, schema, &ode.Options{PoolPages: 48, UnsafeSkipDoubleWrite: skipDoubleWrite})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateCluster(stock); err != nil {
		t.Fatal(err)
	}
	// Records are padded past the torn-write sector size (512 B) so that
	// rewriting one changes page bytes beyond the first sector. A tear
	// whose delta fits entirely inside the surviving prefix would be
	// undetectable — and genuinely harmless, since nothing was lost.
	pad := func(tag string, i int) string {
		return fmt.Sprintf("%s-%03d-%s", tag, i, strings.Repeat(tag[:1], 680))
	}
	var oids []ode.OID
	for i := 0; i < 30; i++ {
		tx := db.Begin()
		o := ode.NewObject(stock)
		o.MustSet("name", ode.Str(pad("old", i)))
		o.MustSet("qty", ode.Int(int64(i)))
		oid, err := tx.PNew(stock, o)
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Dirty every object so the next checkpoint rewrites heap pages.
	// The replacement name has the same length but different bytes
	// throughout, so every record's change spans multiple sectors.
	for i, oid := range oids {
		tx := db.Begin()
		o, err := tx.Deref(oid)
		if err != nil {
			t.Fatal(err)
		}
		o.MustSet("name", ode.Str(pad("new", i)))
		o.MustSet("qty", ode.Int(o.MustGet("qty").Int()+1000))
		if err := tx.Update(oid, o); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// Tear the (afterN+1)-th in-place page write of the checkpoint
	// flush, then crash.
	if err := failpoint.Arm("storage.page_write", failpoint.Spec{
		Action:  failpoint.ActTornWrite,
		AfterN:  uint64(afterN),
		OneShot: true,
	}); err != nil {
		t.Fatal(err)
	}
	err = db.Checkpoint()
	failpoint.DisarmAll()
	if err == nil {
		// afterN exceeded the checkpoint's page writes: nothing torn.
		db.CrashForTesting()
		return false, nil
	}
	if !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("checkpoint error = %v, want injected fault", err)
	}
	db.CrashForTesting()

	schema2, stock2 := Schema()
	db2, err := ode.Open(path, schema2, &ode.Options{PoolPages: 48})
	if err != nil {
		return true, err
	}
	defer db2.Close()
	// Recovery succeeded: every committed update must be present.
	for i, oid := range oids {
		var qty int64
		var name string
		err := db2.View(func(tx *ode.Tx) error {
			o, err := tx.Deref(oid)
			if err != nil {
				return err
			}
			qty = o.MustGet("qty").Int()
			name = o.MustGet("name").Str()
			return nil
		})
		if err != nil {
			t.Fatalf("object %d lost after recovery: %v", i, err)
		}
		if want := int64(i) + 1000; qty != want {
			t.Fatalf("object %d qty = %d after recovery, want %d", i, qty, want)
		}
		if want := pad("new", i); name != want {
			t.Fatalf("object %d name corrupt after recovery", i)
		}
	}
	exts, err := db2.Manager().ClusterOIDs(stock2)
	if err != nil {
		t.Fatal(err)
	}
	if len(exts) != len(oids) {
		t.Fatalf("extent holds %d objects after recovery, want %d", len(exts), len(oids))
	}
	return true, nil
}

// tornSweepMax bounds the afterN sweep: the scenario's checkpoint
// flushes well under this many pages, so the sweep always covers every
// write position (and stops early once the fault no longer fires).
const tornSweepMax = 16

// TestTornPageFencedByDoubleWrite is the control: with the double-write
// buffer in place, a torn checkpoint write is invisible no matter which
// page it lands on — recovery restores the staged image and nothing is
// lost.
func TestTornPageFencedByDoubleWrite(t *testing.T) {
	attempts := 0
	for k := 0; k < tornSweepMax; k++ {
		fired, err := tornFlushAttempt(t, false, k)
		if !fired {
			break
		}
		attempts++
		if err != nil {
			t.Fatalf("write %d: reopen after torn checkpoint write failed despite double-write protection: %v", k, err)
		}
	}
	if attempts == 0 {
		t.Fatal("fault never fired; checkpoint issued no page writes")
	}
	t.Logf("tore each of the checkpoint's %d page writes; recovery survived all", attempts)
}

// TestSkippedDoubleWriteCaught asserts the suite detects the durability
// bug: skipping the double-write buffer lets a torn page reach disk,
// and for at least one write position (a page that was durable at the
// previous checkpoint) recovery must refuse the store with a checksum
// error rather than silently serving corrupt data. Tears that land on
// freshly allocated pages are legitimately absorbed by WAL replay, so
// those attempts are allowed to recover.
func TestSkippedDoubleWriteCaught(t *testing.T) {
	attempts, caught := 0, 0
	for k := 0; k < tornSweepMax; k++ {
		fired, err := tornFlushAttempt(t, true, k)
		if !fired {
			break
		}
		attempts++
		if err == nil {
			continue
		}
		if !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("write %d: reopen error = %v, want a checksum detection", k, err)
		}
		caught++
	}
	if attempts == 0 {
		t.Fatal("fault never fired; checkpoint issued no page writes")
	}
	if caught == 0 {
		t.Fatalf("recovery accepted all %d torn-page variants written without double-write protection", attempts)
	}
	t.Logf("%d/%d torn writes detected as checksum failures", caught, attempts)
}
