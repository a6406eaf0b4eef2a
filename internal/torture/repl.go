package torture

// Replication torture: a primary with a real wire server and a replica
// following its WAL stream, both in-process so the shared failpoint
// sites fire on whichever node happens to do the I/O. Rounds drive
// randomized traffic on the primary while killing either node at a
// random point (process-style: CrashForTesting, recover from disk,
// rejoin), occasionally wiping the replica outright so the snapshot
// bootstrap path runs too. The invariant under test is byte-level
// convergence: once traffic quiesces and the replica's applied LSN
// matches the primary's, the two databases must hold identical object
// state — every current image, every frozen version, and the secondary
// index — and share one replication identity. The final round promotes
// the replica and verifies it accepts writes.

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"ode"
	"ode/internal/failpoint"
	"ode/internal/node"
	"ode/internal/repl"
	"ode/internal/wal"
)

// ReplConfig parameterizes a replication torture run.
type ReplConfig struct {
	// Seed drives every random decision of the run.
	Seed int64
	// Rounds is the number of traffic/kill/converge/verify cycles.
	Rounds int
	// OpsPerRound bounds the transactions attempted per round.
	OpsPerRound int
	// Dir holds both stores' files. It must exist; the harness never
	// deletes it (CI uploads it as an artifact on failure).
	Dir string
	// Log, if non-nil, receives one progress line per round.
	Log io.Writer
}

// ReplResult summarizes a completed replication torture run.
type ReplResult struct {
	Rounds         int
	Ops            int
	Commits        int
	Aborts         int
	PrimaryCrashes int
	ReplicaCrashes int
	Wipes          int // deliberate replica wipes (forced snapshot bootstrap)
	Resyncs        int // resync demands from the primary (wipe + snapshot)
	Faults         uint64
	SitesFired     map[string]uint64
}

// replRun carries the state of one replication torture run. Both nodes
// are internal/node.Nodes — the runtime ode-server runs — the replica
// configured as `-replica-of PRIMARY -resync` would be.
type replRun struct {
	cfg ReplConfig
	rng *rand.Rand
	log io.Writer

	primary, replica *node.Node
	stock            *ode.Class // the primary's schema instance
	rstock           *ode.Class // the replica's
	rpath            string
	repDown          bool // replica deliberately down; rejoins at convergence

	// Written by the replica's transition callback, on its goroutines.
	resyncs   atomic.Int64
	streamErr atomic.Pointer[error] // a stream death no armed hazard explains

	oids []ode.OID // live objects on the primary (rebuilt from the extent after crashes)
	res  ReplResult
}

// RunRepl executes one replication torture run; any divergence or
// unexpected engine error is returned with the seed for reproduction.
func RunRepl(cfg ReplConfig) (*ReplResult, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("torture: ReplConfig.Dir is required")
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 8
	}
	if cfg.OpsPerRound <= 0 {
		cfg.OpsPerRound = 30
	}
	logW := cfg.Log
	if logW == nil {
		logW = io.Discard
	}
	r := &replRun{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		log:   logW,
		rpath: filepath.Join(cfg.Dir, "replica.odb"),
	}
	firesBefore := failpoint.FireCounts()
	defer failpoint.DisarmAll()

	err := r.runAll()
	r.res.Resyncs = int(r.resyncs.Load())
	fires := failpoint.FireCounts()
	r.res.SitesFired = make(map[string]uint64)
	for site, n := range fires {
		if d := n - firesBefore[site]; d > 0 {
			r.res.SitesFired[site] = d
			r.res.Faults += d
		}
	}
	if err != nil {
		return &r.res, fmt.Errorf("torture(repl): seed %d: %w (stores kept at %s)", cfg.Seed, err, cfg.Dir)
	}
	return &r.res, nil
}

// smallWALNode starts a node configuration over a fresh instance of
// the torture schema, qty index included, with WAL bounds small enough
// that checkpoints (and so WAL truncation, against the retention gate)
// run constantly. Both replication torture modes build on it.
func smallWALNode(path string) (node.Config, *ode.Class) {
	schema, stock := Schema()
	return node.Config{
		Path:    path,
		Schema:  schema,
		Indexes: []node.Index{{Class: stock, Field: "qty"}},
		DB:      ode.Options{PoolPages: 48, WALSoftLimit: 32 << 10, WALHardLimit: 256 << 10},
	}, stock
}

// startNode brings a node up (one that is up is left alone), retrying
// when the round's armed one-shot fault fires inside recovery or DDL:
// the shot is spent as it fires, so the next attempt runs clean —
// recovery under injected faults is exactly what the crash/reopen cycle
// is for.
func startNode(n *node.Node) error {
	for attempt := 0; ; attempt++ {
		err := n.Start()
		if err == nil || !errors.Is(err, failpoint.ErrInjected) || attempt >= 4 {
			return err
		}
	}
}

func (r *replRun) runAll() error {
	pcfg, pstock := smallWALNode(filepath.Join(r.cfg.Dir, "primary.odb"))
	pcfg.Addr = "127.0.0.1:0"
	pcfg.Server.DrainTimeout = 100 * time.Millisecond
	r.primary, r.stock = node.New(pcfg), pstock
	defer r.primary.Close()
	if err := r.startPrimary(); err != nil {
		return fmt.Errorf("boot primary: %w", err)
	}
	// The replica, as `ode-server -replica-of PRIMARY -resync` would be.
	// Reconnects, subscribe retries and the restart backoff (fractions of
	// the window) stay negligible against test-scale traffic: the primary
	// restarts within milliseconds of a crash.
	rcfg, rstock := smallWALNode(r.rpath)
	rcfg.Addr = "127.0.0.1:0"
	rcfg.Follow = r.primary.Addr() // stable across the primary's crashes
	rcfg.Resync = true
	rcfg.Replica = repl.ReplicaOptions{
		DialTimeout: 2 * time.Second,
		Backoff:     5 * time.Millisecond,
		MaxBackoff:  50 * time.Millisecond,
	}
	rcfg.Monitor.Window = 150 * time.Millisecond
	rcfg.OnTransition = r.replicaTransition
	r.replica, r.rstock = node.New(rcfg), rstock
	defer r.replica.Close()
	if err := startNode(r.replica); err != nil {
		return fmt.Errorf("boot replica: %w", err)
	}
	if err := r.seed(); err != nil {
		return fmt.Errorf("seed population: %w", err)
	}

	for round := 1; round <= r.cfg.Rounds; round++ {
		if err := r.round(round); err != nil {
			return fmt.Errorf("round %d: %w", round, err)
		}
		r.res.Rounds++
	}

	// Final act: promote the replica and verify it accepts writes over
	// the full replicated history, at a freshly bumped fencing epoch.
	var oldEpoch uint64
	r.primary.WithDB(func(db *ode.DB) error { oldEpoch = db.Epoch(); return nil })
	if err := r.replica.Promote(); err != nil {
		return fmt.Errorf("promote replica: %w", err)
	}
	return r.replica.WithDB(func(db *ode.DB) error {
		if db.ReadOnly() {
			return fmt.Errorf("promoted replica still read-only")
		}
		if epoch := db.Epoch(); epoch <= oldEpoch {
			return fmt.Errorf("promotion epoch %d did not advance past the primary's %d", epoch, oldEpoch)
		}
		tx := db.Begin()
		defer tx.Abort()
		o := ode.NewObject(r.rstock)
		o.MustSet("name", ode.Str("post-promote"))
		o.MustSet("qty", ode.Int(1))
		if _, err := tx.PNew(r.rstock, o); err != nil {
			return fmt.Errorf("write on promoted replica: %w", err)
		}
		if err := tx.Commit(); err != nil {
			return fmt.Errorf("commit on promoted replica: %w", err)
		}
		return nil
	})
}

// replicaTransition watches the replica heal itself. A resync demand
// or an injected fault in its apply or recovery path is an expected
// hazard — the node wipes and bootstraps from a snapshot, the recovery
// ode-server -resync performs, or is restarted at convergence;
// anything else fails the run.
func (r *replRun) replicaTransition(t node.Transition) {
	fmt.Fprintf(r.log, "[replica] %v\n", t)
	switch t.Kind {
	case node.Resyncing:
		r.resyncs.Add(1)
	case node.StreamDied, node.Failed:
		if !errors.Is(t.Err, repl.ErrResyncRequired) && !errors.Is(t.Err, failpoint.ErrInjected) {
			err := fmt.Errorf("replica: %v", t)
			r.streamErr.CompareAndSwap(nil, &err)
		}
	}
}

// startPrimary boots the primary (or reboots it after a crash, on the
// address it first bound, so the replica's reconnect loop finds it
// again) and rebuilds the traffic target list from its extent — the
// durable truth after a crash resolves uncertain commits.
func (r *replRun) startPrimary() error {
	if err := startNode(r.primary); err != nil {
		return err
	}
	return r.primary.WithDB(func(db *ode.DB) error {
		oids, err := db.Manager().ClusterOIDs(r.stock)
		r.oids = oids
		return err
	})
}

// crashPrimary kills the primary mid-flight and brings it back from
// disk: server down, source detached, dirty state dropped, recovery.
func (r *replRun) crashPrimary() error {
	r.primary.Kill()
	r.res.PrimaryCrashes++
	return r.startPrimary()
}

// crashReplica kills the replica and leaves it down — the caller
// decides when it rejoins, so traffic committed in between exercises
// incremental catch-up. One time in four it is first recovered and
// killed again, checking recovery idempotence on the replica side too.
func (r *replRun) crashReplica() error {
	r.replica.Kill()
	r.res.ReplicaCrashes++
	if r.rng.Intn(4) == 0 {
		if err := startNode(r.replica); err != nil {
			return fmt.Errorf("replica recovery: %w", err)
		}
		r.replica.Kill()
	}
	r.repDown = true
	return nil
}

// seed populates the primary so round one has targets.
func (r *replRun) seed() error {
	for i := 0; i < 30; i++ {
		if err := r.primary.WithDB(r.transaction); err != nil {
			return err
		}
	}
	return nil
}

// round runs one arm/traffic/kill/converge/verify cycle. Kills land at
// a random op index inside the traffic so the rejoining node has a
// real gap to catch up across.
func (r *replRun) round(round int) error {
	wf := workloadFaults[r.rng.Intn(len(workloadFaults))]
	spec := failpoint.Spec{
		Action:  wf.actions[r.rng.Intn(len(wf.actions))],
		AfterN:  uint64(r.rng.Intn(40)),
		Seed:    r.rng.Int63(),
		OneShot: true,
	}
	if err := failpoint.Arm(wf.site, spec); err != nil {
		return err
	}
	// kill: 0 primary, 1 replica, 2 replica wipe (snapshot bootstrap),
	// 3+ none (the armed fault may still crash a node on its own).
	kill := r.rng.Intn(6)
	killAt := r.rng.Intn(r.cfg.OpsPerRound)
	fmt.Fprintf(r.log, "round %d: arm %s %v kill=%d at op %d\n", round, wf.site, spec, kill, killAt)

	for op := 0; op < r.cfg.OpsPerRound; op++ {
		r.res.Ops++
		if op == killAt {
			switch kill {
			case 0:
				if err := r.crashPrimary(); err != nil {
					return fmt.Errorf("primary recovery: %w", err)
				}
			case 1:
				if err := r.crashReplica(); err != nil {
					return err
				}
			case 2:
				// The next subscribe offers a snapshot bootstrap (only an
				// empty database may take one).
				r.replica.Kill()
				r.res.Wipes++
				if err := ode.RemoveFiles(r.rpath); err != nil {
					return err
				}
				r.repDown = true
			}
		}
		var err error
		switch {
		case r.rng.Intn(10) == 0:
			err = r.primary.WithDB((*ode.DB).Checkpoint)
		case r.rng.Intn(8) == 0:
			err = r.replicaProbe()
		default:
			err = r.primary.WithDB(r.transaction)
		}
		switch {
		case err == nil:
		case errors.Is(err, failpoint.ErrInjected):
			// The primary erred mid-commit (or mid-checkpoint): crash it
			// and recover, as a real deployment's restart would. The
			// extent reload resolves any uncertain commit either way.
			if err := r.crashPrimary(); err != nil {
				return fmt.Errorf("primary recovery after fault: %w", err)
			}
		default:
			return fmt.Errorf("unexpected engine error: %w", err)
		}
	}
	failpoint.DisarmAll()

	// Converge: quiesce traffic, rejoin the replica if it is down, and
	// wait until its applied position reaches the primary's.
	if err := r.waitConverged(); err != nil {
		return err
	}

	// Verify: identical identity and byte-level state.
	var pid, pd string
	var lsn uint64
	if err := r.primary.WithDB(func(db *ode.DB) (err error) {
		pid, lsn = db.ReplicationID(), db.LSN()
		pd, err = stateDigest(db, r.stock)
		return err
	}); err != nil {
		return fmt.Errorf("primary digest: %w", err)
	}
	var rid, rd string
	if err := r.replica.WithDB(func(db *ode.DB) (err error) {
		rid = db.ReplicationID()
		rd, err = stateDigest(db, r.rstock)
		return err
	}); err != nil {
		return fmt.Errorf("replica digest: %w", err)
	}
	if pid != rid {
		return fmt.Errorf("replication id diverged: primary %q, replica %q", pid, rid)
	}
	if pd != rd {
		return fmt.Errorf("state diverged at LSN %d: primary %s, replica %s", lsn, pd, rd)
	}
	fmt.Fprintf(r.log, "round %d: converged at LSN %d digest %s\n", round, lsn, pd[:12])
	return nil
}

// waitConverged blocks until the replica has applied the primary's
// last committed batch. The replica heals itself through fatal stream
// exits (resync demands, late fault damage) on the way; one the
// harness took down, or whose healing restart an injected fault
// failed, is started again here.
func (r *replRun) waitConverged() error {
	var target, applied uint64
	r.primary.WithDB(func(db *ode.DB) error { target = db.AppliedLSN(); return nil })
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		if err := r.streamErr.Load(); err != nil {
			return *err
		}
		if err := startNode(r.replica); err != nil {
			return fmt.Errorf("replica rejoin: %w", err)
		}
		r.repDown = false
		// A replica between incarnations reports nothing; keep waiting.
		r.replica.WithDB(func(db *ode.DB) error { applied = db.AppliedLSN(); return nil })
		if applied >= target {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica stuck at LSN %d, primary at %d", applied, target)
		}
	}
}

// transaction runs 1–3 random operations in one commit on the primary.
// Targets come from the best-effort oid list; one that turns out dead
// (an uncertain commit resolved the other way) is dropped and skipped.
func (r *replRun) transaction(pdb *ode.DB) error {
	tx := pdb.Begin()
	defer tx.Abort()
	var created []ode.OID
	var deleted []ode.OID
	nops := 1 + r.rng.Intn(3)
	for i := 0; i < nops; i++ {
		oid := r.pickOID()
		var err error
		switch k := r.rng.Intn(10); {
		case k <= 2 || oid == ode.NilOID:
			o := ode.NewObject(r.stock)
			o.MustSet("name", ode.Str(fmt.Sprintf("item-%d", r.rng.Intn(1_000_000))))
			o.MustSet("qty", ode.Int(int64(r.rng.Intn(1000))))
			var newOID ode.OID
			if newOID, err = tx.PNew(r.stock, o); err == nil {
				created = append(created, newOID)
			}
		case k == 3 && len(r.oids) > 10:
			if err = tx.PDelete(oid); err == nil {
				deleted = append(deleted, oid)
			}
		case k == 4 || k == 5:
			_, err = tx.NewVersion(oid)
		case k == 6:
			var vs []uint32
			if vs, err = tx.Versions(oid); err == nil && len(vs) > 0 {
				err = tx.DeleteVersion(ode.VRef{OID: oid, Version: vs[r.rng.Intn(len(vs))]})
			}
		default:
			var o *ode.Object
			if o, err = tx.Deref(oid); err == nil {
				o.MustSet("qty", ode.Int(int64(r.rng.Intn(1000))))
				err = tx.Update(oid, o)
			}
		}
		if errors.Is(err, ode.ErrNoObject) {
			r.dropOID(oid)
			continue
		}
		if err != nil {
			r.res.Aborts++
			return err
		}
	}
	if err := tx.Commit(); err != nil {
		r.res.Aborts++
		return err
	}
	r.res.Commits++
	r.oids = append(r.oids, created...)
	for _, oid := range deleted {
		r.dropOID(oid)
	}
	return nil
}

func (r *replRun) pickOID() ode.OID {
	if len(r.oids) == 0 {
		return ode.NilOID
	}
	return r.oids[r.rng.Intn(len(r.oids))]
}

func (r *replRun) dropOID(oid ode.OID) {
	for i, o := range r.oids {
		if o == oid {
			r.oids = append(r.oids[:i], r.oids[i+1:]...)
			return
		}
	}
}

// replicaProbe exercises the replica's serving surface mid-stream: a
// write must fail with the typed read-only error, and a read of a
// recent primary object must either succeed or be cleanly absent
// (replication lag) — never error otherwise.
func (r *replRun) replicaProbe() error {
	if r.repDown {
		return nil
	}
	err := r.replica.WithDB(func(rdb *ode.DB) error {
		tx := rdb.Begin()
		o := ode.NewObject(r.rstock)
		o.MustSet("name", ode.Str("probe"))
		o.MustSet("qty", ode.Int(1))
		_, err := tx.PNew(r.rstock, o)
		tx.Abort()
		if !errors.Is(err, ode.ErrReadOnly) {
			return fmt.Errorf("replica write = %v, want ode.ErrReadOnly", err)
		}
		oid := r.pickOID()
		if oid == ode.NilOID {
			return nil
		}
		err = rdb.View(func(tx *ode.Tx) error {
			_, derr := tx.Deref(oid)
			return derr
		})
		if err != nil && !errors.Is(err, ode.ErrNoObject) && !errors.Is(err, failpoint.ErrInjected) {
			return fmt.Errorf("replica read @%d: %w", oid, err)
		}
		return err
	})
	switch {
	case errors.Is(err, failpoint.ErrInjected):
		// The armed fault fired on the replica's read path; restart it
		// the way a real deployment would.
		return r.crashReplica()
	case errors.Is(err, ode.ErrNoObject), errors.Is(err, node.ErrDown):
		return nil // replication lag, or the replica is between incarnations
	}
	return err
}

// stateDigest hashes one node's full replicated state: every snapshot
// op (current images and frozen versions, the exact bytes a resync
// would ship) plus the secondary index extent. Lines are sorted so the
// hash is order-independent. Both replication torture modes use it as
// their byte-level convergence check.
func stateDigest(db *ode.DB, stock *ode.Class) (string, error) {
	var lines []string
	err := db.Manager().SnapshotOps(func(op *wal.Op) error {
		lines = append(lines, fmt.Sprintf("op %d @%d v%d c%d %x", op.Type, op.OID, op.Version, op.ClassID, op.Image))
		return nil
	})
	if err != nil {
		return "", err
	}
	idx, err := db.Manager().IndexOIDs(stock, "qty", ode.Null, ode.Null)
	if err != nil {
		return "", err
	}
	for _, oid := range idx {
		lines = append(lines, fmt.Sprintf("idx @%d", oid))
	}
	sort.Strings(lines)
	h := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(h[:]), nil
}
