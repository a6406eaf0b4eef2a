package torture

// The repl row: a primary and a read replica, both internal/node.Nodes
// in process — the replica configured as `ode-server -replica-of
// PRIMARY -resync` would be — so the armed failpoints fire on whichever
// node does the I/O. Traffic runs on the primary's embedded database.
// Each round arms one workload fault and draws one kill event at a
// random op: a primary kill (restart from disk on the same address), a
// replica kill (down until the round converges, a quarter of them
// recovered and killed again), or a replica wipe (snapshot bootstrap).
// An injected fault in primary traffic restarts the primary, as a
// deployment would, and the plan it cut off is resolved against the
// recovered primary at once. At round end the replica must reach the
// primary's LSN with the same replication identity and a byte-identical
// state digest, and the primary must verify against the model. The run
// ends by promoting the replica, verifying it against the model, and
// writing on it.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"ode"
	"ode/internal/failpoint"
	"ode/internal/node"
	"ode/internal/repl"
	"ode/internal/wal"
)

type replRow struct {
	r                *run
	primary, replica *node.Node
	pstock, rstock   *ode.Class // each node's schema instance
	rpath            string
	repDown          bool // replica deliberately down; rejoins at convergence
}

func newRepl(r *run) row { return &replRow{r: r} }

// smallWALNode starts a node configuration over a fresh instance of
// the torture schema, qty index included, with WAL bounds small enough
// that checkpoints (and so WAL truncation, against the retention gate)
// run constantly.
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
// the shot is spent as it fires, so the next attempt runs clean.
func startNode(n *node.Node) error {
	for attempt := 0; ; attempt++ {
		err := n.Start()
		if err == nil || !errors.Is(err, failpoint.ErrInjected) || attempt >= 4 {
			return err
		}
	}
}

// use points the run's topology at n's embedded database.
func (x *replRow) use(n *node.Node, stock *ode.Class) {
	r := x.r
	r.stock = stock
	r.runTx = func(ctx context.Context, fn func(ode.ObjectTx) error) error {
		return n.WithDB(func(db *ode.DB) error { return embeddedRunTx(ctx, db, fn) })
	}
	r.view = func(fn func(ode.ObjectTx) error) error {
		return n.WithDB(func(db *ode.DB) error { return embeddedView(db, fn) })
	}
	r.dbs = func(fn func(*ode.DB, *ode.Class) error) error {
		return n.WithDB(func(db *ode.DB) error { return fn(db, stock) })
	}
}

func (x *replRow) boot() error {
	r := x.r
	r.triggers = true
	pcfg, pstock := smallWALNode(filepath.Join(r.cfg.Dir, "primary.odb"))
	pcfg.Addr = "127.0.0.1:0"
	pcfg.Server.DrainTimeout = 100 * time.Millisecond
	x.primary, x.pstock = node.New(pcfg), pstock
	if err := startNode(x.primary); err != nil {
		return fmt.Errorf("primary: %w", err)
	}
	// Reconnects, subscribe retries and the restart backoff (fractions
	// of the window) stay negligible against test-scale traffic.
	x.rpath = filepath.Join(r.cfg.Dir, "replica.odb")
	rcfg, rstock := smallWALNode(x.rpath)
	rcfg.Addr = "127.0.0.1:0"
	rcfg.Follow = x.primary.Addr() // stable across the primary's crashes
	rcfg.Resync = true
	rcfg.Replica = repl.ReplicaOptions{DialTimeout: 2 * time.Second, Backoff: 5 * time.Millisecond, MaxBackoff: 50 * time.Millisecond}
	rcfg.Monitor.Window = 150 * time.Millisecond
	rcfg.OnTransition = x.replicaTransition
	x.replica, x.rstock = node.New(rcfg), rstock
	if err := startNode(x.replica); err != nil {
		return fmt.Errorf("replica: %w", err)
	}
	x.use(x.primary, x.pstock)
	for i := 0; i < 30; i++ {
		if _, err := r.transaction(context.Background()); err != nil {
			return err
		}
	}
	return nil
}

// replicaTransition watches the replica heal itself. A resync demand or
// an injected fault in its apply or recovery path is an expected hazard
// — the node wipes and bootstraps from a snapshot, or is restarted at
// convergence; any other stream death fails the run.
func (x *replRow) replicaTransition(t node.Transition) {
	fmt.Fprintf(x.r.log, "[replica] %v\n", t)
	switch t.Kind {
	case node.Resyncing:
		x.r.count("resyncs", 1)
	case node.StreamDied, node.Failed:
		if !errors.Is(t.Err, repl.ErrResyncRequired) && !errors.Is(t.Err, failpoint.ErrInjected) {
			x.r.failf("replica: %v", t)
		}
	}
}

func (x *replRow) round(n int) error {
	r := x.r
	site, spec := r.workloadFault(40)
	if err := r.arm(site, spec); err != nil {
		return err
	}
	// kill: 0 primary, 1 replica, 2 replica wipe, 3+ none (the armed
	// fault may still crash a node on its own).
	kill, killAt := r.rng.Intn(6), r.rng.Intn(r.cfg.OpsPerRound)
	fmt.Fprintf(r.log, "round %d: arm %s %v kill=%d at op %d\n", n, site, spec, kill, killAt)

	err := r.traffic(func(op int) (bool, error) {
		if op == killAt {
			if err := x.kill(kill); err != nil {
				return false, err
			}
		}
		var p *pending
		var err error
		switch {
		case r.rng.Intn(10) == 0:
			err = x.primary.WithDB((*ode.DB).Checkpoint)
		case r.rng.Intn(8) == 0:
			err = x.replicaProbe()
		case r.rng.Intn(10) == 0:
			err = r.constraintAbort()
		default:
			p, err = r.transaction(context.Background())
		}
		switch {
		case err == nil:
			return false, nil
		case !errors.Is(err, failpoint.ErrInjected):
			return false, fmt.Errorf("unexpected engine error: %w", err)
		}
		if p != nil {
			r.doubt(p)
		}
		if err := x.crashPrimary(); err != nil {
			return false, fmt.Errorf("primary recovery after fault: %w", err)
		}
		return false, r.resolve()
	})
	failpoint.DisarmAll()
	if err != nil {
		return err
	}
	if err := x.waitConverged(); err != nil {
		return err
	}
	pd, lsn, pid, err := digest(x.primary, x.pstock)
	if err != nil {
		return fmt.Errorf("primary digest: %w", err)
	}
	rd, _, rid, err := digest(x.replica, x.rstock)
	if err != nil {
		return fmt.Errorf("replica digest: %w", err)
	}
	if pid != rid {
		return r.failf("replication id diverged: primary %q, replica %q", pid, rid)
	}
	if pd != rd {
		return r.failf("state diverged at LSN %d: primary %s, replica %s", lsn, pd, rd)
	}
	if err := r.verify(); err != nil {
		return fmt.Errorf("verify primary: %w", err)
	}
	fmt.Fprintf(r.log, "round %d: converged at LSN %d digest %s\n", n, lsn, pd[:12])
	return nil
}

// kill runs the round's kill event.
func (x *replRow) kill(kind int) error {
	switch kind {
	case 0:
		if err := x.crashPrimary(); err != nil {
			return fmt.Errorf("primary recovery: %w", err)
		}
	case 1:
		return x.crashReplica()
	case 2:
		// The next subscribe offers a snapshot bootstrap (only an empty
		// database may take one).
		x.replica.Kill()
		x.r.count("wipes", 1)
		x.repDown = true
		return ode.RemoveFiles(x.rpath)
	}
	return nil
}

// crashPrimary kills the primary mid-flight — server down, source
// detached, dirty state dropped — and restarts it from disk.
func (x *replRow) crashPrimary() error {
	x.primary.Kill()
	x.r.count("pcrashes", 1)
	return startNode(x.primary)
}

// crashReplica kills the replica and leaves it down until convergence,
// so traffic committed meanwhile exercises incremental catch-up. One
// time in four it is first recovered and killed again (recovery
// idempotence on the replica side).
func (x *replRow) crashReplica() error {
	x.replica.Kill()
	x.r.count("rcrashes", 1)
	if x.r.rng.Intn(4) == 0 {
		if err := startNode(x.replica); err != nil {
			return fmt.Errorf("replica recovery: %w", err)
		}
		x.replica.Kill()
	}
	x.repDown = true
	return nil
}

// replicaProbe exercises the replica's serving surface mid-stream: a
// write must fail with the typed read-only error, and a read of a live
// object must succeed or be cleanly absent (replication lag).
func (x *replRow) replicaProbe() error {
	if x.repDown {
		return nil
	}
	oid := x.r.pickLive(x.r.newPlan(), nil)
	err := x.replica.WithDB(func(rdb *ode.DB) error {
		tx := rdb.Begin()
		o := ode.NewObject(x.rstock)
		o.MustSet("name", ode.Str("probe"))
		o.MustSet("qty", ode.Int(1))
		_, err := tx.PNew(x.rstock, o)
		tx.Abort()
		if !errors.Is(err, ode.ErrReadOnly) {
			return x.r.failf("replica write = %v, want ode.ErrReadOnly", err)
		}
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
		// the way a deployment would.
		return x.crashReplica()
	case errors.Is(err, ode.ErrNoObject), errors.Is(err, node.ErrDown):
		return nil // replication lag, or the replica is between incarnations
	}
	return err
}

// waitConverged blocks until the replica has applied the primary's last
// committed batch, starting it again if the harness took it down or an
// injected fault failed its healing restart.
func (x *replRow) waitConverged() error {
	var target, applied uint64
	x.primary.WithDB(func(db *ode.DB) error { target = db.AppliedLSN(); return nil })
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		if err := x.r.violation(); err != nil {
			return err
		}
		if err := startNode(x.replica); err != nil {
			return fmt.Errorf("replica rejoin: %w", err)
		}
		x.repDown = false
		// A replica between incarnations reports nothing; keep waiting.
		x.replica.WithDB(func(db *ode.DB) error { applied = db.AppliedLSN(); return nil })
		if applied >= target {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica stuck at LSN %d, primary at %d", applied, target)
		}
	}
}

// finish promotes the replica: it must become writable at a fencing
// epoch past the primary's, hold the whole modelled history, and take
// a write.
func (x *replRow) finish() error {
	var oldEpoch uint64
	x.primary.WithDB(func(db *ode.DB) error { oldEpoch = db.Epoch(); return nil })
	if err := x.replica.Promote(); err != nil {
		return fmt.Errorf("promote replica: %w", err)
	}
	if err := x.replica.WithDB(func(db *ode.DB) error {
		if db.ReadOnly() {
			return fmt.Errorf("promoted replica still read-only")
		}
		if epoch := db.Epoch(); epoch <= oldEpoch {
			return fmt.Errorf("promotion epoch %d did not advance past the primary's %d", epoch, oldEpoch)
		}
		return nil
	}); err != nil {
		return err
	}
	x.use(x.replica, x.rstock)
	if err := x.r.verify(); err != nil {
		return fmt.Errorf("verify promoted replica: %w", err)
	}
	if _, err := x.r.createOne(context.Background()); err != nil {
		return fmt.Errorf("write on promoted replica: %w", err)
	}
	return nil
}

func (x *replRow) shutdown() {
	for _, n := range []*node.Node{x.primary, x.replica} {
		if n != nil {
			n.Close()
		}
	}
}

// digest hashes node n's full replicated state at its applied LSN:
// every snapshot op (current images and frozen versions, the exact
// bytes a resync would ship) plus the secondary index extent, as sorted
// lines so the hash is order-independent. It is the byte-level
// convergence check of the repl and netchaos rows; a batch applied
// under the scan is an error (the caller samples again).
func digest(n *node.Node, stock *ode.Class) (d string, lsn uint64, replID string, err error) {
	err = n.WithDB(func(db *ode.DB) error {
		lsn, replID = db.AppliedLSN(), db.ReplicationID()
		var lines []string
		err := db.Manager().SnapshotOps(func(op *wal.Op) error {
			lines = append(lines, fmt.Sprintf("op %d @%d v%d c%d %x", op.Type, op.OID, op.Version, op.ClassID, op.Image))
			return nil
		})
		if err != nil {
			return err
		}
		idx, err := db.Manager().IndexOIDs(stock, "qty", ode.Null, ode.Null)
		if err != nil {
			return err
		}
		for _, oid := range idx {
			lines = append(lines, fmt.Sprintf("idx @%d", oid))
		}
		sort.Strings(lines)
		h := sha256.Sum256([]byte(strings.Join(lines, "\n")))
		d = hex.EncodeToString(h[:])
		if db.AppliedLSN() != lsn {
			return fmt.Errorf("applying mid-digest")
		}
		return nil
	})
	return d, lsn, replID, err
}
