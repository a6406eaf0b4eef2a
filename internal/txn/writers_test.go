package txn

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"ode/internal/obs"
)

// TestWALWriters pins down, for every engine path that writes the WAL,
// exactly what one call writes with fsync on: the records appended,
// the fsyncs issued, how far the LSN moves and which LSNs reach the
// commit listener. The second half runs each path on a closed engine,
// which must refuse before anything reaches the log.
func TestWALWriters(t *testing.T) {
	type outcome struct {
		appends, fsyncs, lsnAdvance uint64
		announced                   int // LSNs announced, each one past the LSN before the call
	}
	rows := []struct {
		name string
		// setup prepares the engine and returns the call under test.
		setup func(t *testing.T, e *Engine) func() error
		open  outcome
		// closedErr is what the call returns on a closed engine.
		closedErr error
	}{
		{
			name: "commit",
			setup: func(t *testing.T, e *Engine) func() error {
				tx := writeTx(t, e)
				return tx.Commit
			},
			open:      outcome{appends: 1, fsyncs: 1, lsnAdvance: 1, announced: 1},
			closedErr: ErrDBClosed,
		},
		{
			name: "prepare",
			setup: func(t *testing.T, e *Engine) func() error {
				tx := writeTx(t, e)
				return func() error { return e.Prepare(tx, "g-w") }
			},
			open:      outcome{appends: 1, fsyncs: 1},
			closedErr: ErrDBClosed,
		},
		{
			name: "commit-prepared",
			setup: func(t *testing.T, e *Engine) func() error {
				prepare(t, e, writeTx(t, e), "g-w")
				return func() error { _, err := e.CommitPrepared("g-w"); return err }
			},
			open:      outcome{appends: 2, fsyncs: 1, lsnAdvance: 1, announced: 1},
			closedErr: ErrDBClosed,
		},
		{
			name: "commit-prepared-read-only",
			setup: func(t *testing.T, e *Engine) func() error {
				prepare(t, e, e.Begin(), "g-r")
				return func() error { _, err := e.CommitPrepared("g-r"); return err }
			},
			open:      outcome{appends: 1, fsyncs: 1},
			closedErr: ErrDBClosed,
		},
		{
			name: "abort-prepared",
			setup: func(t *testing.T, e *Engine) func() error {
				prepare(t, e, writeTx(t, e), "g-w")
				return func() error { return e.AbortPrepared("g-w") }
			},
			open:      outcome{appends: 1},
			closedErr: nil,
		},
		{
			name: "apply-replicated",
			setup: func(t *testing.T, e *Engine) func() error {
				primary, _ := newTestEngine(t)
				var shipped []byte
				primary.SetOnCommit(func(_ uint64, raw []byte) { shipped = raw })
				if err := writeTx(t, primary).Commit(); err != nil {
					t.Fatal(err)
				}
				return func() error { return e.ApplyReplicatedBatch(e.log.LSN()+1, shipped) }
			},
			open:      outcome{appends: 1, fsyncs: 1, lsnAdvance: 1, announced: 1},
			closedErr: ErrDBClosed,
		},
		{
			name: "append-side-batch",
			setup: func(t *testing.T, e *Engine) func() error {
				return func() error {
					return e.WithCommitLock(func() error { return e.AppendSideBatch(nil) })
				}
			},
			open:      outcome{appends: 1, fsyncs: 1, lsnAdvance: 1, announced: 1},
			closedErr: ErrDBClosed,
		},
	}
	for _, row := range rows {
		for _, closed := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/closed=%v", row.name, closed), func(t *testing.T) {
				e, _ := newTestEngine(t)
				var met obs.WALMetrics
				e.log.SetMetrics(&met)
				var announced []uint64
				e.SetOnCommit(func(lsn uint64, _ []byte) { announced = append(announced, lsn) })
				call := row.setup(t, e)
				if closed {
					e.MarkClosed()
				}
				appends, fsyncs, lsn := met.Appends.Load(), met.Fsyncs.Load(), e.log.LSN()
				err := call()
				got := outcome{
					appends:    met.Appends.Load() - appends,
					fsyncs:     met.Fsyncs.Load() - fsyncs,
					lsnAdvance: e.log.LSN() - lsn,
					announced:  len(announced),
				}
				var want outcome
				var wantAnnounced []uint64
				if closed {
					if !errors.Is(err, row.closedErr) {
						t.Fatalf("closed engine: err = %v, want %v", err, row.closedErr)
					}
				} else {
					if err != nil {
						t.Fatal(err)
					}
					want = row.open
					for i := 1; i <= want.announced; i++ {
						wantAnnounced = append(wantAnnounced, lsn+uint64(i))
					}
				}
				if got != want {
					t.Errorf("wrote %+v, want %+v", got, want)
				}
				if len(announced) > 0 && !reflect.DeepEqual(announced, wantAnnounced) {
					t.Errorf("announced LSNs %v, want %v", announced, wantAnnounced)
				}
			})
		}
	}
}

// writeTx begins a transaction on e that creates one object.
func writeTx(t *testing.T, e *Engine) *Tx {
	t.Helper()
	item, _ := e.mgr.Schema().ClassNamed("item")
	tx := e.Begin()
	if _, err := tx.PNew(item, newItem(item, "w", 1)); err != nil {
		t.Fatal(err)
	}
	return tx
}

// prepare votes yes on tx under gid.
func prepare(t *testing.T, e *Engine, tx *Tx, gid string) {
	t.Helper()
	if err := e.Prepare(tx, gid); err != nil {
		t.Fatal(err)
	}
}
