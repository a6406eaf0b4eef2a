package ode

import (
	"errors"
	"path/filepath"
	"testing"

	"ode/internal/wal"
)

// TestReplicatedBatchDurableOnReplica: batches a primary announces,
// applied on a read-only replica, move the replica's LSN in step with
// the primary's; a batch that skips an LSN is refused before anything
// reaches the replica's WAL; and the applied batches survive a crash
// of the replica.
func TestReplicatedBatchDurableOnReplica(t *testing.T) {
	primary, stock := openTestDB(t, nil)
	type shipped struct {
		lsn uint64
		raw []byte
	}
	var batches []shipped
	primary.OnCommitBatch(func(lsn uint64, raw []byte) {
		batches = append(batches, shipped{lsn, append([]byte(nil), raw...)})
	})
	oids := []OID{addItem(t, primary, stock, "a", 1, 1), addItem(t, primary, stock, "b", 2, 1)}
	if len(batches) != 2 {
		t.Fatalf("primary announced %d batches, want 2", len(batches))
	}
	path := filepath.Join(t.TempDir(), "replica.odb")
	crashAfter(t, path, func(replica *DB, _ *Class) {
		replica.SetReadOnly(true)
		if next := replica.LSN() + 1; next != batches[0].lsn {
			t.Fatalf("replica expects LSN %d, the primary's first batch is %d", next, batches[0].lsn)
		}
		appends := replica.Metrics().WAL.Appends.Load()
		if err := replica.ApplyReplicatedBatch(batches[1].lsn, batches[1].raw); !errors.Is(err, wal.ErrLSNGap) {
			t.Fatalf("batch past a gap: %v, want ErrLSNGap", err)
		}
		if got := replica.Metrics().WAL.Appends.Load(); got != appends {
			t.Fatalf("a refused batch reached the WAL: appends %d -> %d", appends, got)
		}
		for _, b := range batches {
			if err := replica.ApplyReplicatedBatch(b.lsn, b.raw); err != nil {
				t.Fatal(err)
			}
		}
		if got := replica.AppliedLSN(); got != batches[1].lsn {
			t.Fatalf("replica applied LSN %d, want %d", got, batches[1].lsn)
		}
	})
	replica, _ := reopen(t, path)
	if got := replica.LSN(); got != batches[1].lsn {
		t.Fatalf("replica LSN after a crash %d, want %d", got, batches[1].lsn)
	}
	if err := replica.View(func(tx *Tx) error {
		for _, oid := range oids {
			if _, err := tx.Deref(oid); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatalf("a replicated write is missing after the replica's crash: %v", err)
	}
}
