package repl

import (
	"path/filepath"
	"testing"

	"ode"
)

// TestPromoteIndexesReplicatedActivations is the regression test for a
// promoted replica that forgot its triggers: activation objects arrive
// in replicated batches, which bypass the commit hooks that index them,
// so after promotion a perpetual trigger armed on the primary must
// still be armed on the new primary.
func TestPromoteIndexesReplicatedActivations(t *testing.T) {
	open := func(name string) (*ode.DB, *ode.Class) {
		schema := ode.NewSchema()
		item := ode.NewClass("item").
			Field("qty", ode.TInt).
			Trigger(&ode.TriggerDef{
				Name:      "watch",
				Perpetual: true,
				Cond:      func(ode.Store, *ode.Object, []ode.Value) (bool, error) { return false, nil },
				Action:    func(ode.Store, *ode.Object, ode.OID, []ode.Value) error { return nil },
			}).
			Register(schema)
		db, err := ode.Open(filepath.Join(t.TempDir(), name), schema, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		if err := db.CreateCluster(item); err != nil {
			t.Fatal(err)
		}
		return db, item
	}
	pdb, item := open("primary.odb")
	rdb, _ := open("replica.odb")
	rdb.SetReadOnly(true)
	// Ship every primary batch straight into the replica, in LSN order.
	var shipErr error
	pdb.OnCommitBatch(func(lsn uint64, raw []byte) {
		if err := rdb.ApplyReplicatedBatch(lsn, raw); err != nil && shipErr == nil {
			shipErr = err
		}
	})

	var target ode.OID
	err := pdb.RunTx(func(tx *ode.Tx) error {
		var err error
		if target, err = tx.PNew(item, ode.NewObject(item)); err != nil {
			return err
		}
		_, err = pdb.Triggers().Activate(tx, target, "watch")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if shipErr != nil {
		t.Fatalf("ship: %v", shipErr)
	}
	if _, err := PromoteDB(rdb, nil); err != nil {
		t.Fatal(err)
	}
	if got := len(rdb.Triggers().ActiveOn(target)); got != 1 {
		t.Fatalf("promoted replica holds %d activations on @%d, want 1", got, target)
	}
}
