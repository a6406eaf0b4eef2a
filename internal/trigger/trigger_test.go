package trigger

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"ode/internal/core"
	"ode/internal/object"
	"ode/internal/storage"
	"ode/internal/txn"
	"ode/internal/wal"
)

// fixture builds the paper's reorder scenario: a stockitem whose
// "reorder" trigger fires when quantity falls below a threshold passed
// at activation; the action raises quantity by a fixed lot and records
// the reorder in a counter field.
type fixture struct {
	engine *txn.Engine
	svc    *Service
	item   *core.Class
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	schema := core.NewSchema()
	item := core.NewClass("stockitem").
		Field("name", core.TString).
		Field("qty", core.TInt).
		Field("reorders", core.TInt).
		Field("timeouts", core.TInt).
		Trigger(&core.TriggerDef{
			Name:   "reorder",
			Params: []core.Param{{Name: "threshold", Type: core.TInt}},
			Src:    "qty < threshold ==> qty += 100",
			Cond: func(_ core.Store, self *core.Object, args []core.Value) (bool, error) {
				return self.MustGet("qty").Int() < args[0].Int(), nil
			},
			Action: func(st core.Store, self *core.Object, oid core.OID, _ []core.Value) error {
				self.MustSet("qty", core.Int(self.MustGet("qty").Int()+100))
				self.MustSet("reorders", core.Int(self.MustGet("reorders").Int()+1))
				return st.Update(oid, self)
			},
			TimeoutAction: func(st core.Store, self *core.Object, oid core.OID, _ []core.Value) error {
				self.MustSet("timeouts", core.Int(self.MustGet("timeouts").Int()+1))
				return st.Update(oid, self)
			},
		}).
		Trigger(&core.TriggerDef{
			Name:      "watch",
			Perpetual: true,
			Src:       "perpetual: qty > 1000 ==> reorders++",
			Cond: func(_ core.Store, self *core.Object, _ []core.Value) (bool, error) {
				return self.MustGet("qty").Int() > 1000, nil
			},
			Action: func(st core.Store, self *core.Object, oid core.OID, _ []core.Value) error {
				self.MustSet("reorders", core.Int(self.MustGet("reorders").Int()+1))
				return st.Update(oid, self)
			},
		}).
		Register(schema)
	RegisterActivationClass(schema)

	dir := t.TempDir()
	fs, err := storage.CreateFile(filepath.Join(dir, "t.odb"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	pool := storage.NewPool(fs, 128, nil, nil)
	mgr, err := object.Create(schema, fs, pool)
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.CreateCluster(item); err != nil {
		t.Fatal(err)
	}
	log, err := wal.Open(filepath.Join(dir, "t.wal"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	engine := txn.NewEngine(mgr, log)
	svc, err := NewService(engine)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{engine: engine, svc: svc, item: item}
}

// TestReloadRefusesWritableEngine: rebuilding the index while local
// commits run would drop activations indexed behind the scan, so Reload
// serves only a read-only engine (a replica about to be promoted).
func TestReloadRefusesWritableEngine(t *testing.T) {
	f := newFixture(t)
	if err := f.svc.Reload(); !errors.Is(err, ErrReloadWritable) {
		t.Fatalf("Reload on a writable engine = %v, want ErrReloadWritable", err)
	}
	f.engine.SetReadOnly(true)
	if err := f.svc.Reload(); err != nil {
		t.Fatalf("Reload on a read-only engine: %v", err)
	}
}

func (f *fixture) newItem(t testing.TB, name string, qty int64) core.OID {
	t.Helper()
	tx := f.engine.Begin()
	o := core.NewObject(f.item)
	o.MustSet("name", core.Str(name))
	o.MustSet("qty", core.Int(qty))
	oid, err := tx.PNew(f.item, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return oid
}

func (f *fixture) setQty(t testing.TB, oid core.OID, qty int64) {
	t.Helper()
	tx := f.engine.Begin()
	o, err := tx.Deref(oid)
	if err != nil {
		t.Fatal(err)
	}
	o.MustSet("qty", core.Int(qty))
	if err := tx.Update(oid, o); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func (f *fixture) get(t testing.TB, oid core.OID, field string) int64 {
	t.Helper()
	tx := f.engine.Begin()
	defer tx.Abort()
	o, err := tx.Deref(oid)
	if err != nil {
		t.Fatal(err)
	}
	return o.MustGet(field).Int()
}

func TestOnceOnlyTriggerFiresOnceAndDeactivates(t *testing.T) {
	f := newFixture(t)
	oid := f.newItem(t, "dram", 50)

	tx := f.engine.Begin()
	id, err := f.svc.Activate(tx, oid, "reorder", core.Int(20))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(f.svc.ActiveOn(oid)) != 1 {
		t.Fatal("activation not indexed")
	}

	// Condition false: nothing fires.
	f.setQty(t, oid, 30)
	if got := f.get(t, oid, "reorders"); got != 0 {
		t.Fatalf("fired early: reorders = %d", got)
	}
	// Condition true: fires once, action restocks (+100).
	f.setQty(t, oid, 10)
	if got := f.get(t, oid, "reorders"); got != 1 {
		t.Fatalf("reorders = %d, want 1", got)
	}
	if got := f.get(t, oid, "qty"); got != 110 {
		t.Fatalf("qty = %d, want 110 (restocked)", got)
	}
	// Once-only: deactivated; a further drop does not fire.
	f.setQty(t, oid, 5)
	if got := f.get(t, oid, "reorders"); got != 1 {
		t.Fatalf("once-only trigger fired again: %d", got)
	}
	if acts := f.svc.ActiveOn(oid); len(acts) != 0 {
		t.Errorf("activation still indexed: %v", acts)
	}
	_ = id
}

func TestPerpetualTriggerKeepsFiring(t *testing.T) {
	f := newFixture(t)
	oid := f.newItem(t, "x", 1)
	tx := f.engine.Begin()
	if _, err := f.svc.Activate(tx, oid, "watch"); err != nil {
		t.Fatal(err)
	}
	tx.Commit()

	f.setQty(t, oid, 2000) // fires
	f.setQty(t, oid, 3000) // fires again
	if got := f.get(t, oid, "reorders"); got != 2 {
		t.Fatalf("perpetual trigger fired %d times, want 2", got)
	}
	if len(f.svc.ActiveOn(oid)) != 1 {
		t.Error("perpetual activation dropped")
	}
}

func TestActivationEvaluatedInActivatingTx(t *testing.T) {
	// The condition is already true when the trigger is activated: it
	// fires at the end of the activating transaction.
	f := newFixture(t)
	oid := f.newItem(t, "y", 5)
	tx := f.engine.Begin()
	if _, err := f.svc.Activate(tx, oid, "reorder", core.Int(20)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := f.get(t, oid, "reorders"); got != 1 {
		t.Fatalf("reorders = %d, want 1 (fired at activation commit)", got)
	}
}

func TestAbortCancelsFiredActions(t *testing.T) {
	f := newFixture(t)
	oid := f.newItem(t, "z", 50)
	tx := f.engine.Begin()
	f.svc.Activate(tx, oid, "reorder", core.Int(20))
	tx.Commit()

	// Drop qty below threshold but abort: no action may run.
	tx2 := f.engine.Begin()
	o, _ := tx2.Deref(oid)
	o.MustSet("qty", core.Int(1))
	tx2.Update(oid, o)
	tx2.Abort()
	if got := f.get(t, oid, "reorders"); got != 0 {
		t.Fatalf("aborted transaction fired a trigger: %d", got)
	}
	if got := f.get(t, oid, "qty"); got != 50 {
		t.Fatalf("qty = %d", got)
	}
	// The activation must still be armed.
	f.setQty(t, oid, 2)
	if got := f.get(t, oid, "reorders"); got != 1 {
		t.Fatalf("trigger lost after aborted firing attempt: %d", got)
	}
}

func TestExplicitDeactivation(t *testing.T) {
	f := newFixture(t)
	oid := f.newItem(t, "d", 50)
	tx := f.engine.Begin()
	id, _ := f.svc.Activate(tx, oid, "reorder", core.Int(20))
	tx.Commit()

	tx2 := f.engine.Begin()
	if err := f.svc.Deactivate(tx2, id); err != nil {
		t.Fatal(err)
	}
	tx2.Commit()
	f.setQty(t, oid, 1)
	if got := f.get(t, oid, "reorders"); got != 0 {
		t.Fatalf("deactivated trigger fired: %d", got)
	}
	// Deactivating a non-activation object errs.
	tx3 := f.engine.Begin()
	defer tx3.Abort()
	if err := f.svc.Deactivate(tx3, oid); !errors.Is(err, ErrNotActivation) {
		t.Errorf("Deactivate(item) = %v", err)
	}
}

func TestDeactivateAllByName(t *testing.T) {
	f := newFixture(t)
	oid := f.newItem(t, "da", 50)
	tx := f.engine.Begin()
	f.svc.Activate(tx, oid, "reorder", core.Int(20))
	f.svc.Activate(tx, oid, "reorder", core.Int(30))
	f.svc.Activate(tx, oid, "watch")
	tx.Commit()
	if n := len(f.svc.ActiveOn(oid)); n != 3 {
		t.Fatalf("activations = %d", n)
	}
	tx2 := f.engine.Begin()
	if err := f.svc.DeactivateAll(tx2, oid, "reorder"); err != nil {
		t.Fatal(err)
	}
	tx2.Commit()
	if n := len(f.svc.ActiveOn(oid)); n != 1 {
		t.Fatalf("after DeactivateAll: %d activations, want 1 (watch)", n)
	}
}

func TestMultipleActivationsWithDifferentArgs(t *testing.T) {
	// "There can be more than one activation of a trigger in effect."
	f := newFixture(t)
	oid := f.newItem(t, "m", 100)
	tx := f.engine.Begin()
	f.svc.Activate(tx, oid, "reorder", core.Int(20))
	f.svc.Activate(tx, oid, "reorder", core.Int(50))
	tx.Commit()

	// qty 40: only the threshold-50 activation fires.
	f.setQty(t, oid, 40)
	if got := f.get(t, oid, "reorders"); got != 1 {
		t.Fatalf("reorders = %d, want 1", got)
	}
	if n := len(f.svc.ActiveOn(oid)); n != 1 {
		t.Fatalf("remaining activations = %d, want 1", n)
	}
	// qty 10 (after restock the qty is 140; drop): threshold-20 fires.
	f.setQty(t, oid, 10)
	if got := f.get(t, oid, "reorders"); got != 2 {
		t.Fatalf("reorders = %d, want 2", got)
	}
}

func TestCascadingTriggers(t *testing.T) {
	// An action transaction can itself fire triggers: the reorder
	// action raises qty to 100+, firing a perpetual watch if qty > 1000.
	f := newFixture(t)
	oid := f.newItem(t, "c", 950)
	tx := f.engine.Begin()
	f.svc.Activate(tx, oid, "watch")
	f.svc.Activate(tx, oid, "reorder", core.Int(960))
	// Activation tx evaluates: qty 950 < 960 -> reorder fires at commit,
	// action sets qty 1050 -> watch fires on the action tx -> +1
	// reorder count.
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := f.get(t, oid, "qty"); got != 1050 {
		t.Fatalf("qty = %d, want 1050", got)
	}
	// reorders: 1 (reorder action) + 1 (watch fired by action tx) = 2.
	if got := f.get(t, oid, "reorders"); got != 2 {
		t.Fatalf("reorders = %d, want 2 (cascade)", got)
	}
}

func TestActivationUnknownTriggerOrBadArity(t *testing.T) {
	f := newFixture(t)
	oid := f.newItem(t, "e", 1)
	tx := f.engine.Begin()
	defer tx.Abort()
	if _, err := f.svc.Activate(tx, oid, "nope"); !errors.Is(err, ErrNoTrigger) {
		t.Errorf("unknown trigger: %v", err)
	}
	if _, err := f.svc.Activate(tx, oid, "reorder"); err == nil {
		t.Error("missing argument accepted")
	}
}

func TestActivationsSurviveReopen(t *testing.T) {
	schemaFn := func() (*core.Schema, *core.Class) {
		schema := core.NewSchema()
		item := core.NewClass("stockitem").
			Field("name", core.TString).
			Field("qty", core.TInt).
			Field("reorders", core.TInt).
			Field("timeouts", core.TInt).
			Trigger(&core.TriggerDef{
				Name:   "reorder",
				Params: []core.Param{{Name: "threshold", Type: core.TInt}},
				Cond: func(_ core.Store, self *core.Object, args []core.Value) (bool, error) {
					return self.MustGet("qty").Int() < args[0].Int(), nil
				},
				Action: func(st core.Store, self *core.Object, oid core.OID, _ []core.Value) error {
					self.MustSet("reorders", core.Int(self.MustGet("reorders").Int()+1))
					return st.Update(oid, self)
				},
			}).
			Register(schema)
		RegisterActivationClass(schema)
		return schema, item
	}
	dir := t.TempDir()
	schema, item := schemaFn()
	fs, _ := storage.CreateFile(filepath.Join(dir, "p.odb"))
	pool := storage.NewPool(fs, 128, nil, nil)
	mgr, _ := object.Create(schema, fs, pool)
	mgr.CreateCluster(item)
	log, _ := wal.Open(filepath.Join(dir, "p.wal"))
	engine := txn.NewEngine(mgr, log)
	svc, err := NewService(engine)
	if err != nil {
		t.Fatal(err)
	}
	tx := engine.Begin()
	o := core.NewObject(item)
	o.MustSet("name", core.Str("i"))
	o.MustSet("qty", core.Int(100))
	oid, _ := tx.PNew(item, o)
	if _, err := svc.Activate(tx, oid, "reorder", core.Int(50)); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	mgr.Checkpoint(true)
	fs.Close()
	log.Close()

	// Reopen: the activation must be rediscovered and functional.
	schema2, item2 := schemaFn()
	fs2, err := storage.OpenFile(filepath.Join(dir, "p.odb"))
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	pool2 := storage.NewPool(fs2, 128, nil, nil)
	mgr2, err := object.Open(schema2, fs2, pool2)
	if err != nil {
		t.Fatal(err)
	}
	log2, _ := wal.Open(filepath.Join(dir, "p.wal"))
	defer log2.Close()
	engine2 := txn.NewEngine(mgr2, log2)
	svc2, err := NewService(engine2)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(svc2.ActiveOn(oid)); n != 1 {
		t.Fatalf("activations after reopen = %d", n)
	}
	tx2 := engine2.Begin()
	io, _ := tx2.Deref(oid)
	io.MustSet("qty", core.Int(10))
	tx2.Update(oid, io)
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	tx3 := engine2.Begin()
	defer tx3.Abort()
	got, _ := tx3.Deref(oid)
	if got.MustGet("reorders").Int() != 1 {
		t.Fatalf("trigger did not fire after reopen: %d", got.MustGet("reorders").Int())
	}
	_ = item2
}

func TestTimedTriggerExpiry(t *testing.T) {
	f := newFixture(t)
	oid := f.newItem(t, "timed", 100)
	tx := f.engine.Begin()
	deadline := time.Now().Add(-time.Second) // already past
	if _, err := f.svc.ActivateWithin(tx, oid, "reorder", deadline, core.Int(20)); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	n, err := f.svc.ExpireBefore(time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("expired %d, want 1", n)
	}
	if got := f.get(t, oid, "timeouts"); got != 1 {
		t.Fatalf("timeouts = %d, want 1", got)
	}
	// Expired activation is deactivated: condition can no longer fire.
	f.setQty(t, oid, 1)
	if got := f.get(t, oid, "reorders"); got != 0 {
		t.Fatalf("expired trigger fired: %d", got)
	}
	// Second expiry pass finds nothing.
	if n, _ := f.svc.ExpireBefore(time.Now()); n != 0 {
		t.Errorf("second expiry = %d", n)
	}
}

func TestActionErrorsAreReported(t *testing.T) {
	schema := core.NewSchema()
	item := core.NewClass("bomb").
		Field("n", core.TInt).
		Trigger(&core.TriggerDef{
			Name: "boom",
			Cond: func(_ core.Store, self *core.Object, _ []core.Value) (bool, error) {
				return self.MustGet("n").Int() > 0, nil
			},
			Action: func(core.Store, *core.Object, core.OID, []core.Value) error {
				return fmt.Errorf("kaboom")
			},
		}).
		Register(schema)
	RegisterActivationClass(schema)
	dir := t.TempDir()
	fs, _ := storage.CreateFile(filepath.Join(dir, "b.odb"))
	defer fs.Close()
	pool := storage.NewPool(fs, 64, nil, nil)
	mgr, _ := object.Create(schema, fs, pool)
	mgr.CreateCluster(item)
	log, _ := wal.Open(filepath.Join(dir, "b.wal"))
	defer log.Close()
	engine := txn.NewEngine(mgr, log)
	svc, _ := NewService(engine)

	tx := engine.Begin()
	o := core.NewObject(item)
	o.MustSet("n", core.Int(1))
	oid, _ := tx.PNew(item, o)
	svc.Activate(tx, oid, "boom")
	tx.Commit()
	errs := svc.Errors()
	if len(errs) != 1 || errs[0].Trigger != "boom" {
		t.Fatalf("Errors = %v", errs)
	}
	if len(svc.Errors()) != 0 {
		t.Error("Errors did not clear")
	}
}
