package bench

import (
	"math/rand"
	"testing"

	"ode"
)

func TestWorldBuilders(t *testing.T) {
	w, err := Open(Shape{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	oids, err := w.LoadStock(120)
	if err != nil {
		t.Fatal(err)
	}
	if len(oids) != 120 {
		t.Fatalf("LoadStock returned %d oids", len(oids))
	}
	if _, err := w.LoadPersons(40); err != nil {
		t.Fatal(err)
	}
	head, err := w.LoadChain(30)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.LoadEmpDept(50, 5); err != nil {
		t.Fatal(err)
	}
	root, total, err := w.LoadPartDAG(rand.New(rand.NewSource(1)), 3, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if total != 1+3*10 {
		t.Errorf("part DAG total = %d", total)
	}

	err = w.DB.View(func(tx *ode.Tx) error {
		// The chain walks to completion with ascending values.
		n, last := 0, int64(-1)
		for oid := head; oid != ode.NilOID; {
			o, err := tx.Deref(oid)
			if err != nil {
				return err
			}
			v := o.MustGet("value").Int()
			if v <= last {
				t.Errorf("chain out of order at %d", v)
			}
			last = v
			n++
			oid = o.MustGet("next").OID()
		}
		if n != 30 {
			t.Errorf("chain length %d", n)
		}
		// The DAG closure from the root is non-trivial and within bounds.
		set, err := ode.TransitiveClosure([]ode.Value{ode.Ref(root)}, Subparts(tx))
		if err != nil {
			return err
		}
		if set.Len() < 2 || set.Len() > total {
			t.Errorf("closure size %d out of range (total %d)", set.Len(), total)
		}
		// Extents hold what the loaders claim.
		if n, _ := ode.Forall(tx, w.Stock).Count(); n != 120 {
			t.Errorf("stock extent = %d", n)
		}
		if n, _ := ode.Forall(tx, w.Person).Subtypes().Count(); n != 40 {
			t.Errorf("person* extent = %d", n)
		}
		if n, _ := ode.Forall(tx, w.Emp).Count(); n != 50 {
			t.Errorf("emp extent = %d", n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
