// Package bench is the reproduction's evaluation (DESIGN.md §5),
// defined once. The paper has no quantitative evaluation section — it
// is a language/data-model design paper — so each experiment
// regenerates one of its worked examples or quantifies one of its
// performance claims. This file holds the benchmark schema and the
// loaders that fill a deployment; experiment.go the experiment table
// and its one timing loop; experiments.go the sixteen experiments;
// deploy.go Open, the opener for the three deployment shapes, whose
// Deployment is the one provider of transactions: RunTx and View hand
// out ode.ObjectTx, so loaders, experiments and gate scripts are written
// once for embedded, remote and sharded. cmd/ode-bench prints the table,
// BenchmarkExperiments (bench_test.go) runs it under testing.B, and
// TestWorkGates (gates_test.go) holds the work counters of short
// scripts on the same deployments.
package bench

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"ode"
)

// OnOpen, when set, is called with every benchmark database opened.
// ode-bench uses it to point its expvar metrics exposition at the
// world currently under measurement.
var OnOpen func(*ode.DB)

// World is a database preloaded with the standard schema used across
// experiments.
type World struct {
	DB    *ode.DB
	Dir   string
	Stock *ode.Class // stockitem: name, price, qty, threshold
	// person hierarchy (paper §3.1)
	Person  *ode.Class
	Student *ode.Class
	Faculty *ode.Class
	// part DAG (paper §3.2)
	Part *ode.Class
	// linked list for the pointer-navigation baseline (paper §3 claim)
	Cell *ode.Class
	// employee/department join classes
	Emp  *ode.Class
	Dept *ode.Class
}

// Schema builds the experiment schema. It must be called afresh for
// every Open of the same file.
func Schema() (*ode.Schema, *World) {
	s := ode.NewSchema()
	w := &World{}
	w.Stock = ode.NewClass("stockitem").
		Field("name", ode.TString).
		Field("price", ode.TFloat).
		Field("qty", ode.TInt).
		Field("threshold", ode.TInt).
		Trigger(&ode.TriggerDef{
			Name:      "restock",
			Perpetual: true,
			Params:    []ode.Param{{Name: "lot", Type: ode.TInt}},
			Src:       "qty < threshold ==> qty += lot",
			Cond: func(_ ode.Store, self *ode.Object, _ []ode.Value) (bool, error) {
				return self.MustGet("qty").Int() < self.MustGet("threshold").Int(), nil
			},
			Action: func(st ode.Store, self *ode.Object, oid ode.OID, args []ode.Value) error {
				self.MustSet("qty", ode.Int(self.MustGet("qty").Int()+args[0].Int()))
				return st.Update(oid, self)
			},
		}).
		Register(s)
	w.Person = ode.NewClass("person").
		Field("name", ode.TString).
		Field("income", ode.TInt).
		Field("age", ode.TInt).
		Register(s)
	w.Student = ode.NewClass("student", w.Person).
		Field("school", ode.TString).
		Register(s)
	w.Faculty = ode.NewClass("faculty", w.Person).
		Field("dept", ode.TString).
		Register(s)
	w.Part = ode.NewClass("part").
		Field("name", ode.TString).
		Field("subparts", ode.SetOfType(ode.RefTo("part"))).
		Register(s)
	w.Cell = ode.NewClass("cell").
		Field("value", ode.TInt).
		Field("next", ode.RefTo("cell")).
		Register(s)
	w.Emp = ode.NewClass("emp").
		Field("name", ode.TString).
		Field("deptno", ode.TInt).
		Field("salary", ode.TInt).
		Register(s)
	w.Dept = ode.NewClass("dept").
		Field("deptno", ode.TInt).
		Field("dname", ode.TString).
		Register(s)
	return s, w
}

// newWorld opens a fresh database in a temp directory with all clusters
// created; close removes it. Open is its only caller.
func newWorld(opts *ode.Options) (*World, error) {
	dir, err := os.MkdirTemp("", "ode-bench")
	if err != nil {
		return nil, err
	}
	s, w := Schema()
	if opts == nil {
		opts = &ode.Options{NoSync: true} // benchmark default: no fsync
	}
	db, err := ode.Open(filepath.Join(dir, "bench.odb"), s, opts)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	w.DB = db
	w.Dir = dir
	if OnOpen != nil {
		OnOpen(db)
	}
	for _, c := range []*ode.Class{w.Stock, w.Person, w.Student, w.Faculty, w.Part, w.Cell, w.Emp, w.Dept} {
		if err := db.CreateCluster(c); err != nil {
			w.close()
			return nil, err
		}
	}
	return w, nil
}

func (w *World) close() {
	w.DB.Close()
	os.RemoveAll(w.Dir)
}

// NewStock builds one stockitem.
func NewStock(c *ode.Class, name string, price float64, qty, threshold int64) *ode.Object {
	o := ode.NewObject(c)
	o.MustSet("name", ode.Str(name))
	o.MustSet("price", ode.Float(price))
	o.MustSet("qty", ode.Int(qty))
	o.MustSet("threshold", ode.Int(threshold))
	return o
}

// Insert stores item(0) … item(n-1), 500 objects per transaction, and
// returns their OIDs. Like every loader below it goes through RunTx, so
// it fills a remote or sharded deployment over the wire.
func (d *Deployment) Insert(n int, item func(i int) *ode.Object) ([]ode.OID, error) {
	oids := make([]ode.OID, 0, n)
	const batch = 500
	for start := 0; start < n; start += batch {
		err := d.RunTx(func(tx ode.ObjectTx) error {
			oids = oids[:start] // RunTx may retry the transaction
			for i := start; i < min(start+batch, n); i++ {
				o := item(i)
				oid, err := tx.PNew(o.Class(), o)
				if err != nil {
					return err
				}
				oids = append(oids, oid)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return oids, nil
}

// LoadStock inserts n stockitems with qty = i and price i/100.
func (d *Deployment) LoadStock(n int) ([]ode.OID, error) {
	return d.Insert(n, func(i int) *ode.Object {
		return NewStock(d.Stock, fmt.Sprintf("item-%07d", i), float64(i)/100, int64(i), 100)
	})
}

// LoadPersons inserts persons/students/faculty in ratio 2:1:1 with
// income = i.
func (d *Deployment) LoadPersons(n int) ([]ode.OID, error) {
	cycle := []*ode.Class{d.Person, d.Person, d.Student, d.Faculty}
	return d.Insert(n, func(i int) *ode.Object {
		c := cycle[i%4]
		o := ode.NewObject(c)
		o.MustSet("name", ode.Str(fmt.Sprintf("p-%07d", i)))
		o.MustSet("income", ode.Int(int64(i)))
		o.MustSet("age", ode.Int(int64(20+i%60)))
		switch c {
		case d.Student:
			o.MustSet("school", ode.Str("eng"))
		case d.Faculty:
			o.MustSet("dept", ode.Str("cs"))
		}
		return o
	})
}

// LoadEmpDept loads nEmp employees over nDept departments.
func (d *Deployment) LoadEmpDept(nEmp, nDept int) error {
	_, err := d.Insert(nDept, func(no int) *ode.Object {
		o := ode.NewObject(d.Dept)
		o.MustSet("deptno", ode.Int(int64(no)))
		o.MustSet("dname", ode.Str(fmt.Sprintf("dept-%03d", no)))
		return o
	})
	if err != nil {
		return err
	}
	_, err = d.Insert(nEmp, func(i int) *ode.Object {
		o := ode.NewObject(d.Emp)
		o.MustSet("name", ode.Str(fmt.Sprintf("emp-%06d", i)))
		o.MustSet("deptno", ode.Int(int64(i%nDept)))
		o.MustSet("salary", ode.Int(int64(1000+i%9000)))
		return o
	})
	return err
}

// LoadChain builds a linked list of n cells (value = position) back to
// front, so each cell's next ref is already persistent, and returns the
// head: the CODASYL-style structure the paper's iterators replace.
func (d *Deployment) LoadChain(n int) (ode.OID, error) {
	head := ode.NilOID
	const batch = 500
	for built := 0; built < n; built += batch {
		err := d.RunTx(func(tx ode.ObjectTx) error {
			for i := built; i < min(built+batch, n); i++ {
				o := ode.NewObject(d.Cell)
				o.MustSet("value", ode.Int(int64(n-1-i)))
				o.MustSet("next", ode.Ref(head))
				oid, err := tx.PNew(d.Cell, o)
				if err != nil {
					return err
				}
				head = oid
			}
			return nil
		})
		if err != nil {
			return ode.NilOID, err
		}
	}
	return head, nil
}

// LoadPartDAG builds a part DAG in one transaction: level 0 is the
// root, levels 1..depth hold `width` parts each, and every part above
// the last level points at `fanout` rng-chosen parts of the level below.
// It returns the root and the number of parts.
func (d *Deployment) LoadPartDAG(rng *rand.Rand, depth, width, fanout int) (ode.OID, int, error) {
	var root ode.OID
	total := 0
	err := d.RunTx(func(tx ode.ObjectTx) error {
		mk := func(name string) (ode.OID, error) {
			o := ode.NewObject(d.Part)
			o.MustSet("name", ode.Str(name))
			total++
			return tx.PNew(d.Part, o)
		}
		levels := make([][]ode.OID, depth+1)
		var err error
		root, err = mk("root")
		if err != nil {
			return err
		}
		levels[0] = []ode.OID{root}
		for d := 1; d <= depth; d++ {
			for i := 0; i < width; i++ {
				oid, err := mk(fmt.Sprintf("p-%d-%d", d, i))
				if err != nil {
					return err
				}
				levels[d] = append(levels[d], oid)
			}
		}
		for d := 0; d < depth; d++ {
			for _, parent := range levels[d] {
				o, err := tx.Deref(parent)
				if err != nil {
					return err
				}
				set := o.MustGet("subparts").Set()
				for k := 0; k < fanout; k++ {
					set.Insert(ode.Ref(levels[d+1][rng.Intn(len(levels[d+1]))]))
				}
				if err := tx.Update(parent, o); err != nil {
					return err
				}
			}
		}
		return nil
	})
	return root, total, err
}

// Subparts is the SuccFunc over the part DAG within tx.
func Subparts(tx *ode.Tx) ode.SuccFunc {
	return func(v ode.Value) ([]ode.Value, error) {
		oid, ok := v.AnyOID()
		if !ok || oid == ode.NilOID {
			return nil, nil
		}
		o, err := tx.Deref(oid)
		if err != nil {
			return nil, err
		}
		return o.MustGet("subparts").Set().Elems(), nil
	}
}
