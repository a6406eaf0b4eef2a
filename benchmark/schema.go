package main

import (
	"fmt"
	"math/rand"

	"ode"
)

// schema is the benchmark's own class catalog: the paper's stockitem
// with its restock trigger, a linked list of cells, and a part DAG. It
// is declared here, not borrowed from internal/bench, so refactors of
// the repo's other harnesses cannot move the benchmark's numbers.
type schema struct {
	s     *ode.Schema
	stock *ode.Class
	cell  *ode.Class
	part  *ode.Class
}

// restockLot is the quantity the restock trigger adds when it fires.
const restockLot = 4

// newSchema builds a fresh catalog. Every Open and every Dial gets its
// own: class handles belong to the schema they were registered in.
func newSchema() *schema {
	sc := &schema{s: ode.NewSchema()}
	sc.stock = ode.NewClass("stockitem").
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
		Register(sc.s)
	sc.cell = ode.NewClass("cell").
		Field("value", ode.TInt).
		Field("next", ode.RefTo("cell")).
		Register(sc.s)
	sc.part = ode.NewClass("part").
		Field("name", ode.TString).
		Field("subparts", ode.SetOfType(ode.RefTo("part"))).
		Register(sc.s)
	return sc
}

// dataset sizes what a workload loads before it is timed.
type dataset struct {
	stock    int  // stockitems; item i starts with qty i
	namePad  int  // names are padded to this width, fixing the record footprint
	chain    int  // cells in the linked list; cell i holds value i
	dagDepth int  // part DAG below the root: levels, parts per level, edges per part
	dagWidth int  //
	dagFan   int  //
	indexQty bool // secondary index on stockitem.qty
	armed    bool // restock trigger activated on every item of the trigger pool
}

// threshold is stockitem i's restock threshold. It never changes, so a
// deref of item i can check it whatever other workers are writing.
func threshold(i int) int64 { return 20 + int64(i%20) }

// itemName is stockitem i's name, padded to pad.
func itemName(i, pad int) string {
	return fmt.Sprintf("%-*s", pad, fmt.Sprintf("item-%07d", i))
}

// stockBytes is the payload of one stockitem: its name and three 8-byte
// fields. The byte-ratio metrics divide by payload, not by the codec's
// encoding, so a denser codec shows as a better ratio.
func stockBytes(nameLen int) int64 { return int64(nameLen) + 24 }

// cellBytes is the payload of one cell: a value and a reference.
const cellBytes = 16

// world is the loaded dataset and the model the verify pass compares the
// database against. Slices are indexed by item number; an entry is
// written only by the worker that owns the item (see newWorker), so
// workers need no lock around the model.
type world struct {
	data  dataset
	stock []ode.OID
	qty   []int64
	price []float64
	hot   []int // the tenth of the items that takes 80 % of skewed reads
	cells []ode.OID
	root  ode.OID
	reach int   // parts reachable from root: what a BOM closure must visit
	live  int64 // payload bytes of everything loaded
	// itemBytes is one stockitem's payload: all names have one width.
	itemBytes int64
}

func newStockObject(c *ode.Class, name string, price float64, qty, thr int64) *ode.Object {
	o := ode.NewObject(c)
	o.MustSet("name", ode.Str(name))
	o.MustSet("price", ode.Float(price))
	o.MustSet("qty", ode.Int(qty))
	o.MustSet("threshold", ode.Int(thr))
	return o
}

// load fills the store through its top-layer API, so a remote shape
// loads over the wire and a sharded one spreads objects by its own
// placement rule. The dataset is a pure function of seed.
func load(st store, sc *schema, d dataset, seed int64) (*world, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &world{data: d, itemBytes: stockBytes(len(itemName(0, d.namePad)))}
	const batch = 500
	for start := 0; start < d.stock; start += batch {
		end := min(start+batch, d.stock)
		_, err := runUnit(st, true, nil, func(tx opTx) error {
			w.stock, w.qty, w.price = w.stock[:start], w.qty[:start], w.price[:start]
			for i := start; i < end; i++ {
				price := float64(rng.Intn(100000)) / 100
				oid, err := tx.PNew(sc.stock, newStockObject(sc.stock, itemName(i, d.namePad), price, int64(i), threshold(i)))
				if err != nil {
					return err
				}
				w.stock = append(w.stock, oid)
				w.qty = append(w.qty, int64(i))
				w.price = append(w.price, price)
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("load stock: %w", err)
		}
	}
	w.live += int64(d.stock) * w.itemBytes
	w.hot = rng.Perm(d.stock)[:d.stock/10]

	// The chain is built back to front so each cell can point at its
	// successor.
	w.cells = make([]ode.OID, d.chain)
	for end := d.chain; end > 0; end -= batch {
		start := max(end-batch, 0)
		_, err := runUnit(st, true, nil, func(tx opTx) error {
			for i := end - 1; i >= start; i-- {
				next := ode.NilOID
				if i+1 < d.chain {
					next = w.cells[i+1]
				}
				o := ode.NewObject(sc.cell)
				o.MustSet("value", ode.Int(int64(i)))
				o.MustSet("next", ode.Ref(next))
				oid, err := tx.PNew(sc.cell, o)
				if err != nil {
					return err
				}
				w.cells[i] = oid
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("load chain: %w", err)
		}
	}
	w.live += int64(d.chain) * cellBytes

	if d.dagDepth > 0 {
		if err := w.loadDAG(st, sc); err != nil {
			return nil, fmt.Errorf("load part DAG: %w", err)
		}
	}
	return w, nil
}

// loadDAG builds the part DAG leaves first, so every part is created
// with its subparts already known, and records how many parts the root
// reaches. The edges follow a fixed rule, part i of a level holding parts
// i*fan .. i*fan+fan-1 (modulo the width) of the level below, so a BOM
// closure costs the same whatever the seed.
func (w *world) loadDAG(st store, sc *schema) error {
	d := w.data
	_, err := runUnit(st, true, nil, func(tx opTx) error {
		children := make(map[ode.OID][]ode.OID)
		var below []ode.OID
		var live int64
		for level := d.dagDepth; level >= 0; level-- {
			width := d.dagWidth
			if level == 0 {
				width = 1
			}
			var here []ode.OID
			for i := 0; i < width; i++ {
				o := ode.NewObject(sc.part)
				name := fmt.Sprintf("part-%d-%d", level, i)
				o.MustSet("name", ode.Str(name))
				var kids []ode.OID
				if below != nil {
					set := o.MustGet("subparts").Set()
					for k := 0; k < d.dagFan; k++ {
						kid := below[(i*d.dagFan+k)%len(below)]
						if set.Insert(ode.Ref(kid)) {
							kids = append(kids, kid)
						}
					}
				}
				oid, err := tx.PNew(sc.part, o)
				if err != nil {
					return err
				}
				children[oid] = kids
				here = append(here, oid)
				live += int64(len(name)) + 8*int64(len(kids))
			}
			below = here
		}
		w.root = below[0]
		seen := map[ode.OID]bool{}
		var visit func(ode.OID)
		visit = func(p ode.OID) {
			if seen[p] {
				return
			}
			seen[p] = true
			for _, k := range children[p] {
				visit(k)
			}
		}
		visit(w.root)
		w.reach = len(seen)
		w.live += live
		return nil
	})
	return err
}
