// Active inventory: the paper's section 6 — triggers turning a passive
// inventory into an active database. A once-only reorder trigger
// restocks an item when its quantity falls below a threshold passed at
// activation; a perpetual audit trigger logs every large withdrawal;
// and a timed trigger escalates when a reorder is not confirmed in
// time. Actions run as independent, weakly-coupled transactions.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"ode"
)

func schema() (*ode.Schema, *ode.Class) {
	s := ode.NewSchema()
	item := ode.NewClass("item").
		Field("name", ode.TString).
		Field("qty", ode.TInt).
		Field("reorders", ode.TInt).
		Field("audits", ode.TInt).
		Field("escalations", ode.TInt).
		Trigger(&ode.TriggerDef{
			Name:   "reorder",
			Params: []ode.Param{{Name: "threshold", Type: ode.TInt}, {Name: "lot", Type: ode.TInt}},
			Src:    "qty < threshold ==> qty += lot",
			Cond: func(_ ode.Store, self *ode.Object, args []ode.Value) (bool, error) {
				return self.MustGet("qty").Int() < args[0].Int(), nil
			},
			Action: func(st ode.Store, self *ode.Object, oid ode.OID, args []ode.Value) error {
				self.MustSet("qty", ode.Int(self.MustGet("qty").Int()+args[1].Int()))
				self.MustSet("reorders", ode.Int(self.MustGet("reorders").Int()+1))
				fmt.Printf("  [reorder] %s restocked by %d\n", self.MustGet("name").Str(), args[1].Int())
				return st.Update(oid, self)
			},
			TimeoutAction: func(st ode.Store, self *ode.Object, oid ode.OID, _ []ode.Value) error {
				self.MustSet("escalations", ode.Int(self.MustGet("escalations").Int()+1))
				fmt.Printf("  [timeout] %s reorder window expired, escalating\n", self.MustGet("name").Str())
				return st.Update(oid, self)
			},
		}).
		Trigger(&ode.TriggerDef{
			Name:      "audit",
			Perpetual: true,
			Src:       "perpetual: qty < 50 ==> audits++",
			Cond: func(_ ode.Store, self *ode.Object, _ []ode.Value) (bool, error) {
				return self.MustGet("qty").Int() < 50, nil
			},
			Action: func(st ode.Store, self *ode.Object, oid ode.OID, _ []ode.Value) error {
				self.MustSet("audits", ode.Int(self.MustGet("audits").Int()+1))
				fmt.Printf("  [audit] %s is critically low (%d)\n", self.MustGet("name").Str(), self.MustGet("qty").Int())
				return st.Update(oid, self)
			},
		}).
		Register(s)
	return s, item
}

func main() {
	dir, err := os.MkdirTemp("", "ode-active")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	s, item := schema()
	db, err := ode.Open(filepath.Join(dir, "active.odb"), s, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateCluster(item); err != nil {
		log.Fatal(err)
	}

	var dram ode.OID
	err = db.RunTx(func(tx *ode.Tx) error {
		o := ode.NewObject(item)
		o.MustSet("name", ode.Str("512k dram"))
		o.MustSet("qty", ode.Int(500))
		var err error
		dram, err = tx.PNew(item, o)
		return err
	})
	if err != nil {
		log.Fatal(err)
	}

	// Arm the triggers: a once-only reorder at threshold 100 (lot 400)
	// and the perpetual audit.
	err = db.RunTx(func(tx *ode.Tx) error {
		if _, err := db.Triggers().Activate(tx, dram, "reorder", ode.Int(100), ode.Int(400)); err != nil {
			return err
		}
		_, err := db.Triggers().Activate(tx, dram, "audit")
		return err
	})
	if err != nil {
		log.Fatal(err)
	}

	withdraw := func(n int64) {
		err := db.RunTx(func(tx *ode.Tx) error {
			o, err := tx.Deref(dram)
			if err != nil {
				return err
			}
			o.MustSet("qty", ode.Int(o.MustGet("qty").Int()-n))
			return tx.Update(dram, o)
		})
		if err != nil {
			log.Fatal(err)
		}
	}

	fmt.Println("withdraw 300 (no trigger):")
	withdraw(300)
	fmt.Println("withdraw 180 (qty 20: reorder fires once, audit fires):")
	withdraw(180)
	fmt.Println("withdraw 390 (qty 30: reorder is spent; audit fires again):")
	withdraw(390)

	db.View(func(tx *ode.Tx) error {
		o, _ := tx.Deref(dram)
		fmt.Printf("final: qty=%d reorders=%d audits=%d\n",
			o.MustGet("qty").Int(), o.MustGet("reorders").Int(), o.MustGet("audits").Int())
		return nil
	})

	// Timed trigger: arm a reorder that must fire within 1ms; it won't
	// (quantity stays high), so the timeout escalates.
	err = db.RunTx(func(tx *ode.Tx) error {
		o, _ := tx.Deref(dram)
		o.MustSet("qty", ode.Int(1000))
		if err := tx.Update(dram, o); err != nil {
			return err
		}
		_, err := db.Triggers().ActivateWithin(tx, dram, "reorder",
			time.Now().Add(time.Millisecond), ode.Int(100), ode.Int(400))
		return err
	})
	if err != nil {
		log.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	if _, err := db.ExpireTimedTriggers(); err != nil {
		log.Fatal(err)
	}
	db.View(func(tx *ode.Tx) error {
		o, _ := tx.Deref(dram)
		fmt.Printf("escalations: %d\n", o.MustGet("escalations").Int())
		return nil
	})
	if errs := db.Triggers().Errors(); len(errs) > 0 {
		log.Fatalf("trigger actions failed: %v", errs)
	}
}
