package client_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"ode"
	"ode/client"
	"ode/internal/bench"
	"ode/internal/node"
	"ode/internal/server"
)

// The object API is declared once (ode.ObjectTx) and implemented three
// times: ode.EmbeddedTx, *client.Tx and *client.STx. This test runs one
// script through all three, and through a router whose shards are
// replication groups, and requires the same observable outcome at every
// step — values, version numbers, row counts and, above all, the same
// typed errors.

// run is the state a script threads through its steps: the transaction
// in flight and the objects and versions earlier steps made.
type run struct {
	begin func() ode.ObjectTx
	// other begins a transaction on a second client, or router, with a
	// cache of its own: its writes reach the server behind the first
	// client's cache. It is begin in process and where the script has
	// no second client.
	other func() ode.ObjectTx
	trips func() uint64 // client round trips so far; 0 in process
	tx    ode.ObjectTx
	stock *ode.Class
	cell  *ode.Class
	// person and its subclass student, for a scan over subtypes.
	person  *ode.Class
	student *ode.Class
	chain   ode.OID // the head of a chain of chainLen cells, value = position
	oid     map[string]ode.OID
	ref     map[string]ode.VRef
	// scanHits is the clients' forall rows served from their caches so
	// far (client.scan_hits); 0 in process, where local is set.
	scanHits func() uint64
	local    bool
}

// chainLen is the conformance chain's length: more cells than one
// revalidation frame carries, so a remote walk needs two.
const chainLen = 80

// walk follows the chain in a fresh transaction, reporting the cells
// whose value differs from the position (as "position=value") and how
// the walk ended.
func (r *run) walk() string {
	tx := r.begin()
	defer tx.Abort()
	var odd []any
	oid := r.chain
	for i := 0; i < chainLen; i++ {
		o, err := tx.Deref(oid)
		if err != nil {
			return outcome(err)
		}
		if v := o.MustGet("value").Int(); v != int64(i) {
			odd = append(odd, fmt.Sprintf("%d=%d", i, v))
		}
		oid, _ = o.MustGet("next").AnyOID()
	}
	return join(append(odd, "end", oid == ode.NilOID)...)
}

func (r *run) item(name string, qty int64) *ode.Object {
	return bench.NewStock(r.stock, name, 1, qty, 0)
}

func (r *run) scan(minQty int64) *ode.Scan {
	return &ode.Scan{Class: r.stock, Field: "qty", Op: ode.CmpGe, Value: ode.Int(minQty)}
}

// outcome renders an error by the sentinel callers test for, so the
// transcript does not depend on message wording.
func outcome(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ode.ErrTxDone):
		return "ErrTxDone"
	case errors.Is(err, ode.ErrNoObject):
		return "ErrNoObject"
	case errors.Is(err, ode.ErrNoVersion):
		return "ErrNoVersion"
	case errors.Is(err, ode.ErrOverloaded):
		return "ErrOverloaded"
	}
	return "error: " + err.Error()
}

// join renders a step's observations, space-separated.
func join(parts ...any) string { return strings.TrimSpace(fmt.Sprintln(parts...)) }

func qty(o *ode.Object, err error) string {
	if err != nil {
		return outcome(err)
	}
	return fmt.Sprint("qty=", o.MustGet("qty").Int())
}

// everyOp calls each operation of the API once and reports the distinct
// outcomes: on a finished transaction, exactly ErrTxDone.
func (r *run) everyOp() string {
	a, v := r.oid["a"], r.ref["a1"]
	_, e1 := r.tx.PNew(r.stock, r.item("late", 0))
	_, e2 := r.tx.Deref(a)
	e3 := r.tx.Update(a, r.item("late", 0))
	e4 := r.tx.PDelete(a)
	_, e5 := r.tx.CurrentVersion(a)
	_, e6 := r.tx.NewVersion(a)
	_, e7 := r.tx.Versions(a)
	_, e8 := r.tx.DerefVersion(v)
	e9 := r.tx.DeleteVersion(v)
	_, e10 := r.tx.Forall(r.scan(0), func(ode.OID, *ode.Object) (bool, error) { return true, nil })
	_, _, e11 := r.tx.Collect(r.scan(0))
	_, e12 := r.tx.Count(r.scan(0))
	e13 := r.tx.Commit()
	r.tx.Abort() // never an error, never a panic
	var distinct []any
	seen := map[string]bool{}
	for _, err := range []error{e1, e2, e3, e4, e5, e6, e7, e8, e9, e10, e11, e12, e13} {
		if o := outcome(err); !seen[o] {
			seen[o] = true
			distinct = append(distinct, o)
		}
	}
	return join(distinct...)
}

// script is the table: each step's outcome must equal want on every
// deployment shape.
var script = []struct {
	name string
	do   func(r *run) string
	want string
}{
	{"create three", func(r *run) string {
		r.tx = r.begin()
		for i, name := range []string{"a", "b", "c"} {
			oid, err := r.tx.PNew(r.stock, r.item(name, int64(i+1)))
			if err != nil {
				return outcome(err)
			}
			r.oid[name] = oid
		}
		return outcome(r.tx.Commit())
	}, "ok"},

	{"deref", func(r *run) string { r.tx = r.begin(); return qty(r.tx.Deref(r.oid["a"])) }, "qty=1"},
	{"update", func(r *run) string { return outcome(r.tx.Update(r.oid["a"], r.item("a", 10))) }, "ok"},
	{"deref own write", func(r *run) string { return qty(r.tx.Deref(r.oid["a"])) }, "qty=10"},

	{"unversioned", func(r *run) string {
		cur, err := r.tx.CurrentVersion(r.oid["a"])
		vs, verr := r.tx.Versions(r.oid["a"])
		return join(cur, outcome(err), vs, outcome(verr))
	}, "0 ok [] ok"},
	{"newversion", func(r *run) string {
		ref, err := r.tx.NewVersion(r.oid["a"])
		r.ref["a1"] = ref
		return join(ref.OID == r.oid["a"], ref.Version, outcome(err))
	}, "true 0 ok"},
	{"update current", func(r *run) string { return outcome(r.tx.Update(r.oid["a"], r.item("a", 11))) }, "ok"},
	{"second newversion", func(r *run) string {
		ref, err := r.tx.NewVersion(r.oid["a"])
		r.ref["a2"] = ref
		cur, cerr := r.tx.CurrentVersion(r.oid["a"])
		vs, verr := r.tx.Versions(r.oid["a"])
		return join(ref.Version, outcome(err), cur, outcome(cerr), vs, outcome(verr))
	}, "1 ok 2 ok [0 1] ok"},
	{"derefversion frozen", func(r *run) string {
		return qty(r.tx.DerefVersion(r.ref["a1"])) + " " + qty(r.tx.DerefVersion(r.ref["a2"]))
	}, "qty=10 qty=11"},
	{"commit versions", func(r *run) string { return outcome(r.tx.Commit()) }, "ok"},

	{"committed versions", func(r *run) string {
		r.tx = r.begin()
		vs, err := r.tx.Versions(r.oid["a"])
		return join(vs, outcome(err), qty(r.tx.DerefVersion(r.ref["a1"])))
	}, "[0 1] ok qty=10"},
	{"deleteversion", func(r *run) string { return outcome(r.tx.DeleteVersion(r.ref["a1"])) }, "ok"},
	{"versions hide the deleted", func(r *run) string {
		vs, err := r.tx.Versions(r.oid["a"])
		return join(vs, outcome(err))
	}, "[1] ok"},
	{"pdelete", func(r *run) string { return outcome(r.tx.PDelete(r.oid["b"])) }, "ok"},
	{"deleted in this transaction", func(r *run) string {
		_, derr := r.tx.Deref(r.oid["b"])
		return join(outcome(derr), outcome(r.tx.Update(r.oid["b"], r.item("b", 0))), outcome(r.tx.PDelete(r.oid["b"])))
	}, "ErrNoObject ErrNoObject ErrNoObject"},
	{"scans agree", func(r *run) string {
		count, cerr := r.tx.Count(r.scan(0))
		oids, objs, lerr := r.tx.Collect(r.scan(0))
		rows := 0
		n, ferr := r.tx.Forall(r.scan(0), func(ode.OID, *ode.Object) (bool, error) { rows++; return true, nil })
		return join(count, len(oids), len(objs), rows, n, outcome(cerr), outcome(lerr), outcome(ferr))
	}, "2 2 2 2 2 ok ok ok"},
	{"scan predicate", func(r *run) string {
		oids, objs, err := r.tx.Collect(r.scan(11))
		if err != nil || len(oids) != 1 {
			return join(len(oids), outcome(err))
		}
		return join(oids[0] == r.oid["a"], qty(objs[0], nil))
	}, "true qty=11"},
	{"early stop", func(r *run) string {
		rows := 0
		n, err := r.tx.Forall(r.scan(0), func(ode.OID, *ode.Object) (bool, error) { rows++; return false, nil })
		return join(rows, n, outcome(err), qty(r.tx.Deref(r.oid["c"]))) // the transaction is still usable
	}, "1 1 ok qty=3"},
	{"callback error", func(r *run) string {
		boom := errors.New("boom")
		_, err := r.tx.Forall(r.scan(0), func(ode.OID, *ode.Object) (bool, error) { return true, boom })
		return join(err == boom)
	}, "true"},
	{"commit deletes", func(r *run) string { return outcome(r.tx.Commit()) }, "ok"},
	{"after commit", (*run).everyOp, "ErrTxDone"},

	{"committed deletes", func(r *run) string {
		r.tx = r.begin()
		_, derr := r.tx.Deref(r.oid["b"])
		_, verr := r.tx.DerefVersion(r.ref["a1"])
		return join(outcome(derr), outcome(verr), outcome(r.tx.DeleteVersion(r.ref["a1"])))
	}, "ErrNoObject ErrNoVersion ErrNoVersion"},
	{"never allocated", func(r *run) string {
		const ghost = ode.OID(1 << 40)
		_, e1 := r.tx.Deref(ghost)
		e2 := r.tx.Update(ghost, r.item("ghost", 0))
		e3 := r.tx.PDelete(ghost)
		_, e4 := r.tx.CurrentVersion(ghost)
		_, e5 := r.tx.NewVersion(ghost)
		_, e6 := r.tx.DerefVersion(ode.VRef{OID: ghost})
		return join(outcome(e1), outcome(e2), outcome(e3), outcome(e4), outcome(e5), outcome(e6))
	}, "ErrNoObject ErrNoObject ErrNoObject ErrNoObject ErrNoObject ErrNoObject"},
	{"abort discards", func(r *run) string {
		if err := r.tx.Update(r.oid["c"], r.item("c", 99)); err != nil {
			return outcome(err)
		}
		r.tx.Abort()
		tx := r.begin()
		defer tx.Abort()
		return qty(tx.Deref(r.oid["c"]))
	}, "qty=3"},
	{"after abort", (*run).everyOp, "ErrTxDone"},
	{"never used", func(r *run) string {
		r.tx = r.begin()
		r.tx.Abort()
		return r.everyOp()
	}, "ErrTxDone"},

	// A pointer chase: the first walk fills a client's cache, the
	// second revalidates what it reached, and after a cell changes
	// behind the cache the walk reads the new value.
	{"chain walk", func(r *run) string {
		r.tx = r.begin()
		head := ode.NilOID
		for i := chainLen - 1; i >= 0; i-- {
			o := ode.NewObject(r.cell)
			o.MustSet("value", ode.Int(int64(i)))
			o.MustSet("next", ode.Ref(head))
			var err error
			if head, err = r.tx.PNew(r.cell, o); err != nil {
				return outcome(err)
			}
		}
		r.chain = head
		return join(outcome(r.tx.Commit()), r.walk(), r.walk())
	}, "ok end true end true"},
	{"chain walk after a change", func(r *run) string {
		r.tx = r.begin()
		oid := r.chain
		for i := 0; i < 5; i++ {
			o, err := r.tx.Deref(oid)
			if err != nil {
				return outcome(err)
			}
			if i == 4 {
				o.MustSet("value", ode.Int(-4))
				if err := r.tx.Update(oid, o); err != nil {
					return outcome(err)
				}
			}
			oid, _ = o.MustGet("next").AnyOID()
		}
		return join(outcome(r.tx.Commit()), r.walk())
	}, "ok 4=-4 end true"},

	// A transaction that touches nothing costs nothing: no round trip
	// for its begin, its commit or its abort.
	{"touches nothing", func(r *run) string {
		before := r.trips()
		r.begin().Abort()
		err := r.begin().Commit()
		return join(outcome(err), r.trips()-before)
	}, "ok 0"},

	// A begin admission control refuses — every slot held, no queue —
	// is the error of the transaction's first operation and of all that
	// follow, and ending the transaction releases nothing it never had.
	{"begin refused", func(r *run) string {
		hold := r.begin()
		if _, err := hold.Deref(r.oid["a"]); err != nil {
			return outcome(err)
		}
		tx := r.begin()
		_, e1 := tx.Deref(r.oid["a"])
		e2 := tx.Update(r.oid["a"], r.item("refused", 0)) // a router refuses per shard: stay on a's
		e3 := tx.Commit()
		tx.Abort()
		hold.Abort()
		r.tx = r.begin()
		defer r.tx.Abort()
		return join(outcome(e1), outcome(e2), outcome(e3), qty(r.tx.Deref(r.oid["a"])))
	}, "ErrOverloaded ErrOverloaded ErrOverloaded qty=11"},

	// A remote forall arrives in windows of 64, 512, 4 096 … rows, each
	// asked for only while fn goes on. Stopping on either side of a
	// window's edge delivers exactly the first rows of the whole scan,
	// and the transaction goes on: the requests that follow a stopped
	// scan end it on the server.
	{"many rows", func(r *run) string {
		r.tx = r.begin()
		for i := 0; i < manyRows; i++ {
			if _, err := r.tx.PNew(r.stock, r.item("many", manyQty+int64(i))); err != nil {
				return outcome(err)
			}
		}
		return outcome(r.tx.Commit())
	}, "ok"},
	// A scan in a transaction that has written yields its rows in OID
	// order all the same: the writes merge into the cluster walk, and
	// behind the router each shard's stream stays in order for the merge.
	{"collect after writes", func(r *run) string {
		tx := r.begin()
		defer tx.Abort()
		all, _, err := tx.Collect(r.scan(manyQty))
		if err != nil {
			return outcome(err)
		}
		for _, k := range []int{manyRows - 100, 3} {
			if err := tx.Update(all[k], r.item("many", manyQty+manyRows+int64(k))); err != nil {
				return outcome(err)
			}
		}
		got, objs, err := tx.Collect(r.scan(manyQty))
		if err != nil || len(got) != manyRows {
			return join(len(got), outcome(err))
		}
		return join(slices.IsSorted(all), slices.Equal(got, all), objs[3].MustGet("qty").Int()-manyQty-manyRows)
	}, "true true 3"},
	{"stop at window edges", func(r *run) string {
		r.tx = r.begin()
		all, _, err := r.tx.Collect(r.scan(manyQty))
		if err != nil || len(all) != manyRows {
			return join(len(all), outcome(err))
		}
		out := []any{}
		for _, stop := range []int{1, 64, 65, 576, 577} {
			var got []ode.OID
			n, err := r.tx.Forall(r.scan(manyQty), func(oid ode.OID, _ *ode.Object) (bool, error) {
				got = append(got, oid)
				return len(got) < stop, nil
			})
			out = append(out, n, outcome(err), slices.Equal(got, all[:stop]))
		}
		return join(out...)
	}, "1 ok true 64 ok true 65 ok true 576 ok true 577 ok true"},
	{"callback error mid-window", func(r *run) string {
		boom := errors.New("boom")
		rows := 0
		n, err := r.tx.Forall(r.scan(manyQty), func(ode.OID, *ode.Object) (bool, error) {
			if rows++; rows == 100 {
				return false, boom
			}
			return true, nil
		})
		return join(n, err == boom)
	}, "100 true"},
	{"requests after a stopped forall", func(r *run) string {
		if _, err := r.tx.Forall(r.scan(manyQty), func(ode.OID, *ode.Object) (bool, error) { return false, nil }); err != nil {
			return outcome(err)
		}
		before := qty(r.tx.Deref(r.oid["c"]))
		uerr := r.tx.Update(r.oid["c"], r.item("c", 4))
		rows := 0
		n, ferr := r.tx.Forall(r.scan(0), func(ode.OID, *ode.Object) (bool, error) { rows++; return true, nil })
		after := qty(r.tx.Deref(r.oid["c"]))
		return join(before, outcome(uerr), rows, n, outcome(ferr), after, outcome(r.tx.Commit()))
	}, "qty=3 ok 602 602 ok qty=4 ok"},
	// A scan that takes subtypes yields its class's rows, then each
	// subclass's, every class in OID order — on a server, and behind the
	// router, whose merge orders rows by class first. Persons and
	// students are created alternately, so an OID-only merge would
	// interleave them.
	{"subtype scan order", func(r *run) string {
		tx := r.begin()
		for i := 0; i < 12; i++ {
			c := []*ode.Class{r.person, r.student}[i%2]
			o := ode.NewObject(c)
			o.MustSet("name", ode.Str(fmt.Sprint("p", i)))
			if _, err := tx.PNew(c, o); err != nil {
				tx.Abort()
				return outcome(err)
			}
		}
		if err := tx.Commit(); err != nil {
			return outcome(err)
		}
		tx = r.begin()
		defer tx.Abort()
		oids, objs, err := tx.Collect(&ode.Scan{Class: r.person, Subtypes: true})
		if err != nil {
			return outcome(err)
		}
		var runs []any
		sorted := true
		for i, o := range objs {
			if i == 0 || o.Class() != objs[i-1].Class() {
				runs = append(runs, o.Class().Name)
			} else {
				sorted = sorted && oids[i-1] < oids[i]
			}
		}
		return join(append(runs, len(objs), sorted)...)
	}, "person student 12 true"},

	// What Deref returns is the caller's own: writing it without Update
	// changes nothing stored, in this transaction or the next, however
	// many cached readers share its image. Update stores the state it is
	// handed, and writes after it stay the caller's.
	{"write without update", func(r *run) string {
		r.tx = r.begin()
		c := r.oid["c"]
		if _, err := r.tx.Deref(c); err != nil { // the second deref is a proven hit remotely
			return outcome(err)
		}
		o, err := r.tx.Deref(c)
		if err != nil {
			return outcome(err)
		}
		o.MustSet("qty", ode.Int(50))
		same := qty(r.tx.Deref(c))
		cerr := r.tx.Commit()
		tx := r.begin()
		defer tx.Abort()
		return join(same, outcome(cerr), qty(tx.Deref(c)))
	}, "qty=4 ok qty=4"},
	{"write after update", func(r *run) string {
		r.tx = r.begin()
		c := r.oid["c"]
		o, err := r.tx.Deref(c)
		if err != nil {
			return outcome(err)
		}
		o.MustSet("qty", ode.Int(5))
		uerr := r.tx.Update(c, o)
		o.MustSet("qty", ode.Int(6))
		own := qty(r.tx.Deref(c))
		o.MustSet("qty", ode.Int(7))
		cerr := r.tx.Commit()
		tx := r.begin()
		defer tx.Abort()
		return join(outcome(uerr), own, outcome(cerr), qty(tx.Deref(c)), qty(o, nil))
	}, "ok qty=5 ok qty=5 qty=7"},

	// A remote forall row whose image a client's cache holds at the
	// same content tag is handed out as a copy of the cached object, not
	// decoded. A row a second client updated since — behind the first
	// client's cache, which still holds the old image — is delivered in
	// its new state, and the cache is refilled with it: the scan after
	// is served whole from the cache again.
	{"scan after another's update", func(r *run) string {
		c := r.oid["c"]
		first, _ := r.scanQty(c)
		warm, warmCached := r.scanQty(c)
		w := r.other()
		if err := w.Update(c, r.item("c", 8)); err != nil {
			w.Abort()
			return outcome(err)
		}
		if err := w.Commit(); err != nil {
			return outcome(err)
		}
		after, _ := r.scanQty(c)
		again, refilled := r.scanQty(c)
		return join(first, warm, warmCached, after, again, refilled)
	}, "qty=5 qty=5 true qty=8 qty=8 true"},
	// What a forall hands out is the caller's own, as what Deref
	// returns is: writing it changes neither the next scan's row nor a
	// later Deref, in this transaction or the next.
	{"write a scanned row", func(r *run) string {
		c := r.oid["c"]
		tx := r.begin()
		for i := 0; i < 2; i++ {
			row, _, err := r.scanRows(tx, c)
			if err != nil || row == nil {
				tx.Abort()
				return join(outcome(err), row != nil)
			}
			row.MustSet("qty", ode.Int(-1))
		}
		row, _, err := r.scanRows(tx, c)
		if err != nil || row == nil {
			tx.Abort()
			return join(outcome(err), row != nil)
		}
		own := join(qty(row, nil), qty(tx.Deref(c)))
		tx.Abort()
		next, _ := r.scanQty(c)
		tx = r.begin()
		defer tx.Abort()
		return join(own, next, qty(tx.Deref(c)))
	}, "qty=8 qty=8 qty=8 qty=8"},
	// A scan in a transaction that wrote a row yields the written state
	// — the transaction's own write, which no other reader sees — and
	// once the transaction aborts, the committed state again.
	{"scan own write", func(r *run) string {
		c := r.oid["c"]
		tx := r.begin()
		if err := tx.Update(c, r.item("c", 9)); err != nil {
			tx.Abort()
			return outcome(err)
		}
		row, _, err := r.scanRows(tx, c)
		if err != nil || row == nil {
			tx.Abort()
			return join(outcome(err), row != nil)
		}
		own := join(qty(row, nil), qty(tx.Deref(c)))
		again, _, err := r.scanRows(tx, c)
		if err != nil || again == nil {
			tx.Abort()
			return join(outcome(err), again != nil)
		}
		own = join(own, qty(again, nil))
		tx.Abort()
		after, _ := r.scanQty(c)
		tx = r.begin()
		defer tx.Abort()
		return join(own, after, qty(tx.Deref(c)))
	}, "qty=9 qty=9 qty=9 qty=8 qty=8"},
}

// scanRows runs an unfiltered stockitem forall in tx and returns oid's
// row (nil when the scan did not deliver it) and the rows delivered.
func (r *run) scanRows(tx ode.ObjectTx, oid ode.OID) (*ode.Object, int, error) {
	var row *ode.Object
	n, err := tx.Forall(r.scan(0), func(got ode.OID, o *ode.Object) (bool, error) {
		if got == oid {
			row = o
		}
		return true, nil
	})
	return row, n, err
}

// scanQty renders oid's qty as a forall in a fresh view delivers it,
// and reports whether every row of that scan was served from a client
// cache (always, in process: there is no decode to skip).
func (r *run) scanQty(oid ode.OID) (string, bool) {
	tx := r.begin()
	defer tx.Abort()
	hits := r.scanHits()
	row, n, err := r.scanRows(tx, oid)
	cached := r.local || r.scanHits()-hits == uint64(n)
	if err != nil || row == nil {
		return join(outcome(err), row != nil), cached
	}
	return qty(row, nil), cached
}

// manyRows stockitems, qty from manyQty up, are more than two windows.
const (
	manyRows = 600
	manyQty  = 1000
)

func TestObjectTxConformance(t *testing.T) {
	// One admission slot per database and no queue: the script is
	// serial, and a second concurrent transaction is refused at once.
	opts := ode.Options{NoSync: true, MaxConcurrentTx: 1, MaxQueuedTx: -1}
	for _, shape := range []bench.Shape{{Opts: &opts}, {Kind: bench.Remote, Opts: &opts}, {Kind: bench.Sharded, Shards: 3, Opts: &opts}} {
		d, err := bench.Open(shape)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(d.Mode(), func(t *testing.T) {
			defer d.Close()
			var other func() ode.ObjectTx
			switch {
			case d.Client != nil:
				c, err := d.Dial(nil)
				if err != nil {
					t.Fatal(err)
				}
				other = func() ode.ObjectTx {
					tx, err := c.Begin(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					return tx
				}
			case d.Router != nil:
				r, err := d.DialRouter(nil)
				if err != nil {
					t.Fatal(err)
				}
				other = func() ode.ObjectTx { return r.Begin(context.Background()) }
			}
			runScript(t, d.World, d.Client, d.Router, other)
		})
	}
	t.Run("sharded-3×replicated", func(t *testing.T) {
		r, w, replicas := replicatedShards(t, 3, opts)
		runScript(t, w, nil, r, nil)
		// Every replica applies what the router wrote to its primary.
		ctx := context.Background()
		for i, rc := range replicas {
			p, err := r.Shard(i).ReplStatus(ctx)
			if err != nil {
				t.Fatal(err)
			}
			for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
				st, err := rc.ReplStatus(ctx)
				if err == nil && st.LSN >= p.LSN {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("shard %d: replica at %+v (%v), primary at lsn %d", i, st, err, p.LSN)
				}
			}
		}
	})
}

// runScript runs the script against the router r, else the client c,
// else w's embedded database; other, when not nil, begins the second
// client's transactions (run.other).
func runScript(t *testing.T, w *bench.World, c *client.Client, r *client.Sharded, other func() ode.ObjectTx) {
	run := &run{stock: w.Stock, cell: w.Cell, person: w.Person, student: w.Student,
		oid: map[string]ode.OID{}, ref: map[string]ode.VRef{}}
	run.trips = func() uint64 {
		var n uint64
		if c != nil {
			n += c.CacheMetrics().RoundTrips.Load()
		}
		for i := 0; r != nil && i < r.NumShards(); i++ {
			n += r.Shard(i).CacheMetrics().RoundTrips.Load()
		}
		return n
	}
	run.scanHits = func() uint64 {
		var n uint64
		if c != nil {
			n += c.CacheMetrics().ScanHits.Load()
		}
		for i := 0; r != nil && i < r.NumShards(); i++ {
			n += r.Shard(i).CacheMetrics().ScanHits.Load()
		}
		return n
	}
	run.local = c == nil && r == nil
	run.begin = func() ode.ObjectTx {
		ctx := context.Background()
		switch {
		case r != nil:
			return r.Begin(ctx)
		case c != nil:
			tx, err := c.Begin(ctx)
			if err != nil {
				t.Fatal(err)
			}
			return tx
		}
		return ode.EmbeddedTx{Tx: w.DB.Begin()}
	}
	if run.other = other; other == nil {
		run.other = run.begin
	}
	for _, step := range script {
		if got := step.do(run); got != step.want {
			t.Errorf("%s: %s, want %s", step.name, got, step.want)
		}
	}
}

// replicatedShards boots a shard group of replication groups, each an
// internal/node primary and a replica following it, and a router over
// them. w carries the router's class handles; replicas are the
// replicas' clients, which the router also holds.
func replicatedShards(t *testing.T, shards int, opts ode.Options) (r *client.Sharded, w *bench.World, replicas []*client.Client) {
	dir := t.TempDir()
	schema, w := bench.Schema()
	groups := make([]*client.Replicated, shards)
	for slot := range groups {
		opts.ShardCount, opts.ShardSlot = shards, slot
		var nodes [2]*node.Node
		var clients [2]*client.Client
		for k := range nodes {
			s, _ := bench.Schema()
			cfg := node.Config{
				Path: filepath.Join(dir, fmt.Sprintf("shard%d-node%d.odb", slot, k)), Schema: s,
				Addr: "127.0.0.1:0", DB: opts, Server: server.Options{DrainTimeout: 50 * time.Millisecond},
			}
			if k > 0 {
				cfg.Follow, cfg.Resync = nodes[0].Addr(), true
			}
			n := node.New(cfg)
			if err := n.Start(); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { n.Close() })
			c, err := client.Dial(n.Addr(), schema, nil)
			if err != nil {
				t.Fatal(err)
			}
			nodes[k], clients[k] = n, c
		}
		groups[slot] = client.NewReplicated(clients[0], clients[1])
		replicas = append(replicas, clients[1])
	}
	r, err := client.NewSharded(groups...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r, w, replicas
}
