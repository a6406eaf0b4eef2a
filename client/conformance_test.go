package client_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"ode"
	"ode/internal/bench"
)

// The object API is declared once (ode.ObjectTx) and implemented three
// times: ode.EmbeddedTx, *client.Tx and *client.STx. This test runs one
// script through all three and requires the same observable outcome at
// every step — values, version numbers, row counts and, above all, the
// same typed errors.

// run is the state a script threads through its steps: the transaction
// in flight and the objects and versions earlier steps made.
type run struct {
	begin func() ode.ObjectTx
	trips func() uint64 // client round trips so far; 0 in process
	tx    ode.ObjectTx
	stock *ode.Class
	cell  *ode.Class
	chain ode.OID // the head of a chain of chainLen cells, value = position
	oid   map[string]ode.OID
	ref   map[string]ode.VRef
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
}

// manyRows stockitems, qty from manyQty up, are more than two windows.
const (
	manyRows = 600
	manyQty  = 1000
)

func TestObjectTxConformance(t *testing.T) {
	// One admission slot per database and no queue: the script is
	// serial, and a second concurrent transaction is refused at once.
	opts := &ode.Options{NoSync: true, MaxConcurrentTx: 1, MaxQueuedTx: -1}
	for _, shape := range []bench.Shape{{Opts: opts}, {Kind: bench.Remote, Opts: opts}, {Kind: bench.Sharded, Shards: 3, Opts: opts}} {
		d, err := bench.Open(shape)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(d.Mode(), func(t *testing.T) {
			defer d.Close()
			r := &run{stock: d.Stock, cell: d.Cell, oid: map[string]ode.OID{}, ref: map[string]ode.VRef{}}
			r.trips = func() uint64 {
				var n uint64
				if d.Client != nil {
					n += d.Client.CacheMetrics().RoundTrips.Load()
				}
				if d.Router != nil {
					for i := 0; i < d.Router.NumShards(); i++ {
						n += d.Router.Shard(i).CacheMetrics().RoundTrips.Load()
					}
				}
				return n
			}
			r.begin = func() ode.ObjectTx {
				ctx := context.Background()
				switch {
				case d.Router != nil:
					return d.Router.Begin(ctx)
				case d.Client != nil:
					tx, err := d.Client.Begin(ctx)
					if err != nil {
						t.Fatal(err)
					}
					return tx
				}
				return ode.EmbeddedTx{Tx: d.DB.Begin()}
			}
			for _, step := range script {
				if got := step.do(r); got != step.want {
					t.Errorf("%s: %s, want %s", step.name, got, step.want)
				}
			}
		})
	}
}
