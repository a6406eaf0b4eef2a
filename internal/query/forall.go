package query

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"ode/internal/core"
	"ode/internal/object"
	"ode/internal/obs"
	"ode/internal/txn"
)

// Query is a forall loop under construction:
//
//	forall x in C [*] [suchthat pred] [by key] { body }
//
// Build it with Forall and the chained modifiers, then run it with Do,
// Collect, or Count.
type Query struct {
	tx       *txn.Tx
	class    *core.Class
	subtypes bool
	pred     Pred
	byField  string
	byKey    func(Item) (core.Value, error)
	desc     bool
	snapshot bool
	noIndex  bool
	internal bool // subquery of a join: excluded from forall/plan counters
	plan     string
}

// met returns the query metric set of the owning engine (never nil).
func (q *Query) met() *obs.QueryMetrics { return &q.tx.Metrics().Query }

// Forall starts a forall loop over the extent of class c within tx.
func Forall(tx *txn.Tx, c *core.Class) *Query {
	return &Query{tx: tx, class: c}
}

// Subtypes extends the iteration to the whole cluster hierarchy: the
// O++ `forall x in person*` form (paper, section 3.1.1).
func (q *Query) Subtypes() *Query {
	q.subtypes = true
	return q
}

// SuchThat adds the filtering clause. Multiple calls conjoin.
func (q *Query) SuchThat(p Pred) *Query {
	if q.pred == nil {
		q.pred = p
	} else {
		q.pred = And(q.pred, p)
	}
	return q
}

// By orders the iteration by a field value, ascending (the O++ `by`
// clause). Ordering implies snapshot semantics.
func (q *Query) By(field string) *Query {
	q.byField = field
	return q
}

// ByKey orders the iteration by a computed key.
func (q *Query) ByKey(fn func(Item) (core.Value, error)) *Query {
	q.byKey = fn
	return q
}

// Desc flips the ordering direction.
func (q *Query) Desc() *Query {
	q.desc = true
	return q
}

// Snapshot disables the paper's visit-inserted (fixpoint) semantics:
// objects created during the iteration are not visited. Iterations
// with a by clause are always snapshot.
func (q *Query) Snapshot() *Query {
	q.snapshot = true
	return q
}

// NoIndex forces a full extent scan even when an index could serve the
// suchthat clause (for ablation benchmarks).
func (q *Query) NoIndex() *Query {
	q.noIndex = true
	return q
}

// Plan returns a description of the access path chosen by the last run
// ("" before any run).
func (q *Query) Plan() string { return q.plan }

// Do runs the loop. fn returning false stops the iteration early.
//
// Semantics, per the paper: objects pnew'ed into the iterated extents
// while the loop runs are themselves visited (section 3.2, fixpoint
// queries) unless Snapshot or an ordering clause is in effect. Objects
// deleted in the surrounding transaction are never visited.
func (q *Query) Do(fn func(it Item) (bool, error)) error { return q.run(fn, q.snapshot) }

// run is Do, with snapshot semantics when snapshot is set.
func (q *Query) run(fn func(it Item) (bool, error), snapshot bool) error {
	// A finished transaction scans nothing, not even an empty extent.
	if err := q.tx.Err(); err != nil {
		return err
	}
	if !q.internal {
		q.met().Foralls.Inc()
	}
	if q.byField != "" || q.byKey != nil {
		return q.runOrdered(fn)
	}
	if snapshot {
		return q.gatherEach(fn)
	}
	return q.runFixpoint(fn)
}

// Collect runs the loop and returns all bindings. Its body writes
// nothing, so no object can join the extents while it runs, and it
// takes the snapshot path without the fixpoint's visited set.
func (q *Query) Collect() ([]Item, error) {
	var out []Item
	err := q.run(func(it Item) (bool, error) {
		out = append(out, it)
		return true, nil
	}, true)
	return out, err
}

// Count runs the loop and counts bindings; like Collect, it takes the
// snapshot path.
func (q *Query) Count() (int, error) {
	n := 0
	err := q.run(func(Item) (bool, error) {
		n++
		return true, nil
	}, true)
	return n, err
}

// classes returns the extents to visit.
func (q *Query) classes() []*core.Class {
	if q.subtypes {
		return q.tx.Schema().Hierarchy(q.class)
	}
	return []*core.Class{q.class}
}

// classMatch reports whether an object of class c binds this loop
// variable.
func (q *Query) classMatch(c *core.Class) bool {
	if q.subtypes {
		return c.IsA(q.class)
	}
	return c == q.class
}

// eval applies the full suchthat predicate.
func (q *Query) eval(it Item) (bool, error) {
	if q.pred == nil {
		return true, nil
	}
	return q.pred.Eval(q.tx, it)
}

// gatherEach streams the matching items once (snapshot semantics),
// choosing an index access path when possible. No item buffering:
// extents of distinct classes are disjoint and index entries are
// unique per object, so the only dedup is against the write set, whose
// images are authoritative over any (possibly stale) index entry or
// extent membership. An extent path merges the transaction's writes
// into each cluster's walk, so its rows come in OID order per class
// whatever the transaction wrote; it takes S on each cluster before
// listing it and reads the rows under it (on a shard, Tx.LockCluster
// declines and the rows are locked). An index path visits the writes
// first, then the index in key order, and locks each row it reads.
func (q *Query) gatherEach(fn func(Item) (bool, error)) error {
	stopped := false
	visit := func(oid core.OID, covered bool) (bool, error) {
		it, ok, err := q.fetch(oid, covered)
		if err != nil || !ok {
			return err == nil, err
		}
		match, err := q.eval(it)
		if err != nil {
			return false, err
		}
		if !match {
			return true, nil
		}
		q.met().RowsYielded.Inc()
		cont, err := fn(it)
		if !cont {
			stopped = true
		}
		return cont, err
	}
	writeSet := q.tx.WriteSet() // in OID order

	if lo, hi, field, residualOnly := q.indexPath(); field != "" {
		q.plan = fmt.Sprintf("index-scan(%s.%s in [%s, %s])", q.class.Name, field, bound(lo, "-inf"), bound(hi, "+inf"))
		if residualOnly {
			q.plan += " + residual"
		}
		if !q.internal {
			q.met().PlanIndexRange.Inc()
		}
		for _, oid := range writeSet {
			if cont, err := visit(oid, false); err != nil || !cont {
				return err
			}
		}
		return q.tx.Manager().IndexScan(q.class, field, lo, hi, func(oid core.OID) (bool, error) {
			if _, written := slices.BinarySearch(writeSet, oid); written {
				return true, nil // already handled from the write set
			}
			return visit(oid, false)
		})
	}

	q.plan = "extent-scan(" + q.class.Name + starIf(q.subtypes) + ")" // not fmt: its printer pool drops entries at random under -race
	if !q.internal {
		q.met().PlanExtentScan.Inc()
	}
	for _, c := range q.classes() {
		// Extent boundary: a scan over a class hierarchy re-checks the
		// transaction context between extents.
		if err := q.tx.Err(); err != nil {
			return err
		}
		covered, err := q.tx.LockCluster(c)
		if err != nil {
			return err
		}
		// The writes merge into the walk by OID. A write is visited if it
		// lives in c (a delete lives nowhere), and a row the transaction
		// wrote is visited once, from the write set.
		pending := writeSet
		written := func(oid core.OID) (bool, error) {
			if o := q.tx.WrittenObject(oid); o != nil && o.Class() == c {
				return visit(oid, false)
			}
			return true, nil
		}
		err = q.tx.Manager().ScanCluster(c, func(oid core.OID) (bool, error) {
			for ; len(pending) > 0 && pending[0] <= oid; pending = pending[1:] {
				if pending[0] == oid {
					pending = pending[1:]
					return written(oid)
				}
				if cont, err := written(pending[0]); err != nil || !cont {
					return false, err
				}
			}
			return visit(oid, covered)
		})
		for ; err == nil && !stopped && len(pending) > 0; pending = pending[1:] {
			_, err = written(pending[0])
		}
		if err != nil || stopped {
			return err
		}
	}
	return nil
}

// gather collects the matching items (ordered runs need them all).
func (q *Query) gather() ([]Item, error) {
	var out []Item
	err := q.gatherEach(func(it Item) (bool, error) {
		out = append(out, it)
		return true, nil
	})
	return out, err
}

func starIf(b bool) string {
	if b {
		return "*"
	}
	return ""
}

// fetch loads the tx-visible state of oid and reports whether it binds
// the loop variable (exists, not deleted, class matches). covered
// means the row's cluster is locked S (an extent path) and the row
// takes no lock of its own. It is the per-row cancellation point of
// every scan shape: an expired or canceled transaction context stops
// the loop with a typed error even when the row would have been served
// from tx-local state without a lock wait.
func (q *Query) fetch(oid core.OID, covered bool) (Item, bool, error) {
	if err := q.tx.Err(); err != nil {
		return Item{}, false, err
	}
	q.met().RowsScanned.Inc()
	if q.tx.IsDeleted(oid) {
		return Item{}, false, nil
	}
	var o *core.Object
	var err error
	if covered {
		o, err = q.tx.DerefCovered(oid)
	} else {
		o, err = q.tx.Deref(oid)
	}
	if errors.Is(err, object.ErrNoObject) {
		// A scan that locks its rows (an index scan, or an extent scan
		// on a shard) lists OIDs before it locks them, so another
		// transaction can delete and commit a listed row before this
		// Deref's lock reaches it: the row is gone, exactly as if the
		// delete had committed before the scan started.
		return Item{}, false, nil
	}
	if err != nil {
		return Item{}, false, err
	}
	if !q.classMatch(o.Class()) {
		return Item{}, false, nil
	}
	return Item{OID: oid, Obj: o}, true, nil
}

// indexPath inspects the suchthat predicate for an indexable conjunct.
// It returns inclusive bounds, the field name ("" when no index path
// applies), and whether the residual check subsumes the bounds.
func (q *Query) indexPath() (lo, hi core.Value, field string, residual bool) {
	if q.noIndex || q.pred == nil {
		return core.Null, core.Null, "", false
	}
	var candidates []FieldPred
	switch p := q.pred.(type) {
	case FieldPred:
		candidates = append(candidates, p)
	case AndPred:
		for _, sub := range p {
			if fp, ok := sub.(FieldPred); ok {
				candidates = append(candidates, fp)
			}
		}
	}
	for _, fp := range candidates {
		l, h, res, ok := fp.indexBounds()
		if !ok {
			continue
		}
		if !q.tx.Manager().HasIndex(q.class, fp.Name) {
			continue
		}
		// An index on a base class covers subclass extents, so the
		// index path is valid for both C and C* loops; for C loops the
		// class filter in fetch() prunes subclass objects.
		return l, h, fp.Name, res
	}
	return core.Null, core.Null, "", false
}

// runOrdered gathers, sorts by the key, and visits.
func (q *Query) runOrdered(fn func(it Item) (bool, error)) error {
	items, err := q.gather()
	if err != nil {
		return err
	}
	key := q.byKey
	if key == nil {
		field := q.byField
		key = func(it Item) (core.Value, error) { return it.Obj.Get(field) }
	}
	type keyed struct {
		it Item
		k  core.Value
	}
	ks := make([]keyed, len(items))
	for i, it := range items {
		k, err := key(it)
		if err != nil {
			return err
		}
		ks[i] = keyed{it: it, k: k}
	}
	sort.SliceStable(ks, func(i, j int) bool {
		c := ks[i].k.Compare(ks[j].k)
		if q.desc {
			return c > 0
		}
		return c < 0
	})
	for _, e := range ks {
		cont, err := fn(e.it)
		if err != nil || !cont {
			return err
		}
	}
	return nil
}

// runFixpoint visits the snapshot first and then keeps visiting objects
// created into the iterated extents during the loop, until no new
// matching objects appear. This realizes the paper's recursive-query
// semantics for cluster loops.
func (q *Query) runFixpoint(fn func(it Item) (bool, error)) error {
	visited := make(map[core.OID]bool)
	stopped := false
	visit := func(items []Item) error {
		for _, it := range items {
			if visited[it.OID] {
				continue
			}
			visited[it.OID] = true
			cont, err := fn(it)
			if err != nil {
				return err
			}
			if !cont {
				stopped = true
				return nil
			}
		}
		return nil
	}
	err := q.gatherEach(func(it Item) (bool, error) {
		if visited[it.OID] {
			return true, nil
		}
		visited[it.OID] = true
		cont, err := fn(it)
		if !cont {
			stopped = true
		}
		return cont, err
	})
	if err != nil || stopped {
		return err
	}
	for {
		// Newly created objects land in the transaction write set; a
		// cheap delta pass over it suffices.
		var delta []Item
		for _, oid := range q.tx.WriteSet() {
			if visited[oid] {
				continue
			}
			it, ok, err := q.fetch(oid, false)
			if err != nil {
				return err
			}
			if !ok {
				visited[oid] = true // deleted or class mismatch: never visit
				continue
			}
			match, err := q.eval(it)
			if err != nil {
				return err
			}
			if match {
				q.met().RowsYielded.Inc()
				delta = append(delta, it)
			} else {
				visited[oid] = true
			}
		}
		if len(delta) == 0 {
			return nil
		}
		q.met().FixpointRounds.Inc()
		if err := visit(delta); err != nil || stopped {
			return err
		}
	}
}

// ErrStopped can be returned by callbacks that want to distinguish
// early termination from errors (convenience; Do treats a false return
// the same way).
var ErrStopped = errors.New("query: stopped")
