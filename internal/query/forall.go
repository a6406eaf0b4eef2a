package query

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

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
	workers  int  // > 1: partition the scan across a worker pool
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

// Parallel partitions the scan across n worker goroutines (n <= 0 means
// GOMAXPROCS). Parallel implies Snapshot: objects created during the
// loop are not visited, because fixpoint semantics need a serial view
// of the growing write set. Ordered runs (By/ByKey) stay serial too —
// their output order must be deterministic. The body runs concurrently,
// so it must be safe for concurrent invocation; reading through the
// transaction (Deref, field access) is safe, mutating it (Update, PNew,
// Delete) is not. Collect and Count synchronize internally. Iteration
// order across workers is unspecified.
func (q *Query) Parallel(n int) *Query {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	q.workers = n
	q.snapshot = true
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
func (q *Query) Do(fn func(it Item) (bool, error)) error {
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
	if q.snapshot {
		if q.workers > 1 {
			return q.runParallel(fn)
		}
		return q.gatherEach(fn)
	}
	return q.runFixpoint(fn)
}

// Collect runs the loop and returns all bindings. With Parallel the
// result order is unspecified.
func (q *Query) Collect() ([]Item, error) {
	var mu sync.Mutex
	var out []Item
	err := q.Do(func(it Item) (bool, error) {
		mu.Lock()
		out = append(out, it)
		mu.Unlock()
		return true, nil
	})
	return out, err
}

// Count runs the loop and counts bindings.
func (q *Query) Count() (int, error) {
	var n atomic.Int64
	err := q.Do(func(Item) (bool, error) {
		n.Add(1)
		return true, nil
	})
	return int(n.Load()), err
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
// unique per object, so no dedup set is needed beyond the dirty map.
func (q *Query) gatherEach(fn func(Item) (bool, error)) error {
	stopped := false
	visit := func(oid core.OID) (bool, error) {
		it, ok, err := q.fetch(oid)
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

	// Transaction-dirty objects first: they are authoritative over any
	// (possibly stale) index entry or extent membership.
	writeSet := q.tx.WriteSet()
	var dirty map[core.OID]bool
	if len(writeSet) > 0 {
		dirty = make(map[core.OID]bool, len(writeSet))
		for _, oid := range writeSet {
			dirty[oid] = true
			if cont, err := visit(oid); err != nil || !cont {
				return err
			}
		}
	}

	if lo, hi, field, residualOnly := q.indexPath(); field != "" {
		q.plan = fmt.Sprintf("index-scan(%s.%s in [%s, %s])", q.class.Name, field, lo, hi)
		if residualOnly {
			q.plan += " + residual"
		}
		if !q.internal {
			q.met().PlanIndexRange.Inc()
		}
		return q.tx.Manager().IndexScan(q.class, field, lo, hi, func(oid core.OID) (bool, error) {
			if dirty[oid] {
				return true, nil // already handled from the write set
			}
			return visit(oid)
		})
	}

	q.plan = fmt.Sprintf("extent-scan(%s%s)", q.class.Name, starIf(q.subtypes))
	if !q.internal {
		q.met().PlanExtentScan.Inc()
	}
	for _, c := range q.classes() {
		// Extent boundary: a scan over a class hierarchy re-checks the
		// transaction context between extents.
		if err := q.tx.Err(); err != nil {
			return err
		}
		err := q.tx.Manager().ScanCluster(c, func(oid core.OID) (bool, error) {
			if dirty[oid] {
				return true, nil
			}
			return visit(oid)
		})
		if err != nil || stopped {
			return err
		}
	}
	return nil
}

// candidateOIDs snapshots the OIDs the loop must visit, choosing the
// same access path (index range vs extent scan) as gatherEach and
// recording the same plan string and plan counters. OIDs in dirty are
// excluded (the serial write-set pass already visited them).
func (q *Query) candidateOIDs(dirty map[core.OID]bool) ([]core.OID, error) {
	keep := func(oids []core.OID) []core.OID {
		if len(dirty) == 0 {
			return oids
		}
		out := oids[:0]
		for _, oid := range oids {
			if !dirty[oid] {
				out = append(out, oid)
			}
		}
		return out
	}
	if lo, hi, field, residualOnly := q.indexPath(); field != "" {
		q.plan = fmt.Sprintf("index-scan(%s.%s in [%s, %s])", q.class.Name, field, lo, hi)
		if residualOnly {
			q.plan += " + residual"
		}
		if !q.internal {
			q.met().PlanIndexRange.Inc()
		}
		oids, err := q.tx.Manager().IndexOIDs(q.class, field, lo, hi)
		if err != nil {
			return nil, err
		}
		return keep(oids), nil
	}
	q.plan = fmt.Sprintf("extent-scan(%s%s)", q.class.Name, starIf(q.subtypes))
	if !q.internal {
		q.met().PlanExtentScan.Inc()
	}
	var all []core.OID
	for _, c := range q.classes() {
		oids, err := q.tx.Manager().ClusterOIDs(c)
		if err != nil {
			return nil, err
		}
		all = append(all, keep(oids)...)
	}
	return all, nil
}

// runParallel is the snapshot loop partitioned across q.workers
// goroutines. The transaction write set is visited first, serially
// (those objects live in tx-local state and are authoritative); the
// committed candidates are then split into chunks claimed from a shared
// counter. A body returning false or an error raises a stop flag that
// every worker polls per object, and the error of the lowest-numbered
// chunk wins, so the reported error does not depend on goroutine
// scheduling.
func (q *Query) runParallel(fn func(Item) (bool, error)) error {
	visit := func(oid core.OID) (bool, error) {
		it, ok, err := q.fetch(oid)
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
		return fn(it)
	}

	writeSet := q.tx.WriteSet()
	var dirty map[core.OID]bool
	if len(writeSet) > 0 {
		dirty = make(map[core.OID]bool, len(writeSet))
		for _, oid := range writeSet {
			dirty[oid] = true
			cont, err := visit(oid)
			if err != nil || !cont {
				return err
			}
		}
	}

	oids, err := q.candidateOIDs(dirty)
	if err != nil {
		return err
	}
	q.plan += fmt.Sprintf(" parallel(%d)", q.workers)
	if !q.internal {
		q.met().ParallelForalls.Inc()
	}
	if len(oids) == 0 {
		return nil
	}
	workers := q.workers
	if workers > len(oids) {
		workers = len(oids)
	}
	// ~8 chunks per worker balances skew against claim traffic.
	chunk := len(oids) / (workers * 8)
	if chunk < 1 {
		chunk = 1
	}
	nchunks := (len(oids) + chunk - 1) / chunk

	chunkErr := make([]error, nchunks)
	var next atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				ci := int(next.Add(1)) - 1
				if ci >= nchunks {
					return
				}
				// Chunk boundary: each worker re-checks the transaction
				// context before claiming more work, so a Parallel(n)
				// scan stops within one chunk of cancellation.
				if err := q.tx.Err(); err != nil {
					chunkErr[ci] = err
					stop.Store(true)
					return
				}
				lo, hi := ci*chunk, (ci+1)*chunk
				if hi > len(oids) {
					hi = len(oids)
				}
				for _, oid := range oids[lo:hi] {
					if stop.Load() {
						return
					}
					cont, err := visit(oid)
					if err != nil {
						chunkErr[ci] = err // one worker per chunk: no race
						stop.Store(true)
						return
					}
					if !cont {
						stop.Store(true)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, e := range chunkErr {
		if e != nil {
			return e
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
// the loop variable (exists, not deleted, class matches). It is the
// per-row cancellation point of every scan shape: an expired or
// canceled transaction context stops the loop with a typed error even
// when the row would have been served from tx-local state without a
// lock wait.
func (q *Query) fetch(oid core.OID) (Item, bool, error) {
	if err := q.tx.Err(); err != nil {
		return Item{}, false, err
	}
	q.met().RowsScanned.Inc()
	if q.tx.IsDeleted(oid) {
		return Item{}, false, nil
	}
	o, err := q.tx.Deref(oid)
	if errors.Is(err, object.ErrNoObject) {
		// The scan lists OIDs before it locks them, so another
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
			it, ok, err := q.fetch(oid)
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
