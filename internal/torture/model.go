package torture

// The shared half of every mode: the op generator, the model, the
// executor, resolve and verify. All of it speaks ode.ObjectTx, so the
// same seeded history runs on every topology.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"ode"
)

// snap is the model's view of one object.
type snap struct {
	live   bool
	name   string
	qty    int64
	cur    uint32
	frozen map[uint32]int64 // frozen version -> qty at freeze
	acts   int              // armed trigger activations
}

func (s *snap) clone() *snap {
	c := *s
	c.frozen = make(map[uint32]int64, len(s.frozen))
	for v, q := range s.frozen {
		c.frozen[v] = q
	}
	return &c
}

func (s *snap) equal(o *snap) bool {
	if s.live != o.live {
		return false
	}
	if !s.live {
		return true
	}
	if s.name != o.name || s.qty != o.qty || s.cur != o.cur || s.acts != o.acts || len(s.frozen) != len(o.frozen) {
		return false
	}
	for v, q := range s.frozen {
		if oq, ok := o.frozen[v]; !ok || oq != q {
			return false
		}
	}
	return true
}

type opKind uint8

const (
	opNew opKind = iota
	opUpdate
	opDelete
	opNewVersion
	opDeleteVersion
	opActivate
	opCount
)

// step is one operation of a plan: its kind, its target (a create's
// oid is filled in when PNew returns it) and the target's state after.
type step struct {
	kind  opKind
	oid   ode.OID
	ver   uint32 // opDeleteVersion: the version deleted
	after *snap
}

// pending is one transaction's plan, kept until its outcome is known:
// its steps and, for every object whose oid is known, the state before
// and after it.
type pending struct {
	steps         []step
	before, after map[ode.OID]*snap
	// lost: a later create was handed one of this plan's created oids,
	// which a durable allocation never is — the plan cannot have landed.
	lost bool
}

func (r *run) newPlan() *pending {
	return &pending{before: make(map[ode.OID]*snap), after: make(map[ode.OID]*snap)}
}

// plan draws a transaction of up to nops operations on distinct
// objects. A count is drawn only while nothing is fenced: an in-doubt
// 2PC participant keeps its locks until resolve (X on its rows, IX on
// their cluster), so a count would wait out the round.
func (r *run) plan(nops int) *pending {
	p := r.newPlan()
	for i := 0; i < nops; i++ {
		k := r.rng.Intn(11)
		if k <= 2 {
			r.planNew(p)
			continue
		}
		if k == 10 {
			if len(r.fenced) == 0 {
				p.steps = append(p.steps, step{kind: opCount})
			}
			continue
		}
		oid := r.pickLive(p, nil)
		if oid == ode.NilOID {
			continue
		}
		switch {
		case k == 3:
			if len(r.model) > 10 {
				r.planStep(p, opDelete, oid)
			}
		case k <= 5:
			r.planStep(p, opNewVersion, oid)
		case k == 6:
			r.planStep(p, opDeleteVersion, oid)
		case k == 7 && r.triggers:
			r.planStep(p, opActivate, oid)
		default:
			r.planStep(p, opUpdate, oid)
		}
	}
	return p
}

// pickLive returns a random live, unfenced oid not already in p that
// keep (if set) accepts, or NilOID.
func (r *run) pickLive(p *pending, keep func(ode.OID) bool) ode.OID {
	oids := make([]ode.OID, 0, len(r.model))
	for oid := range r.model {
		if _, taken := p.after[oid]; !taken && !r.fenced[oid] && (keep == nil || keep(oid)) {
			oids = append(oids, oid)
		}
	}
	if len(oids) == 0 {
		return ode.NilOID
	}
	sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })
	return oids[r.rng.Intn(len(oids))]
}

// planNew adds a create.
func (r *run) planNew(p *pending) {
	s := &snap{
		live:   true,
		name:   fmt.Sprintf("item-%d", r.rng.Intn(1_000_000)) + strings.Repeat(".", r.pad),
		qty:    int64(r.rng.Intn(1000)),
		frozen: map[uint32]int64{},
	}
	p.steps = append(p.steps, step{kind: opNew, after: s})
}

// planStep adds one operation on the live object oid; a deleteversion
// of an object with no frozen version adds nothing.
func (r *run) planStep(p *pending, kind opKind, oid ode.OID) {
	b := r.model[oid]
	a := b.clone()
	s := step{kind: kind, oid: oid}
	switch kind {
	case opUpdate:
		a.qty = int64(r.rng.Intn(1000))
	case opDelete:
		a = &snap{}
	case opNewVersion:
		a.frozen[a.cur] = a.qty
		a.cur++
	case opDeleteVersion:
		if len(a.frozen) == 0 {
			return
		}
		vers := make([]uint32, 0, len(a.frozen))
		for v := range a.frozen {
			vers = append(vers, v)
		}
		sort.Slice(vers, func(i, j int) bool { return vers[i] < vers[j] })
		s.ver = vers[r.rng.Intn(len(vers))]
		delete(a.frozen, s.ver)
	case opActivate:
		a.acts++
	}
	s.after = a
	p.steps = append(p.steps, s)
	p.before[oid], p.after[oid] = b, a
}

// apply runs every step of p in tx.
func (r *run) apply(tx ode.ObjectTx, p *pending) error {
	for i := range p.steps {
		if err := r.applyStep(tx, p, &p.steps[i]); err != nil {
			return err
		}
	}
	return nil
}

func (r *run) applyStep(tx ode.ObjectTx, p *pending, s *step) error {
	switch s.kind {
	case opNew:
		o := ode.NewObject(r.stock)
		o.MustSet("name", ode.Str(s.after.name))
		o.MustSet("qty", ode.Int(s.after.qty))
		oid, err := tx.PNew(r.stock, o)
		if err != nil {
			return err
		}
		return r.minted(p, s, oid)
	case opUpdate:
		o, err := tx.Deref(s.oid)
		if err != nil {
			return err
		}
		o.MustSet("qty", ode.Int(s.after.qty))
		return tx.Update(s.oid, o)
	case opDelete:
		return tx.PDelete(s.oid)
	case opNewVersion:
		_, err := tx.NewVersion(s.oid)
		return err
	case opDeleteVersion:
		return tx.DeleteVersion(ode.VRef{OID: s.oid, Version: s.ver})
	case opCount:
		return r.countTwice(tx)
	default: // opActivate, drawn only where traffic runs embedded
		dt := tx.(dbTx)
		_, err := dt.db.Triggers().Activate(dt.Tx, s.oid, "sentinel")
		return err
	}
}

// errLockAborted marks a plan whose count lost a lock wait — a
// deadline or a deadlock — before anything was committed: an ordinary
// abort, not a fault.
var errLockAborted = errors.New("torture: count aborted on a lock wait")

// countTwice counts the extent twice in one transaction. The scan holds
// the cluster S between the counts, so no writer can commit into it
// and the two must agree. (A shard locks the rows instead and admits a
// phantom, but shard traffic runs one transaction at a time.)
func (r *run) countTwice(tx ode.ObjectTx) error {
	scan := &ode.Scan{Class: r.stock, NoIndex: true}
	first, err := tx.Count(scan)
	if err == nil {
		var second int
		if second, err = tx.Count(scan); err == nil && second != first {
			return r.failf("phantom: one transaction counted %d, then %d", first, second)
		}
	}
	if errors.Is(err, ode.ErrDeadlock) || errors.Is(err, ode.ErrTxTimeout) {
		return fmt.Errorf("%w: %w", errLockAborted, err)
	}
	if err == nil {
		r.count("counts", 1)
	}
	return err
}

// minted records the oid PNew returned for a create step. An oid the
// model holds live is identity reuse; one an uncertain plan also
// created proves that plan never landed, and passes to this one.
func (r *run) minted(p *pending, s *step, oid ode.OID) error {
	if _, live := r.model[oid]; live {
		return r.failf("PNew re-minted @%d, which the model holds live", oid)
	}
	for _, q := range r.uncertain {
		if _, ok := q.after[oid]; ok {
			q.lost = true
			delete(q.before, oid)
			delete(q.after, oid)
		}
	}
	s.oid = oid
	p.before[oid], p.after[oid] = &snap{}, s.after
	return nil
}

// errRetried is what a plan's fn returns when a topology's retry loop
// calls it a second time: the first attempt's outcome is unknown, so
// the plan is resolved, never retried.
var errRetried = errors.New("torture: plan attempted twice")

// execute runs p in exactly one attempt through the topology's runTx
// and folds it into the model if it committed. On an error the caller
// decides: a clean abort, an uncertain plan (doubt), or a failure.
func (r *run) execute(ctx context.Context, p *pending) error {
	calls := 0
	err := r.runTx(ctx, func(tx ode.ObjectTx) error {
		if calls++; calls > 1 {
			return errRetried
		}
		return r.apply(tx, p)
	})
	if err != nil {
		r.count("aborts", 1)
		return err
	}
	r.count("commits", 1)
	r.commit(p)
	return nil
}

// transaction draws a plan of 1–3 operations and executes it; the plan
// is nil when the draw came up empty or its count aborted it on a lock
// wait (counted as lockaborts).
func (r *run) transaction(ctx context.Context) (*pending, error) {
	p := r.plan(1 + r.rng.Intn(3))
	if len(p.steps) == 0 {
		return nil, nil
	}
	err := r.execute(ctx, p)
	if errors.Is(err, errLockAborted) {
		r.count("lockaborts", 1)
		return nil, nil
	}
	return p, err
}

// createOne executes a plan of one create (seed populations).
func (r *run) createOne(ctx context.Context) (*pending, error) {
	p := r.newPlan()
	r.planNew(p)
	return p, r.execute(ctx, p)
}

// constraintAbort updates a live object to qty -1, which the nonneg-qty
// constraint must refuse at commit — the paper's constraint-violation
// abort, invisible afterwards.
func (r *run) constraintAbort() error {
	oid := r.pickLive(r.newPlan(), nil)
	if oid == ode.NilOID {
		return nil
	}
	err := r.runTx(context.Background(), func(tx ode.ObjectTx) error {
		o, err := tx.Deref(oid)
		if err != nil {
			return err
		}
		o.MustSet("qty", ode.Int(-1))
		return tx.Update(oid, o)
	})
	switch {
	case errors.Is(err, ode.ErrConstraintViolation):
		r.count("aborts", 1)
		return nil
	case err == nil:
		return r.failf("constraint-violating commit succeeded on @%d", oid)
	}
	return err
}

// commit folds a committed plan into the model.
func (r *run) commit(p *pending) {
	for oid, a := range p.after {
		if a.live {
			r.model[oid] = a
			continue
		}
		delete(r.model, oid)
		r.dead = append(r.dead, oid)
		if len(r.dead) > 50 {
			r.dead = r.dead[len(r.dead)-50:]
		}
	}
}

// doubt holds a plan whose outcome is unknown for resolve, fencing its
// objects so no later plan touches them before then.
func (r *run) doubt(p *pending) {
	r.count("uncertain", 1)
	r.uncertain = append(r.uncertain, p)
	for oid := range p.after {
		r.fenced[oid] = true
	}
}

// resolve decides every uncertain plan against the durable state: it
// must hold all of a plan's before-state or all of its after-state, and
// an after-state is folded into the model. Plans are resolved oldest
// first; fencing keeps their object sets disjoint.
func (r *run) resolve() error {
	var oids []ode.OID
	for _, p := range r.uncertain {
		oids = append(oids, keys(p.after)...)
	}
	got, err := r.read(oids)
	if err != nil {
		return fmt.Errorf("resolve: %w", err)
	}
	for _, p := range r.uncertain {
		okBefore, okAfter := true, !p.lost
		for oid, a := range p.after {
			okAfter = okAfter && got[oid].equal(a)
			okBefore = okBefore && got[oid].equal(p.before[oid])
		}
		switch {
		case okBefore:
			// Rolled back, or never reached the commit.
		case okAfter:
			// The commit landed although its caller saw an error.
			r.commit(p)
			r.count("resurrected", 1)
		default:
			return r.failf("atomicity violation: an uncertain plan is partially applied (touched %v)", keys(p.after))
		}
	}
	r.uncertain = nil
	clear(r.fenced)
	return nil
}

// read reads the durable state of oids in one view.
func (r *run) read(oids []ode.OID) (map[ode.OID]*snap, error) {
	out := make(map[ode.OID]*snap, len(oids))
	err := r.view(func(tx ode.ObjectTx) error {
		for _, oid := range oids {
			s, err := readState(tx, oid)
			if err != nil {
				return fmt.Errorf("read @%d: %w", oid, err)
			}
			out[oid] = s
		}
		return nil
	})
	return out, err
}

// readState reads one object's full state in tx.
func readState(tx ode.ObjectTx, oid ode.OID) (*snap, error) {
	s := &snap{frozen: map[uint32]int64{}}
	o, err := tx.Deref(oid)
	if errors.Is(err, ode.ErrNoObject) {
		return s, nil // s.live stays false
	}
	if err != nil {
		return nil, err
	}
	s.live = true
	s.name = o.MustGet("name").Str()
	s.qty = o.MustGet("qty").Int()
	if s.cur, err = tx.CurrentVersion(oid); err != nil {
		return nil, err
	}
	vs, err := tx.Versions(oid)
	if err != nil {
		return nil, err
	}
	for _, v := range vs {
		ov, err := tx.DerefVersion(ode.VRef{OID: oid, Version: v})
		if err != nil {
			return nil, err
		}
		s.frozen[v] = ov.MustGet("qty").Int()
	}
	if dt, ok := tx.(dbTx); ok {
		s.acts = len(dt.db.Triggers().ActiveOn(oid))
	}
	return s, nil
}

// verify checks the topology against the model: the extent and the qty
// index of every database together hold exactly the model's live set;
// every object reads back its modelled state twice, the second read
// through the caches filled by the first; and recently deleted objects
// stay deleted. It counts the objects it verified.
func (r *run) verify() error {
	var extent, indexed []ode.OID
	err := r.dbs(func(db *ode.DB, stock *ode.Class) error {
		e, err := db.Manager().ClusterOIDs(stock)
		if err != nil {
			return fmt.Errorf("extent scan: %w", err)
		}
		ix, err := db.Manager().IndexOIDs(stock, "qty", ode.Null, ode.Null)
		if err != nil {
			return fmt.Errorf("index scan: %w", err)
		}
		extent, indexed = append(extent, e...), append(indexed, ix...)
		return nil
	})
	if err != nil {
		return err
	}
	if err := r.sameAsModel(extent, "extent"); err != nil {
		return err
	}
	if err := r.sameAsModel(indexed, "index(qty)"); err != nil {
		return err
	}
	oids := append(keys(r.model), r.dead...)
	for pass := 0; pass < 2; pass++ {
		got, err := r.read(oids)
		if err != nil {
			return fmt.Errorf("verify pass %d: %w", pass, err)
		}
		for oid, want := range r.model {
			if !got[oid].equal(want) {
				return r.failf("object @%d (pass %d) diverged: stored %+v, model %+v", oid, pass, got[oid], want)
			}
			if got[oid].qty < 0 {
				return r.failf("object @%d violates nonneg-qty: %d", oid, got[oid].qty)
			}
		}
		for _, oid := range r.dead {
			if _, live := r.model[oid]; !live && got[oid].live {
				return r.failf("deleted object @%d resurrected", oid)
			}
		}
	}
	r.count("verified", len(r.model))
	return nil
}

// sameAsModel checks that got lists the model's live set exactly once.
func (r *run) sameAsModel(got []ode.OID, what string) error {
	seen := make(map[ode.OID]bool, len(got))
	for _, oid := range got {
		if _, ok := r.model[oid]; !ok {
			return r.failf("%s holds unknown object @%d", what, oid)
		}
		if seen[oid] {
			return r.failf("%s holds @%d twice", what, oid)
		}
		seen[oid] = true
	}
	if len(seen) != len(r.model) {
		return r.failf("%s holds %d objects, model %d", what, len(seen), len(r.model))
	}
	return nil
}

func keys(m map[ode.OID]*snap) []ode.OID {
	out := make([]ode.OID, 0, len(m))
	for oid := range m {
		out = append(out, oid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
