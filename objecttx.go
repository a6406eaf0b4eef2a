package ode

import "ode/internal/query"

// ObjectTx is the object API, declared once: the paper's pnew, deref,
// update, pdelete, newversion and one-comparison forall, plus the
// transaction boundary. A program written against it runs unchanged
// wherever its objects live: *client.Tx (one server) and *client.STx
// (a shard group) implement it as they stand, and EmbeddedTx adapts the
// in-process *Tx. Like those, an ObjectTx belongs to one goroutine, and
// every operation of a finished one returns ErrTxDone.
type ObjectTx interface {
	PNew(c *Class, init *Object) (OID, error)
	Deref(oid OID) (*Object, error)
	Update(oid OID, o *Object) error
	PDelete(oid OID) error

	CurrentVersion(oid OID) (uint32, error)
	NewVersion(oid OID) (VRef, error)
	Versions(oid OID) ([]uint32, error)
	DerefVersion(ref VRef) (*Object, error)
	DeleteVersion(ref VRef) error

	// Forall streams the scan's rows through fn and returns how many it
	// delivered; fn returning false stops the scan early, an error ends
	// it with that error. Collect returns every row, Count their number.
	Forall(s *Scan, fn func(oid OID, obj *Object) (bool, error)) (int, error)
	Collect(s *Scan) ([]OID, []*Object, error)
	Count(s *Scan) (int, error)

	Commit() error
	Abort()
}

// CmpOp is the comparison of a Scan's field predicate.
type CmpOp = query.CmpOp

// Comparison operators.
const (
	CmpEq = query.OpEq
	CmpNe = query.OpNe
	CmpLt = query.OpLt
	CmpLe = query.OpLe
	CmpGt = query.OpGt
	CmpGe = query.OpGe
)

// Scan describes a forall with at most one field comparison: the class
// to iterate, whether to include subtypes, and an optional indexable
// predicate `Field Op Value`. Every deployment plans it with Scan.Query,
// in process or on the server the scan was shipped to.
type Scan struct {
	Class    *Class
	Subtypes bool
	NoIndex  bool // force an extent scan even when an index matches
	Field    string
	Op       CmpOp
	Value    Value
}

// Query plans the scan inside tx, index selection included. It is the
// only translation from a scan descriptor to the engine's forall.
func (s *Scan) Query(tx *Tx) *Query {
	q := query.Forall(tx, s.Class)
	if s.Subtypes {
		q = q.Subtypes()
	}
	if s.NoIndex {
		q = q.NoIndex()
	}
	if s.Field != "" {
		q = q.SuchThat(query.FieldPred{Name: s.Field, Op: s.Op, Value: s.Value})
	}
	return q
}

// EmbeddedTx is the embedded engine's ObjectTx: a *Tx, which already
// has every other operation, plus the scan trio — which cannot be
// methods of *Tx because internal/query imports the transaction
// package, not the other way round.
type EmbeddedTx struct{ *Tx }

var _ ObjectTx = EmbeddedTx{}

// Forall implements ObjectTx.
func (t EmbeddedTx) Forall(s *Scan, fn func(oid OID, obj *Object) (bool, error)) (int, error) {
	n := 0
	err := s.Query(t.Tx).Do(func(it Item) (bool, error) {
		n++
		return fn(it.OID, it.Obj)
	})
	return n, err
}

// Collect implements ObjectTx.
func (t EmbeddedTx) Collect(s *Scan) (oids []OID, objs []*Object, err error) {
	items, err := s.Query(t.Tx).Collect()
	for _, it := range items {
		oids, objs = append(oids, it.OID), append(objs, it.Obj)
	}
	return oids, objs, err
}

// Count implements ObjectTx.
func (t EmbeddedTx) Count(s *Scan) (int, error) { return s.Query(t.Tx).Count() }
