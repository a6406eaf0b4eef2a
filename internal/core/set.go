package core

import (
	"sort"
	"sync/atomic"
)

// Set is the container behind set values: an unordered collection of
// distinct values (paper, section 2.6). Iteration order is insertion
// order, which gives the deterministic worklist semantics that O++
// fixpoint queries rely on: elements inserted while a forall loop runs
// are appended and therefore visited by that loop (section 3.2).
//
// Sets are copy-on-write, as Object is one level up: Copy of a set that
// holds no set or array returns a new header over the same storage and
// marks both shared, and every writer (Insert, Remove, compaction)
// first gives a shared set storage of its own. So shared storage never
// holds a container, and no write through one set reaches another. The
// race rule is Object's: any number of goroutines may read and Copy one
// set at once; Insert, Remove and Iter need it to themselves.
type Set struct {
	index  map[uint64][]int // hash -> indices into elems
	elems  []Value
	dead   int         // tombstoned elements in elems (kind numKinds)
	nested int         // live elements that are sets or arrays
	iters  int         // active Iter calls; compaction is deferred while > 0
	shared atomic.Bool // index and elems may be another set's too: writers copy first
}

// NewSet returns an empty set.
func NewSet(elems ...Value) *Set {
	s := &Set{index: make(map[uint64][]int)}
	for _, e := range elems {
		s.Insert(e)
	}
	return s
}

// Len returns the number of elements.
func (s *Set) Len() int { return len(s.elems) - s.dead }

// find returns the position of v in elems, or -1. The index only holds
// live slots (Remove deletes the entry), so no tombstone check is needed.
func (s *Set) find(v Value) int {
	for _, i := range s.index[v.Hash()] {
		if s.elems[i].Equal(v) {
			return i
		}
	}
	return -1
}

// own gives a shared set storage of its own before a write. Positions
// and tombstones are kept, so an Iter running over the set goes on at
// the same position and still visits what the write appends. The hash
// buckets are not copied: each is capped at its length, so an Insert
// into one reallocates it, and Remove never writes into one in place.
func (s *Set) own() {
	if !s.shared.Load() {
		return
	}
	s.elems = append([]Value(nil), s.elems...)
	index := make(map[uint64][]int, len(s.index))
	for h, at := range s.index {
		index[h] = at[:len(at):len(at)]
	}
	s.index = index
	s.shared.Store(false)
}

// Insert adds v to the set. It reports whether v was newly added.
func (s *Set) Insert(v Value) bool {
	if s.Contains(v) {
		return false
	}
	s.own()
	h := v.Hash()
	s.elems = append(s.elems, v)
	s.index[h] = append(s.index[h], len(s.elems)-1)
	if v.isContainer() {
		s.nested++
	}
	return true
}

// Remove deletes v from the set. It reports whether v was present.
// Removal tombstones the slot so that running iterations skip it without
// index shifting.
func (s *Set) Remove(v Value) bool {
	h := v.Hash()
	slots := s.index[h]
	for k, i := range slots {
		if !s.elems[i].Equal(v) {
			continue
		}
		s.own()
		if len(slots) == 1 {
			delete(s.index, h)
		} else {
			s.index[h] = append(slots[:k:k], slots[k+1:]...)
		}
		if s.elems[i].isContainer() {
			s.nested--
		}
		s.elems[i] = Value{kind: numKinds}
		s.dead++
		s.maybeCompact()
		return true
	}
	return false
}

// maybeCompact rebuilds the element slice when more than half the slots
// are tombstones, keeping iteration linear in live elements. The new
// storage is the set's own, shared or not before.
func (s *Set) maybeCompact() {
	if s.iters > 0 || s.dead*2 <= len(s.elems) || len(s.elems) < 16 {
		return
	}
	live := make([]Value, 0, s.Len())
	for _, e := range s.elems {
		if e.kind != numKinds {
			live = append(live, e)
		}
	}
	s.elems = live
	s.dead = 0
	s.index = make(map[uint64][]int, len(live))
	for i, e := range live {
		h := e.Hash()
		s.index[h] = append(s.index[h], i)
	}
	s.shared.Store(false)
}

// Contains reports membership.
func (s *Set) Contains(v Value) bool { return s.find(v) >= 0 }

// Elems returns the live elements in insertion order. The slice is
// freshly allocated.
func (s *Set) Elems() []Value {
	out := make([]Value, 0, s.Len())
	for _, e := range s.elems {
		if e.kind != numKinds {
			out = append(out, e)
		}
	}
	return out
}

// Iter visits elements in insertion order, *including elements inserted
// during the iteration* — the fixpoint semantics of O++ set loops. The
// visit function may mutate the set. Tombstoned elements are skipped.
// Iter stops early if fn returns false.
func (s *Set) Iter(fn func(Value) bool) {
	// Index-based loop over s.elems as it is at each step: appends grow
	// it and are therefore visited, and a write that first copies shared
	// storage keeps every position. Compaction is deferred while any
	// iteration is active so positions stay stable.
	s.iters++
	defer func() { s.iters--; s.maybeCompact() }()
	for i := 0; i < len(s.elems); i++ {
		e := s.elems[i]
		if e.kind == numKinds {
			continue
		}
		if !fn(e) {
			return
		}
	}
}

// IterSnapshot visits the elements present at call time, in insertion
// order; later insertions are not visited. This is the non-fixpoint
// iteration mode.
func (s *Set) IterSnapshot(fn func(Value) bool) {
	for _, e := range s.Elems() {
		if !fn(e) {
			return
		}
	}
}

// Copy returns a set with s's elements that no write to either side
// reaches the other through. If no element is a set or an array, the
// copy is a new header over s's storage and both are marked shared; a
// set marked already is only read, so copying a cached image writes
// nothing. Otherwise the copy has storage of its own, whose containers
// are Copies in turn.
func (s *Set) Copy() *Set {
	if s.nested > 0 {
		out := &Set{index: make(map[uint64][]int, s.Len())}
		for _, e := range s.elems {
			if e.kind != numKinds {
				out.Insert(e.Copy())
			}
		}
		return out
	}
	if !s.shared.Load() {
		s.shared.Store(true)
	}
	out := &Set{index: s.index, elems: s.elems, dead: s.dead}
	out.shared.Store(true)
	return out
}

// Equal reports whether two sets contain equal elements.
func (s *Set) Equal(t *Set) bool {
	if s.Len() != t.Len() {
		return false
	}
	for _, e := range s.elems {
		if e.kind != numKinds && !t.Contains(e) {
			return false
		}
	}
	return true
}

// compare gives sets a total order: by length, then by sorted elements.
func (s *Set) compare(t *Set) int {
	if c := cmpInt(int64(s.Len()), int64(t.Len())); c != 0 {
		return c
	}
	a, b := s.Elems(), t.Elems()
	sort.Slice(a, func(i, j int) bool { return a[i].Compare(a[j]) < 0 })
	sort.Slice(b, func(i, j int) bool { return b[i].Compare(b[j]) < 0 })
	for i := range a {
		if c := a[i].Compare(b[i]); c != 0 {
			return c
		}
	}
	return 0
}

// Array is the container behind array values: an ordered, growable
// sequence. It is copy-on-write under the same rule as Set: Copy of an
// array that holds no set or array shares its storage, and SetAt and
// Append first give a shared array storage of its own.
type Array struct {
	elems  []Value
	nested int         // elements that are sets or arrays
	shared atomic.Bool // elems may be another array's too: writers copy first
}

// NewArray returns an array holding the given elements.
func NewArray(elems ...Value) *Array {
	a := &Array{elems: append([]Value(nil), elems...)}
	for _, e := range elems {
		if e.isContainer() {
			a.nested++
		}
	}
	return a
}

// Len returns the number of elements.
func (a *Array) Len() int { return len(a.elems) }

// At returns the i-th element. It panics if i is out of range.
func (a *Array) At(i int) Value { return a.elems[i] }

// own gives a shared array storage of its own before a write.
func (a *Array) own() {
	if a.shared.Load() {
		a.elems = append([]Value(nil), a.elems...)
		a.shared.Store(false)
	}
}

// SetAt replaces the i-th element. It panics if i is out of range.
func (a *Array) SetAt(i int, v Value) {
	a.own()
	if a.elems[i].isContainer() {
		a.nested--
	}
	if v.isContainer() {
		a.nested++
	}
	a.elems[i] = v
}

// Append adds v at the end.
func (a *Array) Append(v Value) {
	a.own()
	if v.isContainer() {
		a.nested++
	}
	a.elems = append(a.elems, v)
}

// Elems returns the backing elements. Callers must not mutate the
// returned slice beyond the Array's own methods: it may be shared.
func (a *Array) Elems() []Value { return a.elems }

// Copy returns an array with a's elements that no write to either side
// reaches the other through: a new header over a's storage when no
// element is a container (both marked shared), and storage of its own
// holding Copies otherwise, as Set.Copy.
func (a *Array) Copy() *Array {
	if a.nested > 0 {
		out := &Array{elems: make([]Value, len(a.elems)), nested: a.nested}
		for i, e := range a.elems {
			out.elems[i] = e.Copy()
		}
		return out
	}
	if !a.shared.Load() {
		a.shared.Store(true)
	}
	out := &Array{elems: a.elems}
	out.shared.Store(true)
	return out
}

// Equal reports element-wise equality.
func (a *Array) Equal(b *Array) bool {
	if len(a.elems) != len(b.elems) {
		return false
	}
	for i := range a.elems {
		if !a.elems[i].Equal(b.elems[i]) {
			return false
		}
	}
	return true
}

func (a *Array) compare(b *Array) int {
	if c := cmpInt(int64(len(a.elems)), int64(len(b.elems))); c != 0 {
		return c
	}
	for i := range a.elems {
		if c := a.elems[i].Compare(b.elems[i]); c != 0 {
			return c
		}
	}
	return 0
}
