package core

import (
	"slices"
	"sync"
	"testing"
)

// ints returns the int elements of a set in iteration order.
func ints(s *Set) []int64 {
	var out []int64
	for _, e := range s.Elems() {
		out = append(out, e.Int())
	}
	return out
}

func arrayInts(a *Array) []int64 {
	var out []int64
	for _, e := range a.Elems() {
		out = append(out, e.Int())
	}
	return out
}

// A Copy shares its storage until either side writes; each write lands
// on its writer only, whichever side writes first.
func TestSetCopyOnWrite(t *testing.T) {
	for _, writer := range []string{"copy", "original"} {
		s := NewSet(Int(1), Int(2), Int(3))
		c := s.Copy()
		w, r := c, s
		if writer == "original" {
			w, r = s, c
		}
		w.Insert(Int(4))
		w.Remove(Int(1))
		if got := ints(r); !slices.Equal(got, []int64{1, 2, 3}) || !r.Contains(Int(1)) || r.Contains(Int(4)) {
			t.Errorf("writing the %s reached the other side: %v", writer, got)
		}
		if got := ints(w); !slices.Equal(got, []int64{2, 3, 4}) || w.Contains(Int(1)) || !w.Contains(Int(4)) {
			t.Errorf("the written %s holds %v, want [2 3 4]", writer, got)
		}
		// The side not yet written still writes only itself.
		r.Insert(Int(9))
		if w.Contains(Int(9)) || !r.Contains(Int(9)) {
			t.Errorf("a later write to the other side of a %s write leaked", writer)
		}
	}
}

// Compaction of a shared set rebuilds storage of its own.
func TestSetCompactionOfSharedSet(t *testing.T) {
	s := NewSet()
	for i := 0; i < 40; i++ {
		s.Insert(Int(int64(i)))
	}
	c := s.Copy()
	for i := 0; i < 30; i++ {
		c.Remove(Int(int64(i)))
	}
	if s.Len() != 40 || c.Len() != 10 || len(c.elems) >= 40 {
		t.Fatalf("after compacting the copy: original %d, copy %d in %d slots", s.Len(), c.Len(), len(c.elems))
	}
	for i := 0; i < 40; i++ {
		if !s.Contains(Int(int64(i))) || c.Contains(Int(int64(i))) != (i >= 30) {
			t.Fatalf("element %d: original %v, copy %v", i, s.Contains(Int(int64(i))), c.Contains(Int(int64(i))))
		}
	}
}

func TestArrayCopyOnWrite(t *testing.T) {
	for _, writer := range []string{"copy", "original"} {
		a := NewArray(Int(1), Int(2))
		c := a.Copy()
		w, r := c, a
		if writer == "original" {
			w, r = a, c
		}
		w.SetAt(0, Int(7))
		w.Append(Int(8))
		if got := arrayInts(r); !slices.Equal(got, []int64{1, 2}) {
			t.Errorf("writing the %s reached the other side: %v", writer, got)
		}
		if got := arrayInts(w); !slices.Equal(got, []int64{7, 2, 8}) {
			t.Errorf("the written %s holds %v, want [7 2 8]", writer, got)
		}
		r.Append(Int(9))
		if w.Len() != 3 || r.Len() != 3 || r.At(2).Int() != 9 {
			t.Errorf("a later append to the other side of a %s write: %v and %v", writer, arrayInts(w), arrayInts(r))
		}
	}
}

// A set that holds a set copies its own storage, so the inner set a
// copy holds is a header of its own: writing it through either side
// leaves the other alone. Arrays of arrays alike.
func TestNestedContainerCopy(t *testing.T) {
	inner := NewSet(Int(1))
	s := NewSet(SetOf(inner), Int(5))
	c := s.Copy()
	var cInner *Set
	for _, e := range c.Elems() {
		if e.Kind() == KSet {
			cInner = e.Set()
		}
	}
	if cInner == nil || cInner == inner {
		t.Fatal("the copy holds the original's inner set header")
	}
	cInner.Insert(Int(2))
	if inner.Len() != 1 {
		t.Errorf("a write to the copy's inner set reached the original's: %v", ints(inner))
	}
	inner.Insert(Int(3))
	if got := ints(cInner); !slices.Equal(got, []int64{1, 2}) {
		t.Errorf("a write to the original's inner set reached the copy's: %v", got)
	}

	a := NewArray(ArrayOf(NewArray(Int(1))))
	b := a.Copy()
	b.At(0).Array().SetAt(0, Int(2))
	a.At(0).Array().Append(Int(3))
	if got := arrayInts(a.At(0).Array()); !slices.Equal(got, []int64{1, 3}) {
		t.Errorf("original inner array %v, want [1 3]", got)
	}
	if got := arrayInts(b.At(0).Array()); !slices.Equal(got, []int64{2}) {
		t.Errorf("copied inner array %v, want [2]", got)
	}
	// Putting a container into a shared array's storage copies it
	// first; the copy then holds a container and copies deeply.
	d := NewArray(Int(1))
	e := d.Copy()
	e.SetAt(0, SetOf(NewSet(Int(4))))
	f := e.Copy()
	f.At(0).Set().Insert(Int(5))
	if d.At(0).Kind() != KInt || e.At(0).Set().Len() != 1 {
		t.Errorf("after SetAt of a set into a copy: original %v, copy %v", d.Elems(), e.Elems())
	}
}

// An Iter over a shared set whose body inserts keeps the fixpoint
// semantics: the first insert copies the storage, positions and
// tombstones included, and the loop visits what it appended. The
// tombstone sits before the loop's position, so a copy that dropped
// it would shift the loop past an element.
func TestSetIterOverSharedSetInserts(t *testing.T) {
	s := NewSet(Int(1), Int(2), Int(3), Int(4))
	s.Remove(Int(1))
	c := s.Copy()
	var visited []int64
	s.Iter(func(v Value) bool {
		visited = append(visited, v.Int())
		if v.Int() < 6 {
			s.Insert(Int(v.Int() + 3))
		}
		return true
	})
	if want := []int64{2, 3, 4, 5, 6, 7, 8}; !slices.Equal(visited, want) {
		t.Errorf("visited %v, want %v", visited, want)
	}
	if got := ints(c); !slices.Equal(got, []int64{2, 3, 4}) {
		t.Errorf("the copy holds %v after the loop, want [2 3 4]", got)
	}
	if s.Len() != 7 || !s.Contains(Int(8)) || s.Contains(Int(1)) {
		t.Errorf("after the loop the set holds %v", ints(s))
	}
}

// A copy of a part with a set shares the set's storage: copying it
// allocates the object, its vector and one set header, and copying
// the cached image again allocates the same.
func TestObjectCopyWithSetSharesStorage(t *testing.T) {
	part := partSchema()
	o := NewObject(part)
	for i := 1; i <= 3; i++ {
		o.MustGet("subparts").Set().Insert(Ref(OID(i)))
	}
	cached := o.Copy()
	if n := testing.AllocsPerRun(100, func() { _ = cached.Copy() }); n != 3 {
		t.Errorf("a copy of a part allocates %v times, want 3", n)
	}
	c := cached.Copy()
	if &c.MustGet("subparts").Set().elems[0] != &cached.MustGet("subparts").Set().elems[0] {
		t.Error("the copy's set does not share the cached set's storage")
	}
}

// TestContainersCopyConcurrently holds the race rule for containers:
// a cached object holding a set and an array is copied and read by
// many goroutines at once, each writing its own copy (run under
// -race).
func TestContainersCopyConcurrently(t *testing.T) {
	c := NewClass("bag").Field("items", SetOfType(TInt)).Field("log", ArrayOfType(TInt)).Register(NewSchema())
	o := NewObject(c)
	o.MustGet("items").Set().Insert(Int(1))
	o.MustGet("log").Array().Append(Int(1))
	for _, shared := range []*Object{o, o.Copy()} {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 100; i++ {
					if !shared.MustGet("items").Set().Contains(Int(1)) || shared.MustGet("log").Array().At(0).Int() != 1 {
						t.Error("a reader saw another goroutine's write")
					}
					p := shared.Copy()
					p.MustGet("items").Set().Insert(Int(int64(g + 2)))
					p.MustGet("log").Array().SetAt(0, Int(int64(g+2)))
					p.MustGet("log").Array().Append(Int(int64(g)))
					if p.MustGet("items").Set().Len() != 2 || p.MustGet("log").Array().At(0).Int() != int64(g+2) {
						t.Error("a copy lost its own write")
					}
				}
			}()
		}
		wg.Wait()
		if got := ints(shared.MustGet("items").Set()); !slices.Equal(got, []int64{1}) {
			t.Errorf("the copied object's set changed: %v", got)
		}
		if got := arrayInts(shared.MustGet("log").Array()); !slices.Equal(got, []int64{1}) {
			t.Errorf("the copied object's array changed: %v", got)
		}
	}
}

// FuzzContainerCopyOnWrite drives two set handles and two array
// handles with random Insert, Remove, Iter, Append, SetAt and Copy
// operations, against a model that deep-copies on Copy. A Copy
// replaces the other handle, so writes land on both sides of shared
// storage in every order.
func FuzzContainerCopyOnWrite(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 2, 0, 8, 5, 1, 1, 9, 3, 3, 1})
	f.Add([]byte{4, 1, 4, 2, 6, 0, 12, 9, 5, 0, 13, 7, 14, 0, 7, 4})
	f.Add([]byte{0, 1, 0, 2, 0, 3, 1, 1, 2, 0, 3, 2, 11, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		sets := [2]*Set{NewSet(), NewSet()}
		arrs := [2]*Array{NewArray(), NewArray()}
		var ms, ma [2][]int64
		for k := 0; k+1 < len(ops); k += 2 {
			op, h := ops[k]%8, int(ops[k]>>3)&1
			v := int64(ops[k+1] % 24)
			switch op {
			case 0:
				added := sets[h].Insert(Int(v))
				if added != !slices.Contains(ms[h], v) {
					t.Fatalf("op %d: Insert(%d) = %v on %v", k, v, added, ms[h])
				}
				if added {
					ms[h] = append(ms[h], v)
				}
			case 1:
				i := slices.Index(ms[h], v)
				if sets[h].Remove(Int(v)) != (i >= 0) {
					t.Fatalf("op %d: Remove(%d) disagrees with %v", k, v, ms[h])
				}
				if i >= 0 {
					ms[h] = slices.Delete(ms[h], i, i+1)
				}
			case 2:
				sets[1-h] = sets[h].Copy()
				ms[1-h] = slices.Clone(ms[h])
			case 3:
				// The body inserts v+24 when it visits v; the model
				// visits its own growing slice the same way.
				var got, want []int64
				sets[h].Iter(func(e Value) bool {
					got = append(got, e.Int())
					if e.Int() == v {
						sets[h].Insert(Int(v + 24))
					}
					return true
				})
				for i := 0; i < len(ms[h]); i++ {
					want = append(want, ms[h][i])
					if ms[h][i] == v && !slices.Contains(ms[h], v+24) {
						ms[h] = append(ms[h], v+24)
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("op %d: Iter visited %v, want %v", k, got, want)
				}
			case 4:
				arrs[h].Append(Int(v))
				ma[h] = append(ma[h], v)
			case 5:
				if n := len(ma[h]); n > 0 {
					arrs[h].SetAt(int(v)%n, Int(v))
					ma[h][int(v)%n] = v
				}
			case 6:
				arrs[1-h] = arrs[h].Copy()
				ma[1-h] = slices.Clone(ma[h])
			case 7:
				// Remove what Insert put in, in a batch, to drive
				// compaction of shared and unshared storage.
				for _, e := range slices.Clone(ms[h]) {
					if e%3 == v%3 {
						sets[h].Remove(Int(e))
						ms[h] = slices.DeleteFunc(ms[h], func(x int64) bool { return x == e })
					}
				}
			}
			for i := range sets {
				if got := ints(sets[i]); !slices.Equal(got, ms[i]) || sets[i].Len() != len(ms[i]) {
					t.Fatalf("after op %d: set %d holds %v, model %v", k, i, got, ms[i])
				}
				for _, e := range ms[i] {
					if !sets[i].Contains(Int(e)) {
						t.Fatalf("after op %d: set %d lost %d", k, i, e)
					}
				}
				if got := arrayInts(arrs[i]); !slices.Equal(got, ma[i]) {
					t.Fatalf("after op %d: array %d holds %v, model %v", k, i, got, ma[i])
				}
			}
		}
	})
}
