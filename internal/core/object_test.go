package core

import (
	"errors"
	"sync"
	"testing"
)

func TestNewObjectZeroSlots(t *testing.T) {
	_, _, student, _ := buildPersonSchema(t)
	o := NewObject(student)
	if o.MustGet("name").Str() != "" || o.MustGet("income").Int() != 0 {
		t.Error("fields not zero-initialized")
	}
	if o.Class() != student {
		t.Error("wrong dynamic class")
	}
}

func TestObjectGetSetTypeChecking(t *testing.T) {
	_, person, _, _ := buildPersonSchema(t)
	o := NewObject(person)
	if err := o.Set("income", Int(100)); err != nil {
		t.Fatal(err)
	}
	if err := o.Set("income", Str("rich")); err == nil {
		t.Error("expected type error assigning string to int field")
	}
	if _, err := o.Get("nope"); !errors.Is(err, ErrNoSuchMember) {
		t.Errorf("Get(nope) err = %v", err)
	}
	if err := o.Set("nope", Int(1)); !errors.Is(err, ErrNoSuchMember) {
		t.Errorf("Set(nope) err = %v", err)
	}
}

func TestObjectSetNumericWidening(t *testing.T) {
	s := NewSchema()
	c := NewClass("pt").Field("x", TFloat).Register(s)
	o := NewObject(c)
	if err := o.Set("x", Int(3)); err != nil {
		t.Fatal(err)
	}
	if got := o.MustGet("x"); got.Kind() != KFloat || got.Float() != 3 {
		t.Errorf("widening produced %s", got)
	}
}

func TestObjectCopyIsDeep(t *testing.T) {
	s := NewSchema()
	c := NewClass("bag").Field("items", SetOfType(TInt)).Register(s)
	o := NewObject(c)
	o.MustGet("items").Set().Insert(Int(1))
	p := o.Copy()
	o.MustGet("items").Set().Insert(Int(2))
	if p.MustGet("items").Set().Len() != 1 {
		t.Error("Copy shares the set container")
	}
	if o.EqualState(p) {
		t.Error("EqualState should detect the diverged set")
	}
}

func TestObjectCopyOnWrite(t *testing.T) {
	_, person, _, _ := buildPersonSchema(t)
	o := NewObject(person)
	o.MustSet("name", Str("ann"))
	o.MustSet("income", Int(10))

	// A write to the copy does not reach the original.
	p := o.Copy()
	p.MustSet("income", Int(20))
	if o.MustGet("income").Int() != 10 || p.MustGet("income").Int() != 20 {
		t.Errorf("after writing the copy: original %s, copy %s", o, p)
	}

	// A write to the original does not reach the copy.
	q := o.Copy()
	o.SetSlot(0, Str("bob"))
	if q.MustGet("name").Str() != "ann" || o.MustGet("name").Str() != "bob" {
		t.Errorf("after writing the original: original %s, copy %s", o, q)
	}

	// Copies of a copy: three objects over one vector, each write lands
	// on its writer only.
	r := q.Copy()
	s := r.Copy()
	r.MustSet("age", Int(1))
	s.MustSet("age", Int(2))
	if q.MustGet("age").Int() != 0 || r.MustGet("age").Int() != 1 || s.MustGet("age").Int() != 2 {
		t.Errorf("copies of a copy: %s, %s, %s", q, r, s)
	}
	if !o.EqualState(o.Copy()) || o.EqualState(q) {
		t.Error("EqualState disagrees with the copies' values")
	}
}

// cacheStore is the object cache's protocol in miniature: it keeps a
// Copy of what it is given and hands out a Copy of what it keeps.
type cacheStore struct {
	NullStore
	objs map[OID]*Object
}

func (c *cacheStore) Deref(oid OID) (*Object, error) { return c.objs[oid].Copy(), nil }

func (c *cacheStore) PNew(_ *Class, init *Object) (OID, error) {
	oid := OID(len(c.objs) + 1)
	c.objs[oid] = init.Copy()
	return oid, nil
}

func partSchema() *Class {
	return NewClass("part").Field("name", TString).Field("subparts", SetOfType(RefTo("part"))).Register(NewSchema())
}

func TestObjectCopyWithSetIsDeep(t *testing.T) {
	part := partSchema()
	st := &cacheStore{objs: map[OID]*Object{}}
	leaf, _ := st.PNew(part, NewObject(part))
	root, _ := st.PNew(part, NewObject(part))
	o, _ := st.Deref(root)
	o.MustGet("subparts").Set().Insert(Ref(leaf))
	if n := st.objs[root].MustGet("subparts").Set().Len(); n != 0 {
		t.Errorf("an insert into a dereffed part reached the cached image: %d subparts", n)
	}
	again, _ := st.Deref(root)
	if again.MustGet("subparts").Set().Len() != 0 {
		t.Error("a re-deref sees the uncommitted insert")
	}
}

// TestObjectInPlaceInsertThenPNew is the bulk loader's pattern: fill a
// fresh object's set in place, then make it persistent. The stored
// image holds the elements, and later inserts into the fresh object do
// not reach it.
func TestObjectInPlaceInsertThenPNew(t *testing.T) {
	part := partSchema()
	st := &cacheStore{objs: map[OID]*Object{}}
	o := NewObject(part)
	o.MustSet("name", Str("root"))
	set := o.MustGet("subparts").Set()
	set.Insert(Ref(7))
	set.Insert(Ref(8))
	oid, _ := st.PNew(part, o)
	set.Insert(Ref(9))
	got, _ := st.Deref(oid)
	if n := got.MustGet("subparts").Set().Len(); n != 2 || got.MustGet("name").Str() != "root" {
		t.Errorf("stored part = %s, want root with 2 subparts", got)
	}
}

// TestObjectCopiesConcurrently holds the race rule: one object, shared
// or not yet, may be copied by many goroutines at once, each writing
// its own copy (run under -race).
func TestObjectCopiesConcurrently(t *testing.T) {
	_, person, _, _ := buildPersonSchema(t)
	for _, o := range []*Object{NewObject(person), NewObject(person).Copy()} {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 100; i++ {
					c := o.Copy()
					c.MustSet("age", Int(int64(g)))
					if c.MustGet("age").Int() != int64(g) {
						t.Error("a copy lost its own write")
					}
				}
			}()
		}
		wg.Wait()
		if o.MustGet("age").Int() != 0 {
			t.Errorf("the copied object changed: %s", o)
		}
	}
}

func TestEqualStateRequiresSameClass(t *testing.T) {
	_, person, student, _ := buildPersonSchema(t)
	if NewObject(person).EqualState(NewObject(student)) {
		t.Error("objects of different classes are never state-equal")
	}
}

func TestCallUnknownMethod(t *testing.T) {
	_, person, _, _ := buildPersonSchema(t)
	_, err := NewObject(person).Call(NullStore{}, "fly")
	if !errors.Is(err, ErrNoSuchMember) {
		t.Errorf("err = %v", err)
	}
}

func TestCallArgumentConversionAndArity(t *testing.T) {
	s := NewSchema()
	c := NewClass("acct").
		Field("balance", TFloat).
		Method("deposit", []Param{{Name: "amt", Type: TFloat}}, TFloat,
			func(_ Store, self *Object, args []Value) (Value, error) {
				nb := self.MustGet("balance").Float() + args[0].Float()
				self.MustSet("balance", Float(nb))
				return Float(nb), nil
			}).
		Register(s)
	o := NewObject(c)
	// Int argument must widen to float.
	got, err := o.Call(NullStore{}, "deposit", Int(10))
	if err != nil || got.Float() != 10 {
		t.Fatalf("deposit = %v, %v", got, err)
	}
	if _, err := o.Call(NullStore{}, "deposit"); err == nil {
		t.Error("expected arity error")
	}
	if _, err := o.Call(NullStore{}, "deposit", Str("x")); err == nil {
		t.Error("expected argument type error")
	}
}

func TestObjectString(t *testing.T) {
	_, person, _, _ := buildPersonSchema(t)
	o := NewObject(person)
	o.MustSet("name", Str("ann"))
	want := `person{name: "ann", income: 0, age: 0}`
	if got := o.String(); got != want {
		t.Errorf("String = %s, want %s", got, want)
	}
}

func TestTypeConvertAndAccepts(t *testing.T) {
	if !TFloat.Accepts(Int(1)) {
		t.Error("float should accept int")
	}
	if TInt.Accepts(Float(1)) {
		t.Error("int must not accept float (narrowing)")
	}
	if !RefTo("person").Accepts(Null) {
		t.Error("reference types accept null")
	}
	if v, err := TAnyRef.Convert(Null); err != nil || v.OID() != NilOID {
		t.Errorf("Convert(null->ref) = %v, %v", v, err)
	}
	if v, err := SetOfType(TInt).Convert(Null); err != nil || v.Set().Len() != 0 {
		t.Errorf("Convert(null->set) = %v, %v", v, err)
	}
	if _, err := TString.Convert(Int(1)); err == nil {
		t.Error("expected conversion failure int->string")
	}
	// A pinned version reference can stand in for a generic reference.
	vr := VersionRef(VRef{OID: 3, Version: 1})
	if v, err := TAnyRef.Convert(vr); err != nil || v.Kind() != KVRef {
		t.Errorf("vref where ref expected: %v, %v", v, err)
	}
}

func TestTypeStringAndZero(t *testing.T) {
	cases := []struct {
		typ  *Type
		want string
	}{
		{TInt, "int"},
		{RefTo("person"), "person *"},
		{VRefTo("part"), "part vref"},
		{SetOfType(RefTo("part")), "set<part *>"},
		{ArrayOfType(TString), "array<string>"},
	}
	for _, c := range cases {
		if got := c.typ.String(); got != c.want {
			t.Errorf("Type.String = %q, want %q", got, c.want)
		}
	}
	if !TString.Zero().Equal(Str("")) {
		t.Error("string zero should be empty string")
	}
	if TAnyRef.Zero().OID() != NilOID {
		t.Error("ref zero should be nil")
	}
}

func TestTypeEqual(t *testing.T) {
	if !SetOfType(TInt).Equal(SetOfType(TInt)) {
		t.Error("identical set types should be equal")
	}
	if SetOfType(TInt).Equal(SetOfType(TFloat)) {
		t.Error("set<int> != set<float>")
	}
	if RefTo("a").Equal(RefTo("b")) {
		t.Error("refs to different classes differ")
	}
	if TInt.Equal(nil) {
		t.Error("non-nil != nil")
	}
}
