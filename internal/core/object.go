package core

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// Object is an in-memory instance of a class: the slot vector plus the
// dynamic class descriptor. Both volatile objects and the cached images
// of persistent objects use this representation; persistence is a
// property of where the object lives, not of its type (the central claim
// of the paper's persistence model).
//
// Objects are copy-on-write: Copy of an object that holds no set or
// array shares its slot vector, and Set/SetSlot — the only writers of
// the vector — first give a shared object a private one. So a shared
// vector never holds a set or an array, and no write through one
// object can reach another. An object that holds one gets a vector of
// its own on Copy, whose sets and arrays are Copies in turn: new
// headers over the same storage, copy-on-write one level down (Set,
// Array). The race rule: any number of goroutines may read and Copy
// one object, and its sets and arrays, at once; Set/SetSlot, and the
// writers and Iter of its containers, need the object to themselves.
// The first Copy of an unshared object or container marks it with an
// atomic store; an object handed to other goroutines (a cache entry)
// is stored as the result of a Copy, whose vector or containers are
// marked already, so copying it writes nothing.
type Object struct {
	class  *Class
	slots  []Value
	shared atomic.Bool // slots may be another object's too: Set copies first
}

// NewObject allocates an instance of class c with zero-valued slots.
// It panics if c is not sealed (unsealed classes have no layout).
func NewObject(c *Class) *Object {
	if !c.sealed {
		panic(fmt.Sprintf("core: NewObject on unsealed class %s", c.Name))
	}
	o := &Object{class: c, slots: make([]Value, c.NumSlots())}
	for i, f := range c.layout {
		o.slots[i] = f.Type.Zero()
	}
	return o
}

// Class returns the object's dynamic class.
func (o *Object) Class() *Class { return o.class }

// NumSlots returns the slot count.
func (o *Object) NumSlots() int { return len(o.slots) }

// Slot returns the value in slot i.
func (o *Object) Slot(i int) Value { return o.slots[i] }

// SetSlot stores v into slot i without type checking; callers that take
// values from outside the schema should use Set instead. A shared
// object gets a private slot vector first.
func (o *Object) SetSlot(i int, v Value) {
	o.own()
	o.slots[i] = v
}

// own gives a shared object a slot vector of its own. The copy is
// shallow: a shared vector holds no set or array.
func (o *Object) own() {
	if o.shared.Load() {
		o.slots = append([]Value(nil), o.slots...)
		o.shared.Store(false)
	}
}

// Get returns the value of the named field.
func (o *Object) Get(name string) (Value, error) {
	i := o.class.SlotIndex(name)
	if i < 0 {
		return Null, fmt.Errorf("%w: field %s.%s", ErrNoSuchMember, o.class.Name, name)
	}
	return o.slots[i], nil
}

// MustGet is Get for fields known to exist; it panics otherwise.
func (o *Object) MustGet(name string) Value {
	v, err := o.Get(name)
	if err != nil {
		panic(err)
	}
	return v
}

// Set type-checks v against the field's declared type (applying numeric
// widening) and stores it.
func (o *Object) Set(name string, v Value) error {
	i := o.class.SlotIndex(name)
	if i < 0 {
		return fmt.Errorf("%w: field %s.%s", ErrNoSuchMember, o.class.Name, name)
	}
	cv, err := o.class.layout[i].Type.Convert(v)
	if err != nil {
		return fmt.Errorf("field %s.%s: %w", o.class.Name, name, err)
	}
	o.own()
	o.slots[i] = cv
	return nil
}

// MustSet is Set for assignments known to be well-typed; it panics
// otherwise.
func (o *Object) MustSet(name string, v Value) {
	if err := o.Set(name, v); err != nil {
		panic(err)
	}
}

// Copy returns an object with o's class and state that no write to
// either side reaches the other through. If no slot holds a set or an
// array, the copy shares o's slot vector and both are marked shared
// (one allocation, no slot copied). Otherwise the copy has a vector of
// its own, since sets and arrays change in place (Set.Insert,
// Array.SetAt) through the header the vector holds; each container in
// it is a Copy, a new header over the same storage.
func (o *Object) Copy() *Object {
	if !o.shared.Load() {
		for _, v := range o.slots {
			if v.kind == KSet || v.kind == KArray {
				out := &Object{class: o.class, slots: make([]Value, len(o.slots))}
				for i, v := range o.slots {
					out.slots[i] = v.Copy()
				}
				return out
			}
		}
		o.shared.Store(true)
	}
	out := &Object{class: o.class, slots: o.slots}
	out.shared.Store(true)
	return out
}

// EqualState reports whether two objects have the same class and equal
// slot values.
func (o *Object) EqualState(p *Object) bool {
	if o.class != p.class || len(o.slots) != len(p.slots) {
		return false
	}
	for i := range o.slots {
		if !o.slots[i].Equal(p.slots[i]) {
			return false
		}
	}
	return true
}

// Call dispatches the named member function on o (virtual dispatch by
// dynamic class).
func (o *Object) Call(st Store, name string, args ...Value) (Value, error) {
	m, ok := o.class.MethodNamed(name)
	if !ok {
		return Null, fmt.Errorf("%w: method %s::%s", ErrNoSuchMember, o.class.Name, name)
	}
	if len(m.Params) != len(args) {
		return Null, fmt.Errorf("core: method %s::%s expects %d arguments, got %d",
			o.class.Name, name, len(m.Params), len(args))
	}
	conv := make([]Value, len(args))
	for i, a := range args {
		cv, err := m.Params[i].Type.Convert(a)
		if err != nil {
			return Null, fmt.Errorf("argument %q of %s::%s: %w", m.Params[i].Name, o.class.Name, name, err)
		}
		conv[i] = cv
	}
	return m.Fn(st, o, conv)
}

// CheckConstraints evaluates all (own and inherited) constraints and
// returns the first violated one, if any.
func (o *Object) CheckConstraints(st Store) (*Constraint, error) {
	for i := range o.class.allConstraints {
		k := &o.class.allConstraints[i]
		ok, err := k.Check(st, o)
		if err != nil {
			return k, fmt.Errorf("constraint %s on %s: %w", k.Name, o.class.Name, err)
		}
		if !ok {
			return k, nil
		}
	}
	return nil, nil
}

// String renders the object with its class and field values.
func (o *Object) String() string {
	var b strings.Builder
	b.WriteString(o.class.Name)
	b.WriteByte('{')
	for i, f := range o.class.layout {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s: %s", f.Name, o.slots[i])
	}
	b.WriteByte('}')
	return b.String()
}
