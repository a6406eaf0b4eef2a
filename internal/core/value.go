// Package core implements the Ode data model: dynamically typed values,
// classes with multiple inheritance, objects, and the declarations
// (fields, methods, constraints, triggers) that O++ attaches to classes.
//
// The package corresponds to the "data structuring constructs" of the
// paper (section 2). It is deliberately free of any storage concern:
// persistence, clusters, versions and transactions are layered on top by
// the other internal packages.
package core

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// OID is the identifier of a persistent object: "each [object is]
// identified by a unique identifier, called the object identifier (id)
// that is its identity" (paper, section 2). OID 0 is the nil reference.
type OID uint64

// NilOID is the null persistent reference.
const NilOID OID = 0

// ReservedOIDBit is never set in an object id: the lock table keys its
// cluster words with it (internal/txn), so the object manager refuses
// to allocate or note an id that has it.
const ReservedOIDBit OID = 1 << 63

// VRef is a reference to a specific version of a persistent object.
// A plain OID is a *generic* reference (it dereferences to the current
// version); a VRef pins one version (paper, section 4).
type VRef struct {
	OID     OID
	Version uint32
}

// Kind enumerates the runtime types of O++ values.
type Kind uint8

// The value kinds. KNull is the zero Kind so that the zero Value is null.
const (
	KNull Kind = iota
	KInt
	KFloat
	KBool
	KChar
	KString
	KOID
	KVRef
	KSet
	KArray

	numKinds
)

var kindNames = [...]string{
	KNull:   "null",
	KInt:    "int",
	KFloat:  "float",
	KBool:   "bool",
	KChar:   "char",
	KString: "string",
	KOID:    "oid",
	KVRef:   "vref",
	KSet:    "set",
	KArray:  "array",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Value is a dynamically typed O++ value. The zero Value is null.
// Values are immutable except for the set and array kinds, which hold
// references to mutable containers.
type Value struct {
	kind Kind
	i    int64 // int, bool (0/1), char (rune), OID, VRef.OID
	f    float64
	s    string
	set  *Set
	arr  *Array
	ver  uint32 // VRef.Version
}

// Null is the null value.
var Null = Value{}

// Int returns an int value.
func Int(v int64) Value { return Value{kind: KInt, i: v} }

// Float returns a float value.
func Float(v float64) Value { return Value{kind: KFloat, f: v} }

// Bool returns a bool value.
func Bool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{kind: KBool, i: i}
}

// Char returns a char value.
func Char(r rune) Value { return Value{kind: KChar, i: int64(r)} }

// Str returns a string value.
func Str(s string) Value { return Value{kind: KString, s: s} }

// Ref returns a generic reference to a persistent object.
func Ref(oid OID) Value { return Value{kind: KOID, i: int64(oid)} }

// VersionRef returns a specific (pinned) version reference.
func VersionRef(r VRef) Value {
	return Value{kind: KVRef, i: int64(r.OID), ver: r.Version}
}

// SetOf returns a set value holding the given container. A nil container
// denotes an empty set.
func SetOf(s *Set) Value {
	if s == nil {
		s = NewSet()
	}
	return Value{kind: KSet, set: s}
}

// ArrayOf returns an array value holding the given container. A nil
// container denotes an empty array.
func ArrayOf(a *Array) Value {
	if a == nil {
		a = NewArray()
	}
	return Value{kind: KArray, arr: a}
}

// Kind reports the runtime kind of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is the null value.
func (v Value) IsNull() bool { return v.kind == KNull }

// Int returns the int payload. It panics if v is not an int.
func (v Value) Int() int64 {
	v.mustBe(KInt)
	return v.i
}

// Float returns the float payload. It panics if v is not a float.
func (v Value) Float() float64 {
	v.mustBe(KFloat)
	return v.f
}

// Bool returns the bool payload. It panics if v is not a bool.
func (v Value) Bool() bool {
	v.mustBe(KBool)
	return v.i != 0
}

// Char returns the char payload. It panics if v is not a char.
func (v Value) Char() rune {
	v.mustBe(KChar)
	return rune(v.i)
}

// Str returns the string payload. It panics if v is not a string.
func (v Value) Str() string {
	v.mustBe(KString)
	return v.s
}

// OID returns the object id payload. It panics unless v is a generic
// reference.
func (v Value) OID() OID {
	v.mustBe(KOID)
	return OID(v.i)
}

// VRef returns the version-reference payload. It panics unless v is a
// version reference.
func (v Value) VRef() VRef {
	v.mustBe(KVRef)
	return VRef{OID: OID(v.i), Version: v.ver}
}

// AnyOID returns the object id behind either a generic or a version
// reference, and true; for other kinds it returns (NilOID, false).
func (v Value) AnyOID() (OID, bool) {
	switch v.kind {
	case KOID, KVRef:
		return OID(v.i), true
	}
	return NilOID, false
}

// Set returns the set container. It panics if v is not a set.
func (v Value) Set() *Set {
	v.mustBe(KSet)
	return v.set
}

// Array returns the array container. It panics if v is not an array.
func (v Value) Array() *Array {
	v.mustBe(KArray)
	return v.arr
}

func (v Value) mustBe(k Kind) {
	if v.kind != k {
		panic(fmt.Sprintf("core: value is %s, not %s", v.kind, k))
	}
}

// Numeric reports whether v is an int or a float, and its value as a
// float64 if so.
func (v Value) Numeric() (float64, bool) {
	switch v.kind {
	case KInt:
		return float64(v.i), true
	case KFloat:
		return v.f, true
	}
	return 0, false
}

// Truthy interprets v as a condition: bool values are themselves, numbers
// are compared against zero (as in C++), null and nil references are
// false, and everything else is true.
func (v Value) Truthy() bool {
	switch v.kind {
	case KNull:
		return false
	case KBool, KInt, KChar:
		return v.i != 0
	case KFloat:
		return v.f != 0
	case KOID:
		return OID(v.i) != NilOID
	case KVRef:
		return OID(v.i) != NilOID
	case KSet:
		return v.set.Len() > 0
	case KArray:
		return v.arr.Len() > 0
	}
	return true
}

// Equal reports deep value equality. Ints and floats compare numerically
// across kinds (1 == 1.0), matching O++ arithmetic conversions.
func (v Value) Equal(w Value) bool {
	if v.kind != w.kind {
		vn, vok := v.Numeric()
		wn, wok := w.Numeric()
		return vok && wok && vn == wn
	}
	switch v.kind {
	case KNull:
		return true
	case KInt, KBool, KChar, KOID:
		return v.i == w.i
	case KVRef:
		return v.i == w.i && v.ver == w.ver
	case KFloat:
		return v.f == w.f
	case KString:
		return v.s == w.s
	case KSet:
		return v.set.Equal(w.set)
	case KArray:
		return v.arr.Equal(w.arr)
	}
	return false
}

// Compare orders two values. The order is total: first by a canonical
// kind rank (with ints and floats sharing the numeric rank), then by
// payload. It is the order used by the `by` clause and by B+tree keys.
// Comparing sets or arrays compares their lengths first and then their
// elements (arrays) or sorted elements (sets).
func (v Value) Compare(w Value) int {
	vr, wr := v.rank(), w.rank()
	if vr != wr {
		return cmpInt(int64(vr), int64(wr))
	}
	switch v.kind {
	case KNull:
		return 0
	case KBool:
		return cmpInt(v.i, w.i)
	case KChar:
		if w.kind == KChar {
			return cmpInt(v.i, w.i)
		}
	case KOID:
		return cmpUint(uint64(v.i), uint64(w.i))
	case KVRef:
		if c := cmpUint(uint64(v.i), uint64(w.i)); c != 0 {
			return c
		}
		return cmpUint(uint64(v.ver), uint64(w.ver))
	case KString:
		return strings.Compare(v.s, w.s)
	case KSet:
		return v.set.compare(w.set)
	case KArray:
		return v.arr.compare(w.arr)
	}
	// Numeric rank: int/float (and char vs numeric mix handled above).
	vn, _ := v.Numeric()
	wn, _ := w.Numeric()
	switch {
	case vn < wn:
		return -1
	case vn > wn:
		return 1
	}
	return 0
}

// rank maps kinds onto comparison ranks; int and float share a rank so
// that mixed numeric comparisons behave arithmetically.
func (v Value) rank() int {
	switch v.kind {
	case KNull:
		return 0
	case KBool:
		return 1
	case KInt, KFloat:
		return 2
	case KChar:
		return 3
	case KString:
		return 4
	case KOID:
		return 5
	case KVRef:
		return 6
	case KArray:
		return 7
	case KSet:
		return 8
	}
	return 9
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpUint(a, b uint64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// Hash returns a 64-bit FNV-1a hash of the value, consistent with Equal:
// values that are Equal hash identically (numerically equal ints and
// floats hash via the float image).
func (v Value) Hash() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= prime
	}
	mix64 := func(x uint64) {
		for i := 0; i < 8; i++ {
			mix(byte(x >> (8 * i)))
		}
	}
	switch v.kind {
	case KNull:
		mix(0)
	case KBool:
		mix(1)
		mix64(uint64(v.i))
	case KInt:
		mix(2)
		mix64(math.Float64bits(float64(v.i)))
	case KFloat:
		mix(2)
		mix64(math.Float64bits(v.f))
	case KChar:
		mix(3)
		mix64(uint64(v.i))
	case KString:
		mix(4)
		for i := 0; i < len(v.s); i++ {
			mix(v.s[i])
		}
	case KOID:
		mix(5)
		mix64(uint64(v.i))
	case KVRef:
		mix(6)
		mix64(uint64(v.i))
		mix64(uint64(v.ver))
	case KSet:
		mix(7)
		// Order-independent combination so Equal sets hash equally.
		var acc uint64
		for _, e := range v.set.Elems() {
			acc += e.Hash()
		}
		mix64(acc)
	case KArray:
		mix(8)
		for _, e := range v.arr.Elems() {
			mix64(e.Hash())
		}
	}
	return h
}

// isContainer reports whether v is a set or an array, the kinds that
// hold a mutable container.
func (v Value) isContainer() bool { return v.kind == KSet || v.kind == KArray }

// Copy returns a value no write through v reaches: a set or an array
// gets a Copy of its container (a new header, over shared storage when
// the container holds no other container), and other kinds are value
// types already. Object.Copy calls it only for an object that holds a
// set or an array; other objects share their slots.
func (v Value) Copy() Value {
	switch v.kind {
	case KSet:
		return SetOf(v.set.Copy())
	case KArray:
		return ArrayOf(v.arr.Copy())
	}
	return v
}

// String renders the value in O++ literal syntax.
func (v Value) String() string {
	switch v.kind {
	case KNull:
		return "null"
	case KInt:
		return strconv.FormatInt(v.i, 10)
	case KFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	case KChar:
		return strconv.QuoteRune(rune(v.i))
	case KString:
		return strconv.Quote(v.s)
	case KOID:
		if OID(v.i) == NilOID {
			return "nil"
		}
		return fmt.Sprintf("@%d", uint64(v.i))
	case KVRef:
		return fmt.Sprintf("@%d:v%d", uint64(v.i), v.ver)
	case KSet:
		elems := v.set.Elems()
		sort.Slice(elems, func(i, j int) bool { return elems[i].Compare(elems[j]) < 0 })
		parts := make([]string, len(elems))
		for i, e := range elems {
			parts[i] = e.String()
		}
		return "{" + strings.Join(parts, ", ") + "}"
	case KArray:
		parts := make([]string, v.arr.Len())
		for i, e := range v.arr.Elems() {
			parts[i] = e.String()
		}
		return "[" + strings.Join(parts, ", ") + "]"
	}
	return "?"
}
