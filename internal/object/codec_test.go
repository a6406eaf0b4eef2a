package object

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"ode/internal/core"
)

func testSchema(t testing.TB) (*core.Schema, *core.Class, *core.Class) {
	t.Helper()
	s := core.NewSchema()
	part := core.NewClass("part").
		Field("name", core.TString).
		Field("cost", core.TFloat).
		Field("qty", core.TInt).
		Field("critical", core.TBool).
		Field("grade", core.TChar).
		Field("subparts", core.SetOfType(core.RefTo("part"))).
		Field("tags", core.ArrayOfType(core.TString)).
		Field("parent", core.RefTo("part")).
		Field("blessed", core.VRefTo("part")).
		Register(s)
	widget := core.NewClass("widget", part).
		Field("color", core.TString).
		Register(s)
	return s, part, widget
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s, part, _ := testSchema(t)
	o := core.NewObject(part)
	o.MustSet("name", core.Str("sprocket"))
	o.MustSet("cost", core.Float(2.75))
	o.MustSet("qty", core.Int(-12))
	o.MustSet("critical", core.Bool(true))
	o.MustSet("grade", core.Char('A'))
	o.MustGet("subparts").Set().Insert(core.Ref(42))
	o.MustGet("subparts").Set().Insert(core.Ref(43))
	o.MustGet("tags").Array().Append(core.Str("spare"))
	o.MustSet("parent", core.Ref(7))
	o.MustSet("blessed", core.VersionRef(core.VRef{OID: 7, Version: 2}))

	data := Encode(o)
	got, err := Decode(s, data)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualState(o) {
		t.Fatalf("round trip mismatch:\n got %s\nwant %s", got, o)
	}
}

func TestDecodeSubclassRecord(t *testing.T) {
	s, _, widget := testSchema(t)
	o := core.NewObject(widget)
	o.MustSet("name", core.Str("w"))
	o.MustSet("color", core.Str("red"))
	got, err := Decode(s, Encode(o))
	if err != nil {
		t.Fatal(err)
	}
	if got.Class() != widget || got.MustGet("color").Str() != "red" {
		t.Fatal("subclass record lost its dynamic class or fields")
	}
}

func TestDecodeUnknownClass(t *testing.T) {
	s, part, _ := testSchema(t)
	data := Encode(core.NewObject(part))
	empty := core.NewSchema()
	if _, err := Decode(empty, data); err == nil {
		t.Fatal("decoding against a schema missing the class must fail")
	}
	_ = s
}

func TestDecodeCorruptData(t *testing.T) {
	s, part, _ := testSchema(t)
	data := Encode(core.NewObject(part))
	for cut := 1; cut < len(data)-1; cut += 3 {
		if _, err := Decode(s, data[:cut]); err == nil {
			// Some prefixes decode to fewer slots, which is allowed
			// (schema growth); but truncation inside a value must fail.
			// We only require no panic here; strict failures are checked
			// below for a known-bad case.
			continue
		}
	}
	if _, err := Decode(s, []byte{}); err == nil {
		t.Error("empty record must fail")
	}
}

func TestCodecPropertyRandomObjects(t *testing.T) {
	s, part, widget := testSchema(t)
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 300; i++ {
		c := part
		if r.Intn(2) == 0 {
			c = widget
		}
		o := core.NewObject(c)
		o.MustSet("name", core.Str(randString(r)))
		o.MustSet("cost", core.Float(r.NormFloat64()*1e4))
		o.MustSet("qty", core.Int(r.Int63n(1<<32)-(1<<31)))
		o.MustSet("critical", core.Bool(r.Intn(2) == 0))
		o.MustSet("grade", core.Char(rune('A'+r.Intn(26))))
		set := o.MustGet("subparts").Set()
		for j := 0; j < r.Intn(6); j++ {
			set.Insert(core.Ref(core.OID(r.Uint64() >> 40)))
		}
		arr := o.MustGet("tags").Array()
		for j := 0; j < r.Intn(4); j++ {
			arr.Append(core.Str(randString(r)))
		}
		got, err := Decode(s, Encode(o))
		if err != nil {
			t.Fatal(err)
		}
		if !got.EqualState(o) {
			t.Fatalf("iteration %d: mismatch\n got %s\nwant %s", i, got, o)
		}
	}
}

func randString(r *rand.Rand) string {
	b := make([]byte, r.Intn(20))
	for i := range b {
		b[i] = byte(r.Intn(256))
	}
	return string(b)
}

func TestEncodeKeyOrderMatchesCompare(t *testing.T) {
	gen := func(r *rand.Rand) core.Value {
		switch r.Intn(7) {
		case 0:
			return core.Int(r.Int63n(2000) - 1000)
		case 1:
			return core.Float(r.NormFloat64() * 100)
		case 2:
			return core.Bool(r.Intn(2) == 0)
		case 3:
			return core.Char(rune(r.Intn(1 << 16)))
		case 4:
			return core.Str(randString(r))
		case 5:
			return core.Ref(core.OID(r.Uint64() >> 32))
		default:
			return core.VersionRef(core.VRef{OID: core.OID(r.Intn(100)), Version: uint32(r.Intn(10))})
		}
	}
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 3000; i++ {
		a, b := gen(r), gen(r)
		ka, err := EncodeKey(nil, a)
		if err != nil {
			t.Fatal(err)
		}
		kb, err := EncodeKey(nil, b)
		if err != nil {
			t.Fatal(err)
		}
		want := a.Compare(b)
		got := bytes.Compare(ka, kb)
		if sign(got) != sign(want) {
			t.Fatalf("order mismatch: Compare(%s, %s) = %d but key compare = %d", a, b, want, got)
		}
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

func TestEncodeKeyStringEscaping(t *testing.T) {
	// Composite-key safety: "a" followed by anything must sort before
	// "a\x00b" correctly even with suffixes appended.
	a, _ := EncodeKey(nil, core.Str("a"))
	ab, _ := EncodeKey(nil, core.Str("a\x00b"))
	if bytes.Compare(a, ab) >= 0 {
		t.Error(`"a" should sort before "a\x00b"`)
	}
	// With equal-prefix composite suffixes appended, ordering of the
	// string component must still dominate.
	aSuffixed := append(append([]byte{}, a...), 0xFF)
	if bytes.Compare(aSuffixed, ab) >= 0 {
		t.Error("terminator does not isolate string component")
	}
}

func TestEncodeKeyRejectsContainers(t *testing.T) {
	if _, err := EncodeKey(nil, core.SetOf(core.NewSet())); err == nil {
		t.Error("sets must not be indexable")
	}
	if _, err := EncodeKey(nil, core.ArrayOf(core.NewArray())); err == nil {
		t.Error("arrays must not be indexable")
	}
}

func TestEncodeKeyIntFloatAgree(t *testing.T) {
	f := func(n int32) bool {
		a, _ := EncodeKey(nil, core.Int(int64(n)))
		b, _ := EncodeKey(nil, core.Float(float64(n)))
		return bytes.Equal(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// FuzzDecodeObject feeds Decode arbitrary bytes. It must never panic,
// and whatever decodes must re-encode to a fixed point: the image a
// server sends is Encode of what it decoded, a client's tag is the tag
// of those bytes, and the server's cache memoizes the tag of Encode of
// its own decoded copy — the two agree only if decoding and
// re-encoding a sent image gives the image back.
func FuzzDecodeObject(f *testing.F) {
	s, part, widget := testSchema(f)
	full := core.NewObject(part)
	full.MustSet("name", core.Str("sprocket"))
	full.MustSet("cost", core.Float(2.75))
	full.MustSet("qty", core.Int(-12))
	full.MustSet("critical", core.Bool(true))
	full.MustSet("grade", core.Char('A'))
	full.MustGet("subparts").Set().Insert(core.Ref(42))
	full.MustGet("tags").Array().Append(core.Str("spare"))
	full.MustSet("blessed", core.VersionRef(core.VRef{OID: 7, Version: 2}))
	f.Add(Encode(full))
	f.Add(Encode(core.NewObject(widget)))
	f.Add(Encode(full)[:5]) // a short record: the class grew since
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		o, err := Decode(s, data)
		if err != nil {
			return
		}
		image := Encode(o)
		again, err := Decode(s, image)
		if err != nil {
			t.Fatalf("re-encoded image does not decode: %v", err)
		}
		if reimage := Encode(again); !bytes.Equal(reimage, image) {
			t.Fatalf("re-encoding is not a fixed point:\n%x\n%x", image, reimage)
		}
	})
}
