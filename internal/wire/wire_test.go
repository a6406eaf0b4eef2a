package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"ode/internal/core"
	"ode/internal/object"
	"ode/internal/txn"
)

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{ReqID: 1, Type: CmdPing},
		{ReqID: 7, Type: CmdBegin, Body: AppendUvarint(nil, 250)},
		{ReqID: 1 << 40, Type: RespBatch, Body: bytes.Repeat([]byte{0xab}, 4096)},
		{ReqID: 0, Type: RespErr, Body: ErrBody(CodeOverloaded, "full")},
	}
	var buf bytes.Buffer
	for i := range frames {
		if _, err := WriteFrame(&buf, &frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	stream := buf.Bytes()
	r := bytes.NewReader(stream)
	var consumed int
	for i := range frames {
		f, n, err := ReadFrame(r, 0)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		consumed += n
		if f.ReqID != frames[i].ReqID || f.Type != frames[i].Type || !bytes.Equal(f.Body, frames[i].Body) {
			t.Fatalf("frame %d round-trip mismatch: %+v", i, f)
		}
		// DecodeFrame must agree with ReadFrame byte for byte.
		df, dn, err := DecodeFrame(stream[consumed-n:], 0)
		if err != nil || dn != n || df.ReqID != f.ReqID || df.Type != f.Type || !bytes.Equal(df.Body, f.Body) {
			t.Fatalf("frame %d: DecodeFrame disagrees with ReadFrame (err=%v)", i, err)
		}
	}
	if _, _, err := ReadFrame(r, 0); err != io.EOF {
		t.Fatalf("trailing read = %v, want io.EOF", err)
	}
}

func TestFrameCorruption(t *testing.T) {
	good := AppendFrame(nil, &Frame{ReqID: 3, Type: CmdDeref, Body: AppendUvarint(nil, 42)})

	// Flip one payload byte: CRC must catch it.
	bad := append([]byte(nil), good...)
	bad[6] ^= 0xff
	if _, _, err := DecodeFrame(bad, 0); !errors.Is(err, ErrCRC) {
		t.Fatalf("payload corruption: err = %v, want ErrCRC", err)
	}
	if _, _, err := ReadFrame(bytes.NewReader(bad), 0); !errors.Is(err, ErrCRC) {
		t.Fatalf("ReadFrame corruption: err = %v, want ErrCRC", err)
	}

	// Truncations at every prefix must be reported as incomplete, never
	// as a parse success or a panic.
	for n := 0; n < len(good); n++ {
		if _, _, err := DecodeFrame(good[:n], 0); err == nil {
			t.Fatalf("truncated frame of %d bytes decoded successfully", n)
		}
	}

	// Oversized length prefix.
	huge := binary.BigEndian.AppendUint32(nil, uint32(DefaultMaxFrame+1))
	huge = append(huge, good[4:]...)
	if _, _, err := DecodeFrame(huge, 0); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame: err = %v, want ErrFrameTooLarge", err)
	}

	// Undersized payload (below reqID+type).
	tiny := binary.BigEndian.AppendUint32(nil, 3)
	tiny = append(tiny, 1, 2, 3, 0, 0, 0, 0)
	if _, _, err := DecodeFrame(tiny, 0); !errors.Is(err, ErrMalformed) {
		t.Fatalf("undersized frame: err = %v, want ErrMalformed", err)
	}
}

func TestHello(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHello(&buf, Version, 0); err != nil {
		t.Fatal(err)
	}
	v, fl, err := ReadHello(&buf)
	if err != nil || v != Version || fl != 0 {
		t.Fatalf("hello round-trip: v=%d flags=%d err=%v", v, fl, err)
	}
	if _, _, err := ReadHello(bytes.NewReader([]byte("HTTP/1.1 400\r\n"))); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: err = %v", err)
	}
}

func TestErrorCodeRoundTrip(t *testing.T) {
	cases := []error{
		txn.ErrOverloaded,
		txn.ErrDBClosed,
		txn.ErrTxTimeout,
		txn.ErrCanceled,
		txn.ErrDeadlock,
		txn.ErrConstraintViolation,
		txn.ErrTxDone,
		object.ErrNoObject,
		object.ErrNoVersion,
		object.ErrNoCluster,
		txn.ErrUnknownOutcome,
		ErrProto,
		ErrSchema,
	}
	for _, sentinel := range cases {
		code := Code(sentinel)
		if code == CodeUnknown {
			t.Errorf("%v maps to CodeUnknown", sentinel)
			continue
		}
		back := CodeErr(code, sentinel.Error())
		if !errors.Is(back, sentinel) {
			t.Errorf("CodeErr(Code(%v)) = %v, does not wrap the sentinel", sentinel, back)
		}
	}
	// Retryability must survive the wire: a remote deadlock or timeout
	// is retryable, a remote overload or cancellation is not.
	if !txn.IsRetryable(CodeErr(CodeDeadlock, "x")) || !txn.IsRetryable(CodeErr(CodeTxTimeout, "x")) {
		t.Error("remote deadlock/timeout not retryable")
	}
	if txn.IsRetryable(CodeErr(CodeOverloaded, "x")) || txn.IsRetryable(CodeErr(CodeCanceled, "x")) {
		t.Error("remote overload/cancel wrongly retryable")
	}
	if err := DecodeErrBody(ErrBody(CodeNoObject, "@9")); !errors.Is(err, object.ErrNoObject) {
		t.Errorf("DecodeErrBody = %v", err)
	}
}

func TestForallReqRoundTrip(t *testing.T) {
	val := object.EncodeValue(core.Int(100))
	reqs := []ForallReq{
		{Class: "stockitem", Flags: ForallSubtypes, Field: "qty", Op: 5, Value: val},
		{Class: "person", Flags: ForallCount | ForallNoIndex, Field: ""},
	}
	for _, w := range reqs {
		got, err := DecodeForallReq(w.Append(nil))
		if err != nil {
			t.Fatal(err)
		}
		if got.Class != w.Class || got.Flags != w.Flags || got.Field != w.Field ||
			got.Op != w.Op || !bytes.Equal(got.Value, w.Value) {
			t.Fatalf("forall req round-trip: got %+v want %+v", got, w)
		}
	}
	if _, err := DecodeForallReq([]byte{0x05, 'a'}); err == nil {
		t.Fatal("truncated forall req decoded successfully")
	}
}

func TestDecSticky(t *testing.T) {
	d := NewDec([]byte{0x02, 'h', 'i'})
	if s := d.String(); s != "hi" || d.Err() != nil {
		t.Fatalf("String = %q err=%v", s, d.Err())
	}
	// Exhausted: every further read fails and sticks.
	_ = d.Uvarint()
	if d.Err() == nil {
		t.Fatal("read past end did not set the error")
	}
	if b := d.Bytes(); b != nil {
		t.Fatalf("Bytes after error = %v, want nil", b)
	}
}

// The deref-cached entry list round-trips, and its decoder refuses the
// three malformed shapes: no entry, an entry cut short, and more than
// MaxDerefCached entries.
func TestDerefCachedListStrict(t *testing.T) {
	refs := make([]CachedRef, MaxDerefCached+1)
	for i := range refs {
		refs[i] = CachedRef{OID: uint64(i + 1), Tag: ^uint64(i)}
	}
	full := AppendDerefCached(nil, refs[:MaxDerefCached])
	got, err := DecodeDerefCached(full, nil)
	if err != nil || len(got) != MaxDerefCached || got[MaxDerefCached-1] != refs[MaxDerefCached-1] {
		t.Fatalf("round trip of %d entries = %d entries, %v", MaxDerefCached, len(got), err)
	}
	for name, body := range map[string][]byte{
		"empty":     nil,
		"truncated": full[:len(full)-1],
		"oversized": AppendDerefCached(nil, refs),
	} {
		if _, err := DecodeDerefCached(body, nil); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s list: %v, want ErrMalformed", name, err)
		}
	}
}
