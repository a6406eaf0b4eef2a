// Package wire is the client/server protocol of a served Ode database:
// length-prefixed, CRC-checked binary frames carrying typed commands
// for the transaction lifecycle (begin/commit/abort), object
// manipulation (pnew/deref/update/pdelete), version navigation
// (newversion/versions/derefversion), streamed forall scans, EXPLAIN,
// and remote O++ execution for the shell.
//
// A connection starts with a 6-byte hello in each direction (magic
// "ODEW", protocol version, flags); afterwards every message is one
// frame:
//
//	uint32 BE  payload length n
//	n bytes    payload = uint64 BE request id, 1 byte type, body
//	uint32 BE  IEEE CRC-32 of the payload
//
// Request ids are chosen by the client and echoed by the server, so a
// client may pipeline requests over one connection; the server answers
// in order. A forall is pulled, not pushed: the server sends a full
// window of rows as one RespBatch frame and scans no further until the
// client asks with CmdForallMore under the scan's id; any other frame
// ends the scan. The last window rides the RespDone carrying the total.
// Errors travel as RespErr frames carrying a typed code that maps back
// onto the engine's sentinel errors (ErrOverloaded, ErrTxTimeout, ...),
// so errors.Is works identically against a remote database. A RespErr
// with request id 0 is a connection-level failure (handshake rejection,
// session-table shed) and poisons the connection.
//
// docs/SERVER.md is the normative protocol description.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"ode/internal/object"
	"ode/internal/txn"
)

// Protocol constants.
const (
	// Magic opens the hello exchange in both directions.
	Magic = "ODEW"
	// Version is the protocol version this build speaks. Version 2 made
	// forall pulled a window at a time: a version-1 peer would wait
	// forever on a paused scan, so the hello refuses it.
	Version = 2
	// HelloLen is the byte length of the hello in each direction.
	HelloLen = 6
	// DefaultMaxFrame bounds the payload of a single frame (8 MiB);
	// larger objects must not exist (pages are 4 KiB, images far
	// smaller), so an oversized length prefix is treated as corruption
	// rather than an allocation request.
	DefaultMaxFrame = 8 << 20
	// frameOverhead is the non-payload bytes of a frame: the length
	// prefix and the CRC trailer.
	frameOverhead = 8
	// payloadMin is the smallest valid payload: request id + type.
	payloadMin = 9
)

// Message types. Requests occupy 0x01..0x7f, responses 0x80..0xff.
const (
	CmdPing           = 0x01
	CmdBegin          = 0x02
	CmdCommit         = 0x03
	CmdAbort          = 0x04
	CmdPNew           = 0x10
	CmdDeref          = 0x11
	CmdUpdate         = 0x12
	CmdPDelete        = 0x13
	CmdDerefCached    = 0x14
	CmdCurrentVersion = 0x20
	CmdNewVersion     = 0x21
	CmdDeleteVersion  = 0x22
	CmdVersions       = 0x23
	CmdDerefVersion   = 0x24
	CmdForall         = 0x30
	CmdExplain        = 0x31
	CmdForallMore     = 0x32
	CmdOQL            = 0x40
	CmdMetrics        = 0x41
	CmdWALSubscribe   = 0x50
	CmdWALAck         = 0x51
	CmdReplStatus     = 0x52
	CmdPromote        = 0x53

	// Two-phase commit (cross-shard transactions; docs/SHARDING.md).
	CmdPrepare        = 0x60
	CmdCommitPrepared = 0x61
	CmdAbortPrepared  = 0x62
	CmdTxStatus       = 0x63
	CmdShardStatus    = 0x64

	RespOK       = 0x80
	RespErr      = 0x81
	RespOID      = 0x82
	RespObject   = 0x83
	RespVersion  = 0x84
	RespVersions = 0x85
	RespBatch    = 0x86
	RespDone     = 0x87
	RespText     = 0x88

	RespWALFrame     = 0x90
	RespWALSnapBegin = 0x91
	RespWALSnapEnd   = 0x92
	RespReplStatus   = 0x93
	RespWALHeartbeat = 0x94

	RespTxStatus    = 0x95
	RespShardStatus = 0x96
)

// CmdName names a message type for metrics and diagnostics.
func CmdName(t byte) string {
	switch t {
	case CmdPing:
		return "ping"
	case CmdBegin:
		return "begin"
	case CmdCommit:
		return "commit"
	case CmdAbort:
		return "abort"
	case CmdPNew:
		return "pnew"
	case CmdDeref:
		return "deref"
	case CmdDerefCached:
		return "deref-cached"
	case CmdUpdate:
		return "update"
	case CmdPDelete:
		return "pdelete"
	case CmdCurrentVersion, CmdNewVersion, CmdDeleteVersion, CmdVersions, CmdDerefVersion:
		return "version"
	case CmdForall:
		return "forall"
	case CmdForallMore:
		return "forall-more"
	case CmdExplain:
		return "explain"
	case CmdOQL:
		return "oql"
	case CmdMetrics:
		return "metrics"
	case CmdWALSubscribe:
		return "wal-subscribe"
	case CmdWALAck:
		return "wal-ack"
	case CmdReplStatus:
		return "repl-status"
	case CmdPromote:
		return "promote"
	case CmdPrepare:
		return "prepare"
	case CmdCommitPrepared:
		return "commit-prepared"
	case CmdAbortPrepared:
		return "abort-prepared"
	case CmdTxStatus:
		return "tx-status"
	case CmdShardStatus:
		return "shard-status"
	}
	return fmt.Sprintf("cmd(0x%02x)", t)
}

// Forall request flags.
const (
	ForallSubtypes = 1 << 0 // include subclass extents (person*)
	ForallNoIndex  = 1 << 1 // force an extent scan
	ForallCount    = 1 << 2 // answer RespDone with the row count and no rows
)

// Framing errors. ErrCRC and ErrFrameTooLarge poison the connection:
// after either, the stream offset is untrustworthy.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")
	ErrCRC           = errors.New("wire: frame CRC mismatch")
	ErrMalformed     = errors.New("wire: malformed frame")
	ErrBadMagic      = errors.New("wire: bad protocol magic")
	ErrVersion       = errors.New("wire: unsupported protocol version")
)

// Frame is one decoded protocol frame.
type Frame struct {
	ReqID uint64
	Type  byte
	Body  []byte
}

// AppendFrame serializes f onto dst.
func AppendFrame(dst []byte, f *Frame) []byte {
	n := payloadMin + len(f.Body)
	dst = binary.BigEndian.AppendUint32(dst, uint32(n))
	start := len(dst)
	dst = binary.BigEndian.AppendUint64(dst, f.ReqID)
	dst = append(dst, f.Type)
	dst = append(dst, f.Body...)
	crc := crc32.ChecksumIEEE(dst[start:])
	return binary.BigEndian.AppendUint32(dst, crc)
}

// WriteFrame serializes f to w, returning the bytes written.
func WriteFrame(w io.Writer, f *Frame) (int, error) {
	buf := AppendFrame(make([]byte, 0, frameOverhead+payloadMin+len(f.Body)), f)
	n, err := w.Write(buf)
	return n, err
}

// DecodeFrame parses one frame from the front of b, returning the
// frame and the bytes consumed. io.ErrUnexpectedEOF reports a
// truncated frame (more bytes may complete it); ErrFrameTooLarge,
// ErrMalformed, and ErrCRC report corruption. The returned frame's
// Body aliases b.
func DecodeFrame(b []byte, maxFrame int) (*Frame, int, error) {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	if len(b) < 4 {
		return nil, 0, io.ErrUnexpectedEOF
	}
	n := int(binary.BigEndian.Uint32(b))
	if n > maxFrame {
		return nil, 0, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, maxFrame)
	}
	if n < payloadMin {
		return nil, 0, fmt.Errorf("%w: payload %d below minimum %d", ErrMalformed, n, payloadMin)
	}
	total := 4 + n + 4
	if len(b) < total {
		return nil, 0, io.ErrUnexpectedEOF
	}
	payload := b[4 : 4+n]
	want := binary.BigEndian.Uint32(b[4+n:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, 0, fmt.Errorf("%w: got %08x want %08x", ErrCRC, got, want)
	}
	return &Frame{
		ReqID: binary.BigEndian.Uint64(payload),
		Type:  payload[8],
		Body:  payload[9:n],
	}, total, nil
}

// ReadFrame reads one frame from r, returning the frame and the bytes
// consumed. A clean EOF before the first byte is io.EOF; a partial
// frame is io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader, maxFrame int) (*Frame, int, error) {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, 0, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n > maxFrame {
		return nil, 4, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, maxFrame)
	}
	if n < payloadMin {
		return nil, 4, fmt.Errorf("%w: payload %d below minimum %d", ErrMalformed, n, payloadMin)
	}
	rest := make([]byte, n+4)
	if _, err := io.ReadFull(r, rest); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, 4, err
	}
	payload := rest[:n]
	want := binary.BigEndian.Uint32(rest[n:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, 4 + n + 4, fmt.Errorf("%w: got %08x want %08x", ErrCRC, got, want)
	}
	return &Frame{
		ReqID: binary.BigEndian.Uint64(payload),
		Type:  payload[8],
		Body:  payload[9:],
	}, 4 + n + 4, nil
}

// FrameReader reads frames from one stream into a reused buffer,
// eliminating the two per-frame allocations of ReadFrame (payload
// slice and Frame header). The returned frame — and in particular its
// Body — aliases the reader's internal buffer and is valid only until
// the next Read; callers that retain a body across reads must copy it.
type FrameReader struct {
	r   io.Reader
	max int
	hdr [4]byte // length prefix scratch (a local would escape through io.Reader)
	buf []byte
	f   Frame
}

// NewFrameReader wraps r (typically a *bufio.Reader) for repeated
// frame reads; maxFrame <= 0 means DefaultMaxFrame.
func NewFrameReader(r io.Reader, maxFrame int) *FrameReader {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	return &FrameReader{r: r, max: maxFrame}
}

// Read reads one frame, returning the frame and the bytes consumed.
// Error semantics match ReadFrame; the frame is only valid until the
// next Read.
func (fr *FrameReader) Read() (*Frame, int, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return nil, 0, err
	}
	n := int(binary.BigEndian.Uint32(fr.hdr[:]))
	if n > fr.max {
		return nil, 4, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, fr.max)
	}
	if n < payloadMin {
		return nil, 4, fmt.Errorf("%w: payload %d below minimum %d", ErrMalformed, n, payloadMin)
	}
	if cap(fr.buf) < n+4 {
		fr.buf = make([]byte, n+4)
	}
	rest := fr.buf[:n+4]
	if _, err := io.ReadFull(fr.r, rest); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, 4, err
	}
	payload := rest[:n]
	want := binary.BigEndian.Uint32(rest[n:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, 4 + n + 4, fmt.Errorf("%w: got %08x want %08x", ErrCRC, got, want)
	}
	fr.f = Frame{
		ReqID: binary.BigEndian.Uint64(payload),
		Type:  payload[8],
		Body:  payload[9:n:n],
	}
	return &fr.f, 4 + n + 4, nil
}

// WriteHello writes the 6-byte hello (magic, version, flags).
func WriteHello(w io.Writer, version, flags byte) error {
	var b [HelloLen]byte
	copy(b[:], Magic)
	b[4] = version
	b[5] = flags
	_, err := w.Write(b[:])
	return err
}

// ReadHello reads and validates the 6-byte hello, returning the peer's
// version and flags. A version of 0 from a server means the client's
// version was rejected.
func ReadHello(r io.Reader) (version, flags byte, err error) {
	var b [HelloLen]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, 0, err
	}
	if string(b[:4]) != Magic {
		return 0, 0, ErrBadMagic
	}
	return b[4], b[5], nil
}

// Error codes carried by RespErr frames. Codes map 1:1 onto the
// engine's sentinel errors so a remote caller's errors.Is behaves like
// an embedded caller's.
const (
	CodeUnknown uint16 = iota
	CodeProto          // protocol violation (no open transaction, bad body, ...)
	CodeNoObject
	CodeNoVersion
	CodeNoCluster
	CodeNoClass // class name not in the server's schema
	CodeConstraint
	CodeTxDone
	CodeDeadlock
	CodeTxTimeout
	CodeCanceled
	CodeOverloaded
	CodeDBClosed
	CodeSchema     // image's class id does not match the server's schema
	CodeReadOnly   // write against a read-only replica
	CodeReplResync // subscriber position unserviceable: full resync required
	CodeStaleEpoch // epoch fencing: the peer was deposed by a newer promotion
	CodeFailover   // operation lost to a replication failover in progress
	CodeNoPrepared // two-phase commit: no prepared transaction with that gid
)

// ErrProto reports a request the server could not honor as sent (no
// open transaction, unknown command, malformed body).
var ErrProto = errors.New("wire: protocol error")

// ErrSchema reports a class-id mismatch between the client's and the
// server's registered schemas.
var ErrSchema = errors.New("wire: schema mismatch")

// Code maps an engine error onto its wire code.
func Code(err error) uint16 {
	switch {
	case errors.Is(err, txn.ErrOverloaded):
		return CodeOverloaded
	case errors.Is(err, txn.ErrDBClosed):
		return CodeDBClosed
	case errors.Is(err, txn.ErrTxTimeout):
		return CodeTxTimeout
	case errors.Is(err, txn.ErrCanceled):
		return CodeCanceled
	case errors.Is(err, txn.ErrDeadlock):
		return CodeDeadlock
	case errors.Is(err, txn.ErrConstraintViolation):
		return CodeConstraint
	case errors.Is(err, txn.ErrTxDone):
		return CodeTxDone
	case errors.Is(err, object.ErrNoObject):
		return CodeNoObject
	case errors.Is(err, object.ErrNoVersion):
		return CodeNoVersion
	case errors.Is(err, object.ErrNoCluster):
		return CodeNoCluster
	case errors.Is(err, object.ErrSchemaMismatch), errors.Is(err, ErrSchema):
		return CodeSchema
	case errors.Is(err, txn.ErrReadOnly):
		return CodeReadOnly
	case errors.Is(err, txn.ErrStaleEpoch):
		return CodeStaleEpoch
	case errors.Is(err, txn.ErrFailover):
		return CodeFailover
	case errors.Is(err, txn.ErrNoPrepared):
		return CodeNoPrepared
	case errors.Is(err, ErrResync):
		return CodeReplResync
	case errors.Is(err, ErrProto):
		return CodeProto
	}
	return CodeUnknown
}

// CodeErr reconstructs a typed error from a wire code and message. The
// result wraps the matching engine sentinel, so errors.Is against
// ode.ErrOverloaded, ode.ErrTxTimeout, etc. holds on the client side.
func CodeErr(code uint16, msg string) error {
	var sentinel error
	switch code {
	case CodeProto:
		sentinel = ErrProto
	case CodeNoObject:
		sentinel = object.ErrNoObject
	case CodeNoVersion:
		sentinel = object.ErrNoVersion
	case CodeNoCluster:
		sentinel = object.ErrNoCluster
	case CodeConstraint:
		sentinel = txn.ErrConstraintViolation
	case CodeTxDone:
		sentinel = txn.ErrTxDone
	case CodeDeadlock:
		sentinel = txn.ErrDeadlock
	case CodeTxTimeout:
		sentinel = txn.ErrTxTimeout
	case CodeCanceled:
		sentinel = txn.ErrCanceled
	case CodeOverloaded:
		sentinel = txn.ErrOverloaded
	case CodeDBClosed:
		sentinel = txn.ErrDBClosed
	case CodeSchema:
		sentinel = ErrSchema
	case CodeNoClass:
		sentinel = ErrNoClass
	case CodeReadOnly:
		sentinel = txn.ErrReadOnly
	case CodeStaleEpoch:
		sentinel = txn.ErrStaleEpoch
	case CodeFailover:
		sentinel = txn.ErrFailover
	case CodeNoPrepared:
		sentinel = txn.ErrNoPrepared
	case CodeReplResync:
		sentinel = ErrResync
	default:
		return fmt.Errorf("wire: remote error: %s", msg)
	}
	return fmt.Errorf("%w: %s", sentinel, msg)
}

// ErrNoClass reports a class name the server's schema does not contain.
var ErrNoClass = errors.New("wire: unknown class")

// ErrResync reports a WAL subscription the primary cannot serve from
// the subscriber's position (unknown replication id, or batches
// truncated past it): the replica must wipe and fully resynchronize.
var ErrResync = errors.New("wire: replica requires full resync")
