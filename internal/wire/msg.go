package wire

import (
	"encoding/binary"
	"fmt"
)

// Body encoding: uvarints for integers, length-prefixed bytes for
// strings, images, and value operands. Images and predicate operands
// use the object codec (object.Encode / object.EncodeValue) and travel
// here as opaque byte strings, so the wire layer never decodes objects
// itself.

// AppendUvarint appends a uvarint to a body under construction.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendBytes appends a length-prefixed byte string.
func AppendBytes(b, s []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendString appends a length-prefixed string.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// Dec is a sticky-error body decoder. After any failure, every
// subsequent read returns a zero value and Err reports the first
// failure; handlers decode a whole body and check Err once.
type Dec struct {
	b   []byte
	err error
}

// NewDec wraps a frame body for decoding.
func NewDec(b []byte) *Dec { return &Dec{b: b} }

// Err returns the first decode failure, or nil.
func (d *Dec) Err() error { return d.err }

func (d *Dec) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("%w: truncated body", ErrMalformed)
	}
}

// Uvarint reads one uvarint.
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Byte reads one byte.
func (d *Dec) Byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) == 0 {
		d.fail()
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

// Bytes reads one length-prefixed byte string (aliasing the body).
func (d *Dec) Bytes() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if uint64(len(d.b)) < n {
		d.fail()
		return nil
	}
	s := d.b[:n]
	d.b = d.b[n:]
	return s
}

// String reads one length-prefixed string.
func (d *Dec) String() string { return string(d.Bytes()) }

// Rest returns the undecoded remainder of the body.
func (d *Dec) Rest() []byte { return d.b }

// ForallReq is the body of a CmdForall or CmdExplain request. Field ==
// "" means no suchthat clause; Value is an object.EncodeValue operand.
//
// The rows of a forall travel in windows. A RespBatch body is one
// window: a row count, then per row the oid (uvarint) and the
// length-prefixed image. The RespDone that ends the scan carries the
// total row count, then the last window the same way; a ForallCount
// request's RespDone is the total and an empty window.
type ForallReq struct {
	Class string
	Flags byte
	Field string
	Op    byte // query.CmpOp when Field != ""
	Value []byte
}

// Append serializes the request body.
func (r *ForallReq) Append(b []byte) []byte {
	b = AppendString(b, r.Class)
	b = append(b, r.Flags)
	b = AppendString(b, r.Field)
	if r.Field != "" {
		b = append(b, r.Op)
		b = AppendBytes(b, r.Value)
	}
	return b
}

// DecodeForallReq parses a CmdForall/CmdExplain body.
func DecodeForallReq(body []byte) (*ForallReq, error) {
	d := NewDec(body)
	r := &ForallReq{}
	r.Class = d.String()
	r.Flags = d.Byte()
	r.Field = d.String()
	if d.Err() == nil && r.Field != "" {
		r.Op = d.Byte()
		r.Value = d.Bytes()
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return r, nil
}

// MaxDerefCached bounds the entries of one CmdDerefCached request: the
// oid the client asked for plus the cached neighbourhood it revalidates
// in the same frame. A constant of the protocol, not an option.
const MaxDerefCached = 64

// CachedRef is one CmdDerefCached entry: an oid and the content tag
// (object.ImageTag) of the image the client holds for it.
type CachedRef struct {
	OID uint64
	Tag uint64
}

// AppendDerefCached serializes a CmdDerefCached body: the (oid, tag)
// pairs back to back, the requested one first. A one-entry body is the
// command's original single-object form.
func AppendDerefCached(b []byte, refs []CachedRef) []byte {
	for _, r := range refs {
		b = AppendUvarint(b, r.OID)
		b = AppendUvarint(b, r.Tag)
	}
	return b
}

// DecodeDerefCached parses a CmdDerefCached body into refs (reusing its
// capacity). It is strict: at least one entry, at most MaxDerefCached,
// and a body that ends inside an entry is malformed.
func DecodeDerefCached(body []byte, refs []CachedRef) ([]CachedRef, error) {
	d := NewDec(body)
	refs = refs[:0]
	for len(d.Rest()) > 0 || len(refs) == 0 {
		if len(refs) == MaxDerefCached {
			return nil, fmt.Errorf("%w: more than %d deref-cached entries", ErrMalformed, MaxDerefCached)
		}
		r := CachedRef{OID: d.Uvarint(), Tag: d.Uvarint()}
		if err := d.Err(); err != nil {
			return nil, err
		}
		refs = append(refs, r)
	}
	return refs, nil
}

// The status of each neighbourhood entry after the first, appended in
// request order to a CmdDerefCached reply (RespOK or RespObject).
const (
	CachedProven   byte = 0 // locked, and the image still hashes to the tag
	CachedModified byte = 1 // locked; the current image follows, length-prefixed
	CachedSkipped  byte = 2 // not locked: busy, gone, or failed — the client learns nothing
)

// SubscribeReq is the body of a CmdWALSubscribe request: the
// subscriber's replication id, applied LSN, and fencing epoch, plus
// whether it can accept a full snapshot (only a fresh, empty replica
// can).
type SubscribeReq struct {
	ReplID      string
	LSN         uint64
	CanSnapshot bool
	Epoch       uint64
}

// Append serializes the subscribe body.
func (r *SubscribeReq) Append(b []byte) []byte {
	b = AppendString(b, r.ReplID)
	b = AppendUvarint(b, r.LSN)
	var flags byte
	if r.CanSnapshot {
		flags |= 1
	}
	b = append(b, flags)
	return AppendUvarint(b, r.Epoch)
}

// DecodeSubscribeReq parses a CmdWALSubscribe body.
func DecodeSubscribeReq(body []byte) (*SubscribeReq, error) {
	d := NewDec(body)
	r := &SubscribeReq{}
	r.ReplID = d.String()
	r.LSN = d.Uvarint()
	r.CanSnapshot = d.Byte()&1 != 0
	r.Epoch = d.Uvarint()
	if err := d.Err(); err != nil {
		return nil, err
	}
	return r, nil
}

// WALFrameBody builds a RespWALFrame body: the batch's LSN (0 for a
// snapshot batch) and the shipping node's fencing epoch, followed by
// the batch's raw WAL encoding. The epoch lets a replica reject frames
// from a deposed primary mid-stream; because the stream is gap-free,
// an epoch *increase* observed at LSN n means the promotion boundary
// was n-1.
func WALFrameBody(lsn, epoch uint64, raw []byte) []byte {
	b := AppendUvarint(make([]byte, 0, 20+len(raw)), lsn)
	b = AppendUvarint(b, epoch)
	return append(b, raw...)
}

// DecodeWALFrame splits a RespWALFrame body (raw aliases body).
func DecodeWALFrame(body []byte) (lsn, epoch uint64, raw []byte, err error) {
	d := NewDec(body)
	lsn = d.Uvarint()
	epoch = d.Uvarint()
	if err := d.Err(); err != nil {
		return 0, 0, nil, err
	}
	return lsn, epoch, d.Rest(), nil
}

// HeartbeatBody builds a RespWALHeartbeat body: the primary's fencing
// epoch, that epoch's start LSN, and the primary's current LSN.
// Heartbeats piggyback liveness on an otherwise-idle subscribe stream;
// the epoch pair keeps long-idle replicas fenced and the LSN feeds
// their lag gauge.
func HeartbeatBody(epoch, epochLSN, lsn uint64) []byte {
	b := AppendUvarint(make([]byte, 0, 30), epoch)
	b = AppendUvarint(b, epochLSN)
	return AppendUvarint(b, lsn)
}

// DecodeHeartbeat parses a RespWALHeartbeat body.
func DecodeHeartbeat(body []byte) (epoch, epochLSN, lsn uint64, err error) {
	d := NewDec(body)
	epoch = d.Uvarint()
	epochLSN = d.Uvarint()
	lsn = d.Uvarint()
	return epoch, epochLSN, lsn, d.Err()
}

// ReplStatus is the body of a RespReplStatus response (and, with the
// LSN as the peer's, the state a CmdReplStatus reports): role,
// replication id, applied LSN, fencing epoch and its start LSN, the
// reason the node's source last dropped a subscriber ("" if it never
// has), and the node's advertised address — its stable identity for
// election ranking, independent of whatever proxied address the
// observer happened to dial. As a subscribe accept, LSN is the
// position the stream starts from.
type ReplStatus struct {
	ReadOnly  bool
	ReplID    string
	LSN       uint64
	Epoch     uint64
	EpochLSN  uint64
	LastKill  string
	Advertise string
}

// Append serializes the status body.
func (r *ReplStatus) Append(b []byte) []byte {
	var role byte
	if r.ReadOnly {
		role = 1
	}
	b = append(b, role)
	b = AppendString(b, r.ReplID)
	b = AppendUvarint(b, r.LSN)
	b = AppendUvarint(b, r.Epoch)
	b = AppendUvarint(b, r.EpochLSN)
	b = AppendString(b, r.LastKill)
	return AppendString(b, r.Advertise)
}

// DecodeReplStatus parses a RespReplStatus body.
func DecodeReplStatus(body []byte) (*ReplStatus, error) {
	d := NewDec(body)
	r := &ReplStatus{}
	r.ReadOnly = d.Byte() == 1
	r.ReplID = d.String()
	r.LSN = d.Uvarint()
	r.Epoch = d.Uvarint()
	r.EpochLSN = d.Uvarint()
	r.LastKill = d.String()
	r.Advertise = d.String()
	if err := d.Err(); err != nil {
		return nil, err
	}
	return r, nil
}

// SnapBody builds the body shared by RespWALSnapBegin (the primary's
// replication id + the LSN the snapshot is consistent-as-of) and
// RespWALSnapEnd (the same pair, closing the dump).
func SnapBody(replID string, lsn uint64) []byte {
	b := AppendString(nil, replID)
	return AppendUvarint(b, lsn)
}

// DecodeSnapBody parses a RespWALSnapBegin/RespWALSnapEnd body.
func DecodeSnapBody(body []byte) (replID string, lsn uint64, err error) {
	d := NewDec(body)
	replID = d.String()
	lsn = d.Uvarint()
	return replID, lsn, d.Err()
}

// GIDBody builds the body shared by CmdPrepare, CmdCommitPrepared,
// CmdAbortPrepared, and CmdTxStatus: the global transaction id.
func GIDBody(gid string) []byte { return AppendString(nil, gid) }

// DecodeGIDBody parses a gid-only body.
func DecodeGIDBody(body []byte) (string, error) {
	d := NewDec(body)
	gid := d.String()
	return gid, d.Err()
}

// TxStatusBody builds a RespTxStatus body: the transaction's fate on
// the answering node ("prepared", "committed", "aborted", "unknown")
// and, for a commit, the local commit LSN.
func TxStatusBody(status string, lsn uint64) []byte {
	b := AppendString(nil, status)
	return AppendUvarint(b, lsn)
}

// DecodeTxStatusBody parses a RespTxStatus body.
func DecodeTxStatusBody(body []byte) (status string, lsn uint64, err error) {
	d := NewDec(body)
	status = d.String()
	lsn = d.Uvarint()
	return status, lsn, d.Err()
}

// PreparedGID describes one in-doubt transaction in a ShardStatus.
type PreparedGID struct {
	GID       string
	Ops       uint64
	AgeMS     uint64
	Recovered bool
}

// ShardStatus is the body of a RespShardStatus response: the node's
// durability position and fencing epoch, its shard coordinates, and
// every prepared (in-doubt) two-phase-commit transaction it holds —
// the raw material of the in-doubt resolution runbook
// (docs/SHARDING.md).
type ShardStatus struct {
	LSN        uint64
	Epoch      uint64
	ReadOnly   bool
	ShardSlot  uint64 // this node's shard index
	ShardCount uint64 // 0 when unsharded
	Prepared   []PreparedGID
}

// Append serializes the status body.
func (s *ShardStatus) Append(b []byte) []byte {
	b = AppendUvarint(b, s.LSN)
	b = AppendUvarint(b, s.Epoch)
	var flags byte
	if s.ReadOnly {
		flags |= 1
	}
	b = append(b, flags)
	b = AppendUvarint(b, s.ShardSlot)
	b = AppendUvarint(b, s.ShardCount)
	b = AppendUvarint(b, uint64(len(s.Prepared)))
	for i := range s.Prepared {
		p := &s.Prepared[i]
		b = AppendString(b, p.GID)
		b = AppendUvarint(b, p.Ops)
		b = AppendUvarint(b, p.AgeMS)
		var pf byte
		if p.Recovered {
			pf |= 1
		}
		b = append(b, pf)
	}
	return b
}

// DecodeShardStatus parses a RespShardStatus body.
func DecodeShardStatus(body []byte) (*ShardStatus, error) {
	d := NewDec(body)
	s := &ShardStatus{}
	s.LSN = d.Uvarint()
	s.Epoch = d.Uvarint()
	s.ReadOnly = d.Byte()&1 != 0
	s.ShardSlot = d.Uvarint()
	s.ShardCount = d.Uvarint()
	n := d.Uvarint()
	if d.Err() == nil && n > uint64(len(d.Rest())) {
		// Each entry consumes at least one byte; a count beyond the
		// remaining body is corruption, not an allocation request.
		return nil, fmt.Errorf("%w: prepared count %d exceeds body", ErrMalformed, n)
	}
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		var p PreparedGID
		p.GID = d.String()
		p.Ops = d.Uvarint()
		p.AgeMS = d.Uvarint()
		p.Recovered = d.Byte()&1 != 0
		s.Prepared = append(s.Prepared, p)
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return s, nil
}

// ErrBody builds a RespErr body.
func ErrBody(code uint16, msg string) []byte {
	b := AppendUvarint(nil, uint64(code))
	return AppendString(b, msg)
}

// DecodeErrBody parses a RespErr body into a typed error.
func DecodeErrBody(body []byte) error {
	d := NewDec(body)
	code := d.Uvarint()
	msg := d.String()
	if err := d.Err(); err != nil {
		return err
	}
	return CodeErr(uint16(code), msg)
}
