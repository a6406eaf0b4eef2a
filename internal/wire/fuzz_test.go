package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzDecodeFrame hammers the frame decoder with corrupted streams.
// The invariants: DecodeFrame never panics, never claims to consume
// more bytes than it was given, and on success re-encoding the decoded
// frame reproduces exactly the consumed bytes (the codec is canonical).
// The seed corpus covers the interesting failure classes: truncated
// frames, oversized length prefixes, and CRC-corrupted payloads.
func FuzzDecodeFrame(f *testing.F) {
	good := AppendFrame(nil, &Frame{ReqID: 7, Type: CmdBegin, Body: AppendUvarint(nil, 500)})
	f.Add(good)
	f.Add(good[:len(good)-3]) // truncated trailer
	f.Add(good[:5])           // truncated payload
	f.Add([]byte{})           // empty
	corrupt := append([]byte(nil), good...)
	corrupt[9] ^= 0x40 // flip a payload bit: CRC mismatch
	f.Add(corrupt)
	huge := binary.BigEndian.AppendUint32(nil, uint32(DefaultMaxFrame)+1)
	f.Add(append(huge, good[4:]...)) // oversized length prefix
	tiny := binary.BigEndian.AppendUint32(nil, 3)
	f.Add(append(tiny, 0, 0, 0, 0, 0, 0, 0)) // payload below reqID+type
	// Two frames back to back: decoding must stop at the first.
	f.Add(append(append([]byte(nil), good...), good...))

	// The replication surface (0x50–0x53 and the epoch-bearing
	// responses): subscribe handshakes, shipped WAL frames, heartbeats,
	// and status bodies all cross trust boundaries between nodes, so
	// the decoders get the same hammering as the core commands.
	sub := &SubscribeReq{ReplID: "r-1234", LSN: 99, CanSnapshot: true, Epoch: 7}
	f.Add(AppendFrame(nil, &Frame{ReqID: 2, Type: CmdWALSubscribe, Body: sub.Append(nil)}))
	f.Add(AppendFrame(nil, &Frame{ReqID: 3, Type: CmdWALAck, Body: AppendUvarint(nil, 99)}))
	f.Add(AppendFrame(nil, &Frame{ReqID: 4, Type: CmdReplStatus}))
	f.Add(AppendFrame(nil, &Frame{ReqID: 5, Type: CmdPromote}))
	f.Add(AppendFrame(nil, &Frame{ReqID: 6, Type: RespWALFrame, Body: WALFrameBody(42, 3, []byte{1, 2, 3, 4})}))
	f.Add(AppendFrame(nil, &Frame{ReqID: 7, Type: RespWALHeartbeat, Body: HeartbeatBody(3, 40, 42)}))
	st := &ReplStatus{ReadOnly: true, ReplID: "r-1234", LSN: 42, Epoch: 3, EpochLSN: 40, LastKill: "slow", Advertise: "10.0.0.1:7777"}
	f.Add(AppendFrame(nil, &Frame{ReqID: 8, Type: RespReplStatus, Body: st.Append(nil)}))
	// Epoch truncated off a subscribe body: must decode-error, not
	// default to epoch 0.
	f.Add(AppendFrame(nil, &Frame{ReqID: 9, Type: CmdWALSubscribe, Body: sub.Append(nil)[:8]}))

	// The 2PC surface (0x60–0x64): gids, decision responses, and shard
	// status bodies arrive from the router and from operators, so the
	// decoders get the same treatment as 0x50–0x53. Truncation seeds
	// cut inside a string length and inside the prepared list.
	gid := GIDBody("s2-deadbeef-17")
	f.Add(AppendFrame(nil, &Frame{ReqID: 10, Type: CmdPrepare, Body: gid}))
	f.Add(AppendFrame(nil, &Frame{ReqID: 11, Type: CmdCommitPrepared, Body: gid}))
	f.Add(AppendFrame(nil, &Frame{ReqID: 12, Type: CmdAbortPrepared, Body: gid}))
	f.Add(AppendFrame(nil, &Frame{ReqID: 13, Type: CmdTxStatus, Body: gid}))
	f.Add(AppendFrame(nil, &Frame{ReqID: 14, Type: CmdPrepare, Body: gid[:len(gid)-4]})) // gid cut mid-string
	f.Add(AppendFrame(nil, &Frame{ReqID: 15, Type: RespTxStatus, Body: TxStatusBody("committed", 4242)}))
	f.Add(AppendFrame(nil, &Frame{ReqID: 16, Type: RespTxStatus, Body: TxStatusBody("prepared", 0)[:3]})) // lsn truncated off
	sh := &ShardStatus{LSN: 99, Epoch: 4, ReadOnly: false, ShardSlot: 1, ShardCount: 3,
		Prepared: []PreparedGID{{GID: "s0-aa-1", Ops: 2, AgeMS: 1500, Recovered: true}, {GID: "s1-bb-2", Ops: 1}}}
	shBody := sh.Append(nil)
	f.Add(AppendFrame(nil, &Frame{ReqID: 17, Type: CmdShardStatus}))
	f.Add(AppendFrame(nil, &Frame{ReqID: 18, Type: RespShardStatus, Body: shBody}))
	f.Add(AppendFrame(nil, &Frame{ReqID: 19, Type: RespShardStatus, Body: shBody[:len(shBody)-6]})) // list cut mid-entry
	// A prepared-count claiming more entries than the body holds: the
	// decoder's overflow guard must error, not allocate.
	lie := AppendUvarint(AppendUvarint(nil, 99), 4)
	lie = append(lie, 0)
	lie = AppendUvarint(lie, 1)
	lie = AppendUvarint(lie, 3)
	lie = AppendUvarint(lie, 1<<40)
	f.Add(AppendFrame(nil, &Frame{ReqID: 20, Type: RespShardStatus, Body: lie}))

	// A deref-cached neighbourhood: the one-entry original, a full
	// frame of entries, one past the bound, and a list cut inside an
	// entry. The decoder is strict about all three edges.
	hood := make([]CachedRef, MaxDerefCached+1)
	for i := range hood {
		hood[i] = CachedRef{OID: uint64(3*i + 1), Tag: uint64(i) << 40}
	}
	full := AppendDerefCached(nil, hood[:MaxDerefCached])
	f.Add(AppendFrame(nil, &Frame{ReqID: 21, Type: CmdDerefCached, Body: AppendDerefCached(nil, hood[:1])}))
	f.Add(AppendFrame(nil, &Frame{ReqID: 22, Type: CmdDerefCached, Body: full}))
	f.Add(AppendFrame(nil, &Frame{ReqID: 23, Type: CmdDerefCached, Body: AppendDerefCached(nil, hood)}))
	f.Add(AppendFrame(nil, &Frame{ReqID: 24, Type: CmdDerefCached, Body: full[:len(full)-3]}))

	// A pulled forall: the request (no batch size since version 2), a
	// count request, the empty CmdForallMore that asks for the next
	// window, and the RespDone that carries the total and the last
	// window, whole and cut inside its one row's image.
	scan := &ForallReq{Class: "stockitem", Flags: ForallNoIndex, Field: "qty", Op: 5, Value: []byte{2, 200, 1}}
	f.Add(AppendFrame(nil, &Frame{ReqID: 25, Type: CmdForall, Body: scan.Append(nil)}))
	count := &ForallReq{Class: "stockitem", Flags: ForallCount}
	f.Add(AppendFrame(nil, &Frame{ReqID: 26, Type: CmdForall, Body: count.Append(nil)}))
	f.Add(AppendFrame(nil, &Frame{ReqID: 25, Type: CmdForallMore}))
	done := AppendUvarint(AppendUvarint(nil, 65), 1)
	done = AppendBytes(AppendUvarint(done, 1<<20), []byte("image"))
	f.Add(AppendFrame(nil, &Frame{ReqID: 25, Type: RespDone, Body: done}))
	f.Add(AppendFrame(nil, &Frame{ReqID: 25, Type: RespDone, Body: done[:len(done)-2]}))
	f.Add(AppendFrame(nil, &Frame{ReqID: 26, Type: RespDone, Body: AppendUvarint(AppendUvarint(nil, 500), 0)}))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := DecodeFrame(data, 0)
		if err != nil {
			if fr != nil {
				t.Fatalf("error %v with non-nil frame", err)
			}
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		re := AppendFrame(nil, fr)
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", re, data[:n])
		}
		// The body decoders must tolerate arbitrary bodies.
		_, _ = DecodeForallReq(fr.Body)
		_ = DecodeErrBody(fr.Body)
		_, _ = DecodeSubscribeReq(fr.Body)
		_, _, _, _ = DecodeWALFrame(fr.Body)
		_, _, _, _ = DecodeHeartbeat(fr.Body)
		_, _ = DecodeReplStatus(fr.Body)
		_, _, _ = DecodeSnapBody(fr.Body)
		_, _ = DecodeGIDBody(fr.Body)
		_, _, _ = DecodeTxStatusBody(fr.Body)
		_, _ = DecodeShardStatus(fr.Body)
		if refs, err := DecodeDerefCached(fr.Body, nil); err == nil && (len(refs) == 0 || len(refs) > MaxDerefCached) {
			t.Fatalf("deref-cached decoder accepted %d entries", len(refs))
		}
	})
}
