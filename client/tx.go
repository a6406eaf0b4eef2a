package client

import (
	"context"

	"ode"
	"ode/internal/object"
	"ode/internal/wire"
)

// Tx is a remote transaction. Its methods mirror ode.Tx; each is one
// network round trip unless batched through Pipeline or served from the
// client cache. A Tx pins one connection and must be used by one
// goroutine, like its embedded counterpart. The begin context governs
// every round trip: its deadline bounds the socket, and the server
// enforces the same deadline on locks, scans, and commit.
type Tx struct {
	c   *Client
	cn  *wconn
	ctx context.Context
	// beginID is the request id Begin reserved for the begin frame; it is
	// 0 once that frame has gone out in front of the first request.
	// riding is that id from the post the begin rode until the await
	// that reads its reply.
	beginID, riding uint64
	// failed is why the transaction can send nothing more: the server's
	// refusal of its begin (overload, closed), or the error that broke
	// its connection. Every operation returns it from then on, as every
	// operation of an embedded transaction admission control refused
	// does.
	failed  error
	done    bool
	id      uint64
	lsn     uint64 // commit LSN, set by Commit
	epoch   uint64 // server's fencing epoch at begin, refreshed by Commit
	applied uint64 // server's applied LSN at begin

	// seen records, per OID, the cache tag this transaction has proven
	// against the server (a full deref, a fill, or a not-modified
	// revalidation of the object or of a neighbour sent with it). The
	// server holds the transaction's read lock from that round trip
	// until commit/abort, so while an entry is here the image cannot
	// change and a matching cached object may be served with no round
	// trip at all. Discarded with the transaction.
	seen map[ode.OID]uint64
	// frontier is where the bound cut the last neighbourhood walk short:
	// cached objects, already sent for revalidation, whose references it
	// did not get to follow. The next walk resumes there.
	frontier []ode.OID
}

// ID returns the server-side transaction id. A transaction that has
// sent nothing yet sends its begin now to learn it.
func (tx *Tx) ID() uint64 {
	tx.begin()
	return tx.id
}

// begin sends the begin frame on its own if nothing has been sent yet:
// for the accessors whose answer only the begin reply carries. A
// failure surfaces at the next operation.
func (tx *Tx) begin() {
	if tx.beginID != 0 && tx.post(nil) == nil {
		_ = tx.await(func() error { return nil })
	}
}

// err is why the transaction can send nothing more: failed, or
// ErrTxDone once it is finished. Its connection then belongs to the
// pool (or is closed) and must not be touched.
func (tx *Tx) err() error {
	if tx.failed != nil {
		return tx.failed
	}
	if tx.done {
		return ode.ErrTxDone
	}
	return nil
}

// post is the one way a transaction writes to its connection: frames
// (numbered by the caller) go out in one write — behind the begin frame
// when this is the transaction's first post, so the server runs both
// and answers both in one burst. await reads the replies. A post that
// fails needs no await.
func (tx *Tx) post(frames []byte) error {
	if err := tx.err(); err != nil {
		return err
	}
	if tx.beginID != 0 {
		frames = append(tx.c.beginFrame(tx.ctx, tx.beginID, len(frames)), frames...)
		tx.riding, tx.beginID = tx.beginID, 0
	}
	err := tx.cn.post(tx.ctx, frames)
	if err != nil {
		tx.riding = 0
		if tx.cn.broken {
			return tx.fail(err)
		}
	}
	return err
}

// await ends the exchange post began: the begin's reply first when the
// begin rode along, then read consumes the replies to the frames. A
// refused begin still lets read drain the replies to the frames the
// server could not run; then it is the error of this call and of every
// later one, and the connection goes back to the pool.
func (tx *Tx) await(read func() error) error {
	cn, beginID := tx.cn, tx.riding
	tx.riding = 0
	var refused error
	err := cn.await(func() error {
		if beginID != 0 {
			resp, err := cn.recv(beginID)
			if err != nil {
				return err
			}
			if refused = respErr(resp); refused == nil {
				if err := tx.begun(resp); err != nil {
					cn.broken = true
					return err
				}
			}
		}
		return read()
	})
	if err == nil && refused != nil {
		tx.failed = refused
		tx.finish()
		return refused
	}
	if cn.broken {
		if err == nil {
			// The replies arrived, but the context ended the exchange:
			// this operation has its answer, the next ones do not.
			tx.fail(mapCtxErr(tx.ctx.Err()))
			return nil
		}
		return tx.fail(err)
	}
	return err
}

// fail ends the transaction on a broken connection: the connection is
// closed, not pooled, nothing more is sent on it, and err — what broke
// it — is the outcome of every later operation. Abort then costs no
// round trip. It returns err.
func (tx *Tx) fail(err error) error {
	tx.cn.broken = true
	if tx.failed == nil {
		tx.failed = err
	}
	tx.finish()
	return err
}

// begun decodes the begin reply: the transaction id, the node's fencing
// epoch and its applied LSN.
func (tx *Tx) begun(resp *wire.Frame) error {
	if resp.Type != wire.RespOK {
		return protoErr("begin: unexpected response 0x%02x", resp.Type)
	}
	d := wire.NewDec(resp.Body)
	tx.id, tx.epoch, tx.applied = d.Uvarint(), d.Uvarint(), d.Uvarint()
	if err := d.Err(); err != nil {
		return protoErr("begin: %v", err)
	}
	return nil
}

// ask posts one request and returns the id reply reads its answer
// under.
func (tx *Tx) ask(typ byte, body []byte) (uint64, error) {
	if err := tx.err(); err != nil {
		return 0, err
	}
	id := tx.cn.newID()
	return id, tx.post(wire.AppendFrame(nil, &wire.Frame{ReqID: id, Type: typ, Body: body}))
}

// reply reads the answer to request id, which the transaction's last
// post sent.
func (tx *Tx) reply(id uint64) (resp *wire.Frame, err error) {
	err = tx.await(func() (err error) {
		resp, err = tx.cn.recv(id)
		return err
	})
	return resp, err
}

// roundTrip sends one request and returns its reply, or the error that
// kept it from being answered.
func (tx *Tx) roundTrip(typ byte, body []byte) (*wire.Frame, error) {
	id, err := tx.ask(typ, body)
	if err != nil {
		return nil, err
	}
	return tx.reply(id)
}

// exchange sends one request to each transaction and then reads every
// reply, all on the caller's goroutine: every round trip is in flight
// at once. answer gets each reply, or the error that kept it from
// arriving, in the order of txs.
func exchange(txs []*Tx, typ byte, body []byte, answer func(k int, resp *wire.Frame, err error)) {
	ids := make([]uint64, len(txs))
	errs := make([]error, len(txs))
	for k, tx := range txs {
		ids[k], errs[k] = tx.ask(typ, body)
	}
	for k, tx := range txs {
		var resp *wire.Frame
		err := errs[k]
		if err == nil {
			resp, err = tx.reply(ids[k])
		}
		answer(k, resp, err)
	}
}

// finish releases the pinned connection back to the pool.
func (tx *Tx) finish() {
	if tx.done {
		return
	}
	tx.done = true
	tx.c.put(tx.cn)
}

// Commit commits the remote transaction. Like embedded Commit, the
// returned error is typed: constraint violations, deadline expiry at
// commit, deadlock — all satisfy the same errors.Is tests. A
// transaction that sent nothing has nothing to commit and costs no
// round trip.
func (tx *Tx) Commit() error {
	if err := tx.err(); err != nil {
		return err
	}
	if tx.beginID != 0 {
		tx.finish()
		return nil
	}
	resp, err := tx.roundTrip(wire.CmdCommit, nil)
	if err != nil {
		tx.finish()
		return err
	}
	// Decode before finish: the frame aliases the connection's read
	// buffer, and releasing the connection lets another goroutine's
	// round trip overwrite it. The RespOK body carries the commit's LSN,
	// then the node's fencing epoch.
	cerr := respErrOnly(resp)
	if cerr == nil {
		d := wire.NewDec(resp.Body)
		tx.lsn, tx.epoch = d.Uvarint(), d.Uvarint()
		if err := d.Err(); err != nil {
			cerr = tx.fail(protoErr("commit: %v", err))
		}
	}
	tx.finish()
	return cerr
}

// CommitLSN returns the log position the transaction committed at
// (valid after a successful Commit; 0 for read-only transactions).
// Replicated.ViewAt accepts it as a freshness floor: a read at this
// LSN observes the commit.
func (tx *Tx) CommitLSN() uint64 { return tx.lsn }

// Epoch returns the server's replication fencing epoch as of this
// transaction's begin (refreshed by a successful Commit). The
// Replicated router compares it against the session's epoch floor to
// refuse a deposed primary. Like ID, it sends the begin if nothing has
// been sent yet.
func (tx *Tx) Epoch() uint64 {
	tx.begin()
	return tx.epoch
}

// AppliedLSN returns the serving node's applied log position as of
// this transaction's begin — the freshness the node can prove for
// every read inside it. Replicated.ViewAt compares it against the
// session's floor so a replica that regressed (wiped and resyncing)
// is skipped rather than trusted on a stale cached position. Like ID,
// it sends the begin if nothing has been sent yet.
func (tx *Tx) AppliedLSN() uint64 {
	tx.begin()
	return tx.applied
}

// Abort aborts the remote transaction; safe to call after failure or
// repeatedly. A transaction that sent nothing ends without a round
// trip.
func (tx *Tx) Abort() {
	if tx.done {
		return
	}
	if tx.beginID == 0 {
		if resp, err := tx.roundTrip(wire.CmdAbort, nil); err == nil {
			_ = respErrOnly(resp)
		}
	}
	tx.finish()
}

// op performs one round trip, returning the response frame or a typed
// error.
func (tx *Tx) op(typ byte, body []byte) (*wire.Frame, error) {
	resp, err := tx.roundTrip(typ, body)
	if err != nil {
		return nil, err
	}
	if err := respErr(resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// PNew creates a persistent object of class c initialized from init,
// returning its new OID.
func (tx *Tx) PNew(c *ode.Class, init *ode.Object) (ode.OID, error) {
	body := wire.AppendString(nil, c.Name)
	body = wire.AppendBytes(body, object.Encode(init))
	resp, err := tx.op(wire.CmdPNew, body)
	if err != nil {
		return ode.NilOID, err
	}
	d := wire.NewDec(resp.Body)
	oid := ode.OID(d.Uvarint())
	if err := d.Err(); err != nil {
		return ode.NilOID, tx.fail(err)
	}
	return oid, nil
}

// Deref reads the current image of oid. With the client cache enabled
// (Options.CacheSize), a deref whose tag this transaction has already
// proven is served locally with no round trip. A cached object from an
// earlier transaction is revalidated with one CmdDerefCached round trip
// that ships no image when the server's copy is unchanged — and that
// carries, in the same frame, the cached objects reachable from it
// (neighbourhood), so the hops that follow are local too.
func (tx *Tx) Deref(oid ode.OID) (*ode.Object, error) {
	cache := tx.c.cache
	if cache == nil {
		resp, err := tx.op(wire.CmdDeref, wire.AppendUvarint(nil, uint64(oid)))
		if err != nil {
			return nil, err
		}
		return tx.decodeObjResp(resp)
	}
	obj, tag, ok := cache.get(oid)
	if !ok {
		resp, err := tx.op(wire.CmdDeref, wire.AppendUvarint(nil, uint64(oid)))
		if err != nil {
			return nil, err
		}
		return tx.fillCache(oid, resp)
	}
	if tx.proven(oid, tag) {
		// The server still holds this transaction's read lock from the
		// round trip that proved the tag: the image cannot have changed.
		// Serve the copy locally.
		tx.c.met.Hits.Inc()
		return obj, nil
	}
	refs := tx.neighbourhood(oid, tag)
	resp, err := tx.op(wire.CmdDerefCached, wire.AppendDerefCached(nil, refs))
	if err != nil {
		return nil, err
	}
	if resp.Type == wire.RespOK {
		// Not modified: the server re-read (and locked) the object and
		// its image still hashes to our tag.
		tx.noteSeen(oid, tag)
		tx.c.met.Hits.Inc()
	} else if obj, err = tx.fillCache(oid, resp); err != nil {
		return nil, err
	}
	if err := tx.settle(resp, refs[1:]); err != nil {
		return nil, err
	}
	return obj, nil
}

// proven reports whether this transaction has proven tag for oid.
func (tx *Tx) proven(oid ode.OID, tag uint64) bool {
	seenTag, ok := tx.seen[oid]
	return ok && seenTag == tag
}

// neighbourhood lists the deref-cached entries for a deref of oid whose
// cached tag this transaction has not proven: oid first, then the
// cached objects reachable from it, breadth first over reference fields
// (a Ref, or a set or array of Refs), up to wire.MaxDerefCached entries
// in all. The walk reads cached images in place (objCache.peek) and
// takes in no oid that is not cached or that the transaction has
// already proven. When oid's own neighbourhood leaves room, the walk
// resumes from tx.frontier — where the bound cut the transaction's
// previous walk short — so a graph larger than one frame is revalidated
// a frame at a time, whatever order the program visits it in. A Client
// caches only its own server's objects, so behind a Sharded router the
// walk ends at the shard boundary.
func (tx *Tx) neighbourhood(oid ode.OID, tag uint64) []wire.CachedRef {
	refs := []wire.CachedRef{{OID: uint64(oid), Tag: tag}}
	// walk expands queue breadth first and returns what the bound left
	// unexpanded (the object it was cut inside included).
	walk := func(queue []ode.OID) []ode.OID {
		for i := 0; i < len(queue); i++ {
			if len(refs) == wire.MaxDerefCached {
				return queue[i:]
			}
			img, _, ok := tx.c.cache.peek(queue[i])
			if !ok {
				continue
			}
			eachRef(img, func(next ode.OID) bool {
				for _, r := range refs {
					if r.OID == uint64(next) {
						return true
					}
				}
				if _, t, ok := tx.c.cache.peek(next); ok && !tx.proven(next, t) {
					refs = append(refs, wire.CachedRef{OID: uint64(next), Tag: t})
					queue = append(queue, next)
				}
				return len(refs) < wire.MaxDerefCached
			})
			if len(refs) == wire.MaxDerefCached {
				return queue[i:]
			}
		}
		return nil
	}
	left := walk([]ode.OID{oid})
	tx.frontier = append(left, walk(tx.frontier)...)
	if len(tx.frontier) > wire.MaxDerefCached {
		tx.frontier = tx.frontier[:wire.MaxDerefCached]
	}
	return refs
}

// eachRef calls fn with every non-nil generic reference in obj's fields
// — a Ref, or a Ref element of a set or array — until fn returns false.
// It only reads obj, which may be a shared cached image.
func eachRef(obj *ode.Object, fn func(ode.OID) bool) {
	for i := 0; i < obj.NumSlots(); i++ {
		v := obj.Slot(i)
		elems := []ode.Value{v}
		switch v.Kind() {
		case ode.KSet:
			elems = v.Set().Elems()
		case ode.KArray:
			elems = v.Array().Elems()
		}
		for _, e := range elems {
			if e.Kind() == ode.KOID && e.OID() != ode.NilOID && !fn(e.OID()) {
				return
			}
		}
	}
}

// settle applies the statuses a deref-cached reply carries after its
// first entry's answer, one per neighbour in refs: a proven neighbour
// joins tx.seen, a modified one refills the cache at its new image and
// joins tx.seen, a skipped one is left for its own deref to revalidate.
func (tx *Tx) settle(resp *wire.Frame, refs []wire.CachedRef) error {
	d := wire.NewDec(resp.Body)
	if resp.Type == wire.RespObject {
		d.Bytes() // the first entry's image, already applied
	}
	for _, r := range refs {
		status := d.Byte()
		var image []byte
		if status == wire.CachedModified {
			image = d.Bytes()
		}
		if d.Err() != nil {
			break
		}
		switch status {
		case wire.CachedProven:
			tx.noteSeen(ode.OID(r.OID), r.Tag)
		case wire.CachedModified:
			if _, err := tx.fill(ode.OID(r.OID), image); err != nil {
				return err
			}
		case wire.CachedSkipped:
		default:
			return tx.fail(protoErr("deref-cached: neighbour status %d", status))
		}
	}
	if err := d.Err(); err != nil || len(d.Rest()) != 0 {
		return tx.fail(protoErr("deref-cached: %d neighbour statuses do not match the reply (%v)", len(refs), err))
	}
	return nil
}

// fillCache decodes a RespObject frame's image into the client cache
// (fill) and returns the decoded object.
func (tx *Tx) fillCache(oid ode.OID, resp *wire.Frame) (*ode.Object, error) {
	if resp.Type != wire.RespObject {
		return nil, tx.fail(protoErr("unexpected response 0x%02x, want object", resp.Type))
	}
	d := wire.NewDec(resp.Body)
	image := d.Bytes()
	if err := d.Err(); err != nil {
		return nil, tx.fail(err)
	}
	obj, err := tx.fill(oid, image)
	if err == nil {
		tx.c.met.Misses.Inc()
	}
	return obj, err
}

// fill decodes image, stores a copy in the client cache tagged
// with the image's content hash, marks that tag proven for this
// transaction, and returns the decoded object.
func (tx *Tx) fill(oid ode.OID, image []byte) (*ode.Object, error) {
	obj, err := object.Decode(tx.c.schema, image)
	if err != nil {
		return nil, err
	}
	tag := object.ImageTag(image)
	tx.c.cache.put(oid, obj.Copy(), tag)
	tx.noteSeen(oid, tag)
	return obj, nil
}

func (tx *Tx) noteSeen(oid ode.OID, tag uint64) {
	if tx.seen == nil {
		tx.seen = make(map[ode.OID]uint64, 8)
	}
	tx.seen[oid] = tag
}

// invalidate drops oid from the client cache and from this
// transaction's proven set: the caller is about to change (or has
// changed) the server-side image, so the next deref must go back to
// the server. A concurrent fill racing this drop can reinstate a stale
// entry; its stale tag fails the next revalidation, so the race costs
// a round trip, never correctness.
func (tx *Tx) invalidate(oid ode.OID) {
	if tx.c.cache == nil {
		return
	}
	if tx.c.cache.Delete(oid) {
		tx.c.met.Invalidations.Inc()
	}
	delete(tx.seen, oid)
}

// Update replaces the image of oid.
func (tx *Tx) Update(oid ode.OID, o *ode.Object) error {
	tx.invalidate(oid)
	body := wire.AppendUvarint(nil, uint64(oid))
	body = wire.AppendBytes(body, object.Encode(o))
	resp, err := tx.op(wire.CmdUpdate, body)
	if err != nil {
		return err
	}
	return respErrOnly(resp)
}

// PDelete deletes oid.
func (tx *Tx) PDelete(oid ode.OID) error {
	tx.invalidate(oid)
	resp, err := tx.op(wire.CmdPDelete, wire.AppendUvarint(nil, uint64(oid)))
	if err != nil {
		return err
	}
	return respErrOnly(resp)
}

// CurrentVersion returns the newest frozen version number of oid.
func (tx *Tx) CurrentVersion(oid ode.OID) (uint32, error) {
	resp, err := tx.op(wire.CmdCurrentVersion, wire.AppendUvarint(nil, uint64(oid)))
	if err != nil {
		return 0, err
	}
	return tx.decodeVersionResp(resp)
}

// NewVersion freezes the current image of oid as a new version.
func (tx *Tx) NewVersion(oid ode.OID) (ode.VRef, error) {
	resp, err := tx.op(wire.CmdNewVersion, wire.AppendUvarint(nil, uint64(oid)))
	if err != nil {
		return ode.VRef{}, err
	}
	v, err := tx.decodeVersionResp(resp)
	if err != nil {
		return ode.VRef{}, err
	}
	return ode.VRef{OID: oid, Version: v}, nil
}

// Versions lists the frozen version numbers of oid.
func (tx *Tx) Versions(oid ode.OID) ([]uint32, error) {
	resp, err := tx.op(wire.CmdVersions, wire.AppendUvarint(nil, uint64(oid)))
	if err != nil {
		return nil, err
	}
	if resp.Type != wire.RespVersions {
		return nil, tx.fail(protoErr("versions: unexpected response 0x%02x", resp.Type))
	}
	d := wire.NewDec(resp.Body)
	n := d.Uvarint()
	out := make([]uint32, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, uint32(d.Uvarint()))
	}
	if err := d.Err(); err != nil {
		return nil, tx.fail(err)
	}
	return out, nil
}

// DerefVersion reads a frozen version image.
func (tx *Tx) DerefVersion(ref ode.VRef) (*ode.Object, error) {
	body := wire.AppendUvarint(nil, uint64(ref.OID))
	body = wire.AppendUvarint(body, uint64(ref.Version))
	resp, err := tx.op(wire.CmdDerefVersion, body)
	if err != nil {
		return nil, err
	}
	return tx.decodeObjResp(resp)
}

// DeleteVersion deletes one frozen version.
func (tx *Tx) DeleteVersion(ref ode.VRef) error {
	body := wire.AppendUvarint(nil, uint64(ref.OID))
	body = wire.AppendUvarint(body, uint64(ref.Version))
	resp, err := tx.op(wire.CmdDeleteVersion, body)
	if err != nil {
		return err
	}
	return respErrOnly(resp)
}

func (tx *Tx) decodeObjResp(resp *wire.Frame) (*ode.Object, error) {
	if resp.Type != wire.RespObject {
		return nil, tx.fail(protoErr("unexpected response 0x%02x, want object", resp.Type))
	}
	d := wire.NewDec(resp.Body)
	image := d.Bytes()
	if err := d.Err(); err != nil {
		return nil, tx.fail(err)
	}
	return object.Decode(tx.c.schema, image)
}

func (tx *Tx) decodeVersionResp(resp *wire.Frame) (uint32, error) {
	if resp.Type != wire.RespVersion {
		return 0, tx.fail(protoErr("unexpected response 0x%02x, want version", resp.Type))
	}
	d := wire.NewDec(resp.Body)
	v := uint32(d.Uvarint())
	if err := d.Err(); err != nil {
		return 0, tx.fail(err)
	}
	return v, nil
}
