package client

import (
	"ode"
	"ode/internal/object"
	"ode/internal/wire"
)

// Scan and its comparison operators are declared once, beside
// ode.ObjectTx; these aliases keep the names this package has always
// exported.
type (
	Scan = ode.Scan
	Cmp  = ode.CmpOp
)

// Comparison operators.
const (
	CmpEq = ode.CmpEq
	CmpNe = ode.CmpNe
	CmpLt = ode.CmpLt
	CmpLe = ode.CmpLe
	CmpGt = ode.CmpGt
	CmpGe = ode.CmpGe
)

// The router and the direct transaction are the object API as they
// stand: no adapter sits between a workload and the wire.
var (
	_ ode.ObjectTx = (*Tx)(nil)
	_ ode.ObjectTx = (*STx)(nil)
)

// scanReq encodes s as the forall/explain request body, with flags
// added to the ones s implies.
func scanReq(s *Scan, flags byte) []byte {
	r := wire.ForallReq{Class: s.Class.Name, Flags: flags, Field: s.Field, Op: byte(s.Op)}
	if s.Subtypes {
		r.Flags |= wire.ForallSubtypes
	}
	if s.NoIndex {
		r.Flags |= wire.ForallNoIndex
	}
	if s.Field != "" {
		r.Value = object.EncodeValue(s.Value)
	}
	return r.Append(nil)
}

// Forall streams the scan's rows through fn and returns how many it
// delivered: in OID order on an extent path (class by class when the
// scan takes subtypes), and on an index path the transaction's own
// writes first, then the rest in key order. The server sends them a
// window at a time (64 rows, then 8× as many per window up to 8 192
// rows or 1 MiB of them) and scans no further until asked: fn runs
// over each window as it arrives, and the next one is asked for — one
// round trip — only when fn has gone past the window's last row. A
// stopped scan so costs the windows it was sent; the transaction's next
// request ends it on the server. An error frame ends the scan with that
// typed error. fn must not use the transaction: a request sent from
// inside fn ends the scan too, and Forall then fails with a protocol
// error at the window's end.
func (tx *Tx) Forall(s *Scan, fn func(oid ode.OID, obj *ode.Object) (bool, error)) (int, error) {
	return merge([]*cursor{tx.scan(s)}, nil, fn)
}

// cursor is one forall's rows on one transaction, read a window at a
// time. Opening it posts the scan's request and reads nothing; next
// reads a window when it is asked for the window's first row, and asks
// for the next window only when it is asked for a row past the last.
type cursor struct {
	tx    *Tx
	id    uint64    // the scan's request id, which every window answers
	asked bool      // a window has been asked for and not read
	last  bool      // the window read last is the scan's final one
	d     *wire.Dec // that window's rows not yet handed out: n of them
	n     uint64
	err   error // what ended the scan early
}

// scan opens a cursor over the scan's rows.
func (tx *Tx) scan(s *Scan) *cursor {
	c := &cursor{tx: tx}
	c.id, c.err = tx.ask(wire.CmdForall, scanReq(s, 0))
	c.asked = c.err == nil
	return c
}

// next hands out the scan's next row, a copy of the client cache's
// object when the cache holds the row's image (Client.rowObject). ok is
// false at the scan's end and once it has failed (c.err).
func (c *cursor) next() (oid ode.OID, obj *ode.Object, ok bool) {
	for c.n == 0 {
		switch {
		case c.err != nil, !c.asked && c.last:
			return ode.NilOID, nil, false
		case c.asked:
			c.read()
		default:
			c.err = c.tx.post(wire.AppendFrame(nil, &wire.Frame{ReqID: c.id, Type: wire.CmdForallMore}))
			c.asked = c.err == nil
		}
	}
	c.n--
	oid = ode.OID(c.d.Uvarint())
	image := c.d.Bytes()
	if err := c.d.Err(); err != nil {
		c.err = c.tx.fail(err)
		return ode.NilOID, nil, false
	}
	if obj, c.err = c.tx.c.rowObject(oid, image); c.err != nil {
		return ode.NilOID, nil, false
	}
	return oid, obj, true
}

// read reads the window asked for.
func (c *cursor) read() {
	c.asked = false
	resp, err := c.tx.reply(c.id)
	if err == nil {
		err = respErr(resp)
	}
	if c.err = err; err != nil {
		return
	}
	c.last = resp.Type == wire.RespDone
	if !c.last && resp.Type != wire.RespBatch {
		c.err = c.tx.fail(protoErr("forall: unexpected response 0x%02x", resp.Type))
		return
	}
	// A copy: the frame aliases the connection's read buffer, which a
	// request sent from fn would overwrite.
	c.d = wire.NewDec(append([]byte(nil), resp.Body...))
	if c.last {
		c.d.Uvarint() // the scan's total
	}
	c.n = c.d.Uvarint()
	if err := c.d.Err(); err != nil {
		c.err = c.tx.fail(err)
	}
}

// merge hands the rows of cursors through fn in (class rank, OID)
// order and returns how many it delivered: a k-way merge of streams in
// that order that holds one row of each, so each cursor is asked only
// for the windows the merge reaches. rank places a row's class, by
// name, in the order a server streams a subtype scan's classes
// (Schema.Hierarchy); nil ranks every class alike. It reads every
// cursor's first window before it delivers a row, so the cursors'
// first requests, posted when they opened, are all in flight at once.
// Over one cursor it is Tx.Forall. fn returning false stops the merge
// and an error ends it with that error. A cursor's failure ends it
// too; when several cursors fail together, the lowest index's error is
// reported.
func merge(cs []*cursor, rank map[string]int, fn func(oid ode.OID, obj *ode.Object) (bool, error)) (int, error) {
	type head struct {
		rank int
		oid  ode.OID
		obj  *ode.Object
		ok   bool
	}
	heads := make([]head, len(cs))
	pull := func(i int) {
		h := &heads[i]
		if h.oid, h.obj, h.ok = cs[i].next(); h.ok {
			h.rank = rank[h.obj.Class().Name]
		}
	}
	for i := range cs {
		pull(i)
	}
	for _, c := range cs {
		if c.err != nil {
			return 0, c.err
		}
	}
	total := 0
	for {
		// Shards hold disjoint OID residues, so there are never ties.
		best := -1
		for i, h := range heads {
			if h.ok && (best < 0 || h.rank < heads[best].rank ||
				h.rank == heads[best].rank && h.oid < heads[best].oid) {
				best = i
			}
		}
		if best < 0 {
			return total, nil
		}
		total++
		if more, err := fn(heads[best].oid, heads[best].obj); err != nil || !more {
			return total, err
		}
		if pull(best); cs[best].err != nil {
			return total, cs[best].err
		}
	}
}

// Collect runs the scan and returns every row.
func (tx *Tx) Collect(s *Scan) ([]ode.OID, []*ode.Object, error) {
	var oids []ode.OID
	var objs []*ode.Object
	_, err := tx.Forall(s, func(oid ode.OID, obj *ode.Object) (bool, error) {
		oids = append(oids, oid)
		objs = append(objs, obj)
		return true, nil
	})
	return oids, objs, err
}

// Count runs the scan on the server, which answers with the number of
// rows and ships none of them.
func (tx *Tx) Count(s *Scan) (int, error) { return count([]*Tx{tx}, s) }

// count asks each transaction's server for the scan's count, every
// request sent before any reply is read, and returns the sum. When
// several fail, the lowest index's error is reported.
func count(txs []*Tx, s *Scan) (int, error) {
	total := 0
	var first error
	exchange(txs, wire.CmdForall, scanReq(s, wire.ForallCount), func(k int, resp *wire.Frame, err error) {
		if err == nil {
			err = respErr(resp)
		}
		if err == nil {
			d := wire.NewDec(resp.Body)
			total += int(d.Uvarint())
			if derr := d.Err(); derr != nil || resp.Type != wire.RespDone {
				err = txs[k].fail(protoErr("count: response 0x%02x (%v)", resp.Type, derr))
			}
		}
		if first == nil {
			first = err
		}
	})
	if first != nil {
		return 0, first
	}
	return total, nil
}

// Explain returns the access-path plan the server would use for the
// scan, without running it — the remote twin of ode.Explain.
func (tx *Tx) Explain(s *Scan) (string, error) {
	resp, err := tx.op(wire.CmdExplain, scanReq(s, 0))
	if err != nil {
		return "", err
	}
	if resp.Type != wire.RespText {
		return "", tx.fail(protoErr("unexpected response 0x%02x, want text", resp.Type))
	}
	d := wire.NewDec(resp.Body)
	text := d.String()
	if err := d.Err(); err != nil {
		return "", tx.fail(err)
	}
	return text, nil
}
