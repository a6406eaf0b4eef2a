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

// Forall streams the scan's rows through fn in OID order and returns
// how many it delivered. The server sends them a window at a time (64
// rows, then 8× as many per window up to 8 192 rows or 1 MiB of them)
// and scans no further
// until asked: fn runs over each window as it arrives, and the next one
// is asked for — one round trip — only if fn has neither stopped nor
// failed. A stopped scan so costs the windows it was sent; the
// transaction's next request ends it on the server. An error frame ends
// the scan with that typed error. fn must not use the transaction: a
// request sent from inside fn ends the scan too, and Forall then fails
// with a protocol error at the window's end.
func (tx *Tx) Forall(s *Scan, fn func(oid ode.OID, obj *ode.Object) (bool, error)) (int, error) {
	if err := tx.err(); err != nil {
		return 0, err
	}
	id := tx.cn.newID()
	typ, body := byte(wire.CmdForall), scanReq(s, 0)
	total := 0
	for {
		resp, err := tx.request(id, typ, body)
		if err == nil {
			err = respErr(resp)
		}
		if err != nil {
			return total, err
		}
		last := resp.Type == wire.RespDone
		if !last && resp.Type != wire.RespBatch {
			tx.cn.broken = true
			return total, protoErr("forall: unexpected response 0x%02x", resp.Type)
		}
		// A copy: the frame aliases the connection's read buffer, which a
		// request sent from fn would overwrite.
		d := wire.NewDec(append([]byte(nil), resp.Body...))
		if last {
			d.Uvarint() // the scan's total
		}
		for n := d.Uvarint(); n > 0 && d.Err() == nil; n-- {
			oid := ode.OID(d.Uvarint())
			image := d.Bytes()
			if d.Err() != nil {
				break
			}
			obj, err := object.Decode(tx.c.schema, image)
			if err != nil {
				return total, err
			}
			total++
			if more, err := fn(oid, obj); err != nil || !more {
				return total, err
			}
		}
		if err := d.Err(); err != nil {
			tx.cn.broken = true
			return total, err
		}
		if last {
			return total, nil
		}
		typ, body = wire.CmdForallMore, nil
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
func (tx *Tx) Count(s *Scan) (int, error) {
	resp, err := tx.op(wire.CmdForall, scanReq(s, wire.ForallCount))
	if err != nil {
		return 0, err
	}
	d := wire.NewDec(resp.Body)
	n := d.Uvarint()
	if err := d.Err(); err != nil || resp.Type != wire.RespDone {
		tx.cn.broken = true
		return 0, protoErr("count: response 0x%02x (%v)", resp.Type, err)
	}
	return int(n), nil
}

// Explain returns the access-path plan the server would use for the
// scan, without running it — the remote twin of ode.Explain.
func (tx *Tx) Explain(s *Scan) (string, error) {
	resp, err := tx.op(wire.CmdExplain, scanReq(s, 0))
	if err != nil {
		return "", err
	}
	return textResp(tx.cn, resp)
}

// textResp decodes a RespText frame.
func textResp(cn *wconn, resp *wire.Frame) (string, error) {
	if resp.Type != wire.RespText {
		cn.broken = true
		return "", protoErr("unexpected response 0x%02x, want text", resp.Type)
	}
	d := wire.NewDec(resp.Body)
	s := d.String()
	if err := d.Err(); err != nil {
		cn.broken = true
		return "", err
	}
	return s, nil
}
