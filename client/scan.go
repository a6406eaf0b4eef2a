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

// scanReq encodes s as the forall/explain request body.
func scanReq(s *Scan, withBatch bool) []byte {
	r := wire.ForallReq{Class: s.Class.Name, Field: s.Field, Op: byte(s.Op)}
	if s.Subtypes {
		r.Flags |= wire.ForallSubtypes
	}
	if s.NoIndex {
		r.Flags |= wire.ForallNoIndex
	}
	if s.Field != "" {
		r.Value = object.EncodeValue(s.Value)
	}
	if s.Batch > 0 {
		r.Batch = uint64(s.Batch)
	}
	return r.Append(nil, withBatch)
}

// Forall streams the scan's results through fn in OID order, returning
// the row count. Results arrive in batches (RespBatch frames) and fn
// runs as they arrive; returning false stops consumption client-side
// (the remaining stream is drained). An error frame mid-stream ends
// the scan with that typed error.
func (tx *Tx) Forall(s *Scan, fn func(oid ode.OID, obj *ode.Object) (bool, error)) (int, error) {
	if err := tx.err(); err != nil {
		return 0, err
	}
	cn := tx.cn
	id := cn.newID()
	buf := wire.AppendFrame(nil, &wire.Frame{ReqID: id, Type: wire.CmdForall, Body: scanReq(s, true)})

	total := 0
	var scanErr error
	stop := false
	err := tx.send(buf, func() error {
		for {
			f, err := cn.recv(id)
			if err != nil {
				return err
			}
			switch f.Type {
			case wire.RespBatch:
				d := wire.NewDec(f.Body)
				n := d.Uvarint()
				for i := uint64(0); i < n; i++ {
					oid := ode.OID(d.Uvarint())
					image := d.Bytes()
					if d.Err() != nil {
						break
					}
					if stop || scanErr != nil {
						continue // draining
					}
					obj, err := object.Decode(tx.c.schema, image)
					if err != nil {
						scanErr = err
						continue
					}
					total++
					more, err := fn(oid, obj)
					if err != nil {
						scanErr = err
					} else if !more {
						stop = true
					}
				}
				if err := d.Err(); err != nil {
					cn.broken = true
					return err
				}
			case wire.RespDone:
				return nil
			case wire.RespErr:
				if scanErr == nil {
					scanErr = wire.DecodeErrBody(f.Body)
				}
				return nil // the error frame ends the stream
			default:
				cn.broken = true
				return protoErr("forall: unexpected response 0x%02x", f.Type)
			}
		}
	})
	if err != nil {
		return total, err
	}
	return total, scanErr
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

// Count runs the scan discarding rows.
func (tx *Tx) Count(s *Scan) (int, error) {
	return tx.Forall(s, func(ode.OID, *ode.Object) (bool, error) { return true, nil })
}

// Explain returns the access-path plan the server would use for the
// scan, without running it — the remote twin of ode.Explain.
func (tx *Tx) Explain(s *Scan) (string, error) {
	resp, err := tx.op(wire.CmdExplain, scanReq(s, false))
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
