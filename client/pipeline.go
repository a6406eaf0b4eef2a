package client

import (
	"ode"
	"ode/internal/object"
	"ode/internal/wire"
)

// Pipeline batches operations into one network round trip: queue
// operations, then Flush writes every request frame in a single send
// (behind the transaction's begin, when it is the first) and reads the
// responses in order. Each queued operation returns a
// future resolved by Flush. Results within a batch are independent —
// one operation's typed failure (say, a constraint pre-check) does not
// stop the rest; each future carries its own outcome.
//
//	p := tx.Pipeline()
//	a := p.PNew(item, objA)
//	b := p.PNew(item, objB)
//	if err := p.Flush(); err != nil { ... } // connection-level failure
//	oidA, errA := a.OID()
type Pipeline struct {
	tx   *Tx
	buf  []byte
	pend []*Future
}

// Pipeline starts an empty batch on the transaction.
func (tx *Tx) Pipeline() *Pipeline { return &Pipeline{tx: tx} }

// Future is the pending result of one pipelined operation.
type Future struct {
	reqID uint64
	want  byte // expected success response type
	err   error
	oid   ode.OID
	obj   *ode.Object
	image []byte
}

// Err returns the operation's error (nil until Flush resolves it).
func (f *Future) Err() error { return f.err }

// OID returns a pipelined PNew's result.
func (f *Future) OID() (ode.OID, error) {
	if f.err != nil {
		return ode.NilOID, f.err
	}
	return f.oid, nil
}

// Object decodes a pipelined Deref's result against schema s.
func (f *Future) Object(s *ode.Schema) (*ode.Object, error) {
	if f.err != nil {
		return nil, f.err
	}
	if f.obj == nil {
		f.obj, f.err = object.Decode(s, f.image)
	}
	return f.obj, f.err
}

// enqueue appends one request frame and its future. Once the
// transaction is done its connection belongs to the pool (and possibly
// a new owner), so a late enqueue must not touch it: the future carries
// ErrTxDone (or the begin's refusal) and nothing is queued.
func (p *Pipeline) enqueue(typ, want byte, body []byte) *Future {
	if err := p.tx.err(); err != nil {
		return &Future{err: err}
	}
	f := &Future{reqID: p.tx.cn.newID(), want: want}
	p.buf = wire.AppendFrame(p.buf, &wire.Frame{ReqID: f.reqID, Type: typ, Body: body})
	p.pend = append(p.pend, f)
	return f
}

// PNew queues an object creation.
func (p *Pipeline) PNew(c *ode.Class, init *ode.Object) *Future {
	body := wire.AppendString(nil, c.Name)
	body = wire.AppendBytes(body, object.Encode(init))
	return p.enqueue(wire.CmdPNew, wire.RespOID, body)
}

// Update queues an image replacement. The cached object (if any) is
// invalidated at enqueue time — conservative when the operation later
// fails, but a spurious invalidation only costs a refetch.
func (p *Pipeline) Update(oid ode.OID, o *ode.Object) *Future {
	p.tx.invalidate(oid)
	body := wire.AppendUvarint(nil, uint64(oid))
	body = wire.AppendBytes(body, object.Encode(o))
	return p.enqueue(wire.CmdUpdate, wire.RespOK, body)
}

// PDelete queues a deletion; invalidates like Update.
func (p *Pipeline) PDelete(oid ode.OID) *Future {
	p.tx.invalidate(oid)
	return p.enqueue(wire.CmdPDelete, wire.RespOK, wire.AppendUvarint(nil, uint64(oid)))
}

// Deref queues a read; resolve with Future.Object.
func (p *Pipeline) Deref(oid ode.OID) *Future {
	return p.enqueue(wire.CmdDeref, wire.RespObject, wire.AppendUvarint(nil, uint64(oid)))
}

// Len reports the number of queued operations.
func (p *Pipeline) Len() int { return len(p.pend) }

// Flush sends the batch and resolves every future. The returned error
// is connection-level (socket failure, protocol violation); per-
// operation failures live in the futures. The pipeline is reset and
// reusable after Flush.
func (p *Pipeline) Flush() error {
	if len(p.pend) == 0 {
		return nil
	}
	tx := p.tx
	cn := tx.cn
	buf, pend := p.buf, p.pend
	p.buf, p.pend = nil, nil
	err := tx.send(buf, func() error {
		for _, f := range pend {
			resp, err := cn.recv(f.reqID)
			if err != nil {
				return err
			}
			switch {
			case resp.Type == wire.RespErr:
				f.err = wire.DecodeErrBody(resp.Body)
			case resp.Type != f.want:
				cn.broken = true
				return protoErr("pipeline: response 0x%02x, want 0x%02x", resp.Type, f.want)
			default:
				f.resolve(resp)
			}
		}
		return nil
	})
	if tx.failed != nil {
		// The batch rode the begin the server refused: that refusal is
		// every operation's outcome.
		for _, f := range pend {
			f.err = tx.failed
		}
	}
	return err
}

// resolve decodes a success response into the future.
func (f *Future) resolve(resp *wire.Frame) {
	d := wire.NewDec(resp.Body)
	switch f.want {
	case wire.RespOID:
		f.oid = ode.OID(d.Uvarint())
	case wire.RespObject:
		f.image = append([]byte(nil), d.Bytes()...)
	}
	f.err = d.Err()
}
