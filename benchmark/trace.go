package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"ode"
)

// op is one call into the top layer of a shape.
type op uint8

const (
	opBegin op = iota
	opCommit
	opAbort
	opDeref
	opUpdate
	opPNew
	opPDelete
	opNewVersion
	opDerefVersion
	opDeleteVersion
	opScan
	opBatch
	numOps
)

var opNames = [numOps]string{
	"begin", "commit", "abort", "deref", "update", "pnew", "pdelete",
	"newversion", "derefversion", "deleteversion", "scan", "batch",
}

// span is one timed interval: a unit transaction (parent 0) or one call
// made inside it. Times are nanoseconds since the trace began.
type span struct {
	id, parent uint32
	kind       kind
	op         op // numOps for the unit's own span
	start, end int64
}

// maxSpans bounds the spans one worker keeps for the trace file. Every
// span is timed and totalled whether or not it is kept, so the totals
// and the tracing overhead cover the whole window.
const maxSpans = 50_000

// total is a count and a summed duration.
type total struct{ n, ns int64 }

func (t total) meanUS() float64 { return ratio(float64(t.ns), float64(t.n)) / 1e3 }

// workerTrace records the spans of one worker. Only that worker touches
// it while the window runs.
type workerTrace struct {
	origin  time.Time
	spans   []span
	nextID  uint32
	unit    uint32 // span id of the unit in progress
	kind    kind
	started int64
	child   int64 // time the unit in progress has spent inside calls

	calls [numKinds][numOps]total // by the kind of unit that made the call
	units [numKinds]total
	self  [numKinds]int64 // unit time outside any call: the benchmark's own work
}

func newWorkerTrace(origin time.Time) *workerTrace {
	return &workerTrace{origin: origin, spans: make([]span, 0, maxSpans)}
}

func (t *workerTrace) keep(s span) {
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	}
}

func (t *workerTrace) startUnit(k kind) {
	t.nextID++
	t.unit, t.kind, t.child = t.nextID, k, 0
	t.started = int64(time.Since(t.origin))
}

func (t *workerTrace) endUnit() {
	end := int64(time.Since(t.origin))
	d := end - t.started
	t.units[t.kind].n++
	t.units[t.kind].ns += d
	t.self[t.kind] += d - t.child
	t.keep(span{id: t.unit, kind: t.kind, op: numOps, start: t.started, end: end})
}

// call closes the span of an o call that began at start.
func (t *workerTrace) call(o op, start time.Time) {
	s, e := int64(start.Sub(t.origin)), int64(time.Since(t.origin))
	t.nextID++
	c := &t.calls[t.kind][o]
	c.n++
	c.ns += e - s
	t.child += e - s
	t.keep(span{id: t.nextID, parent: t.unit, kind: t.kind, op: o, start: s, end: e})
}

// begin starts a transaction on st, inside a span when t is not nil.
func (t *workerTrace) begin(st store) (opTx, error) {
	if t == nil {
		return st.begin()
	}
	start := time.Now()
	tx, err := st.begin()
	t.call(opBegin, start)
	if err != nil {
		return nil, err
	}
	return tracedTx{tx, t}, nil
}

// tracedTx puts a span around every call into the transaction.
type tracedTx struct {
	tx opTx
	t  *workerTrace
}

func (x tracedTx) PNew(c *ode.Class, o *ode.Object) (ode.OID, error) {
	defer x.t.call(opPNew, time.Now())
	return x.tx.PNew(c, o)
}

func (x tracedTx) Deref(oid ode.OID) (*ode.Object, error) {
	defer x.t.call(opDeref, time.Now())
	return x.tx.Deref(oid)
}

func (x tracedTx) Update(oid ode.OID, o *ode.Object) error {
	defer x.t.call(opUpdate, time.Now())
	return x.tx.Update(oid, o)
}

func (x tracedTx) PDelete(oid ode.OID) error {
	defer x.t.call(opPDelete, time.Now())
	return x.tx.PDelete(oid)
}

func (x tracedTx) NewVersion(oid ode.OID) (ode.VRef, error) {
	defer x.t.call(opNewVersion, time.Now())
	return x.tx.NewVersion(oid)
}

func (x tracedTx) DerefVersion(r ode.VRef) (*ode.Object, error) {
	defer x.t.call(opDerefVersion, time.Now())
	return x.tx.DerefVersion(r)
}

func (x tracedTx) DeleteVersion(r ode.VRef) error {
	defer x.t.call(opDeleteVersion, time.Now())
	return x.tx.DeleteVersion(r)
}

func (x tracedTx) scan(c *ode.Class, r scanReq, fn func(ode.OID, *ode.Object)) (int, error) {
	defer x.t.call(opScan, time.Now())
	return x.tx.scan(c, r, fn)
}

func (x tracedTx) batch(c *ode.Class, news []*ode.Object, dels []ode.OID) ([]ode.OID, error) {
	defer x.t.call(opBatch, time.Now())
	return x.tx.batch(c, news, dels)
}

func (x tracedTx) commit() error {
	defer x.t.call(opCommit, time.Now())
	return x.tx.commit()
}

func (x tracedTx) abort() {
	defer x.t.call(opAbort, time.Now())
	x.tx.abort()
}

// traceTotals is the traced window's spans, summed over workers.
type traceTotals struct {
	calls [numKinds][numOps]total
	units [numKinds]total
	self  [numKinds]int64
}

func sumTraces(ts []*workerTrace) *traceTotals {
	out := &traceTotals{}
	for _, t := range ts {
		for k := range t.calls {
			for o := range t.calls[k] {
				out.calls[k][o].n += t.calls[k][o].n
				out.calls[k][o].ns += t.calls[k][o].ns
			}
			out.units[k].n += t.units[k].n
			out.units[k].ns += t.units[k].ns
			out.self[k] += t.self[k]
		}
	}
	return out
}

// op totals an op over every kind of unit.
func (tt *traceTotals) op(o op) total {
	var out total
	for k := range tt.calls {
		out.n += tt.calls[k][o].n
		out.ns += tt.calls[k][o].ns
	}
	return out
}

// jsonSpan is a span as the trace file spells it.
type jsonSpan struct {
	ID      uint32 `json:"id"`
	Parent  uint32 `json:"parent,omitempty"`
	Worker  int    `json:"worker"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// writeTrace writes the kept spans to path. Span ids are unique per
// worker; a call's unit is its parent.
func writeTrace(path, layer string, ts []*workerTrace) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var out []jsonSpan
	for w, t := range ts {
		for _, s := range t.spans {
			name := "unit." + kindNames[s.kind]
			if s.op != numOps {
				name = layer + "." + opNames[s.op]
			}
			out = append(out, jsonSpan{s.id, s.parent, w, name, s.start, s.end})
		}
	}
	if err := json.NewEncoder(f).Encode(out); err != nil {
		return err
	}
	return f.Close()
}
