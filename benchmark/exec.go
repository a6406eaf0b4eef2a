package main

import (
	"errors"
	"fmt"
	"math"

	"ode"
)

// errMismatch marks a unit whose transaction ran but returned something
// the model says is wrong. It is never retried.
var errMismatch = errors.New("result does not match the model")

func mismatch(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errMismatch, fmt.Sprintf(format, args...))
}

// frozenVersion is a version a kVersion unit froze and a later one will
// read back and drop.
type frozenVersion struct {
	ref   ode.VRef
	price float64 // the item's price when it was frozen
}

// worker is one closed-loop client: its generator, the items it alone
// writes, and what it has created so far.
type worker struct {
	id  int
	wl  *workload
	w   *world
	sc  *schema
	st  store
	gen *generator
	tr  *workerTrace // nil outside a traced window

	upd  []int // items whose price this worker updates and freezes
	trig []int // trigger-armed items this worker decrements
	xfer []int // items kTransfer moves qty between (all workers share them when wl.shared > 0)

	batches  [][]ode.OID // kNew's batches, oldest first
	prev     []ode.OID   // kNewBatch's last batch
	versions [versionSlots]*frozenVersion
	created  int // items created so far: names them

	attempted int64
	failed    int64 // units that failed after retries, or mismatched
	firstErr  error
	retries   int64
	userBytes int64 // payload bytes written
	liveBytes int64 // payload bytes created minus deleted
}

// newWorker splits the items into the pools the workload's kinds draw
// from. Item i belongs to worker i % clients, except the first wl.shared.
func newWorker(id int, wl *workload, w *world, sc *schema, st store, seed int64) *worker {
	k := &worker{id: id, wl: wl, w: w, sc: sc, st: st}
	n := len(w.stock)
	for i := wl.shared; i < n; i++ {
		if i%clients != id {
			continue
		}
		switch {
		case len(k.trig) < wl.armedPer:
			k.trig = append(k.trig, i)
		case i >= n/4 && len(k.xfer) < wl.xferPer:
			// Between the quarter and the half of the qty range: scans
			// bound qty near the ends, so no transfer moves a row across
			// a bound.
			k.xfer = append(k.xfer, i)
		default:
			k.upd = append(k.upd, i)
		}
	}
	for i := 0; i < wl.shared; i++ {
		k.xfer = append(k.xfer, i)
	}
	k.gen = newGenerator(seed, id, wl.mix)
	return k
}

// run executes one unit and accounts for it.
func (k *worker) run(u unit) {
	k.attempted++
	if k.tr != nil {
		k.tr.startUnit(u.kind)
		defer k.tr.endUnit()
	}
	var done func() // model changes, applied once the unit has committed
	retries, err := runUnit(k.st, u.kind.isWrite(), k.tr, func(tx opTx) error {
		var err error
		done, err = k.exec(tx, u)
		return err
	})
	k.retries += int64(retries)
	if err != nil {
		k.failed++
		if k.firstErr == nil {
			k.firstErr = fmt.Errorf("worker %d, %s unit: %w", k.id, kindNames[u.kind], err)
		}
		return
	}
	if done != nil {
		done()
	}
}

// checkItem verifies the part of item i that no worker ever changes.
func (k *worker) checkItem(i int, o *ode.Object) error {
	if got := o.MustGet("threshold").Int(); got != threshold(i) {
		return mismatch("item %d threshold %d, want %d", i, got, threshold(i))
	}
	return nil
}

func (k *worker) newItem(qty int64, p *picker) *ode.Object {
	name := itemName(1_000_000*(k.id+1)+k.created, k.w.data.namePad)
	k.created++
	return newStockObject(k.sc.stock, name, float64(p.intn(100000))/100, qty, 1)
}

// exec runs unit u inside tx. It may run more than once (retries), so
// everything it changes outside the database goes into the returned
// function.
func (k *worker) exec(tx opTx, u unit) (done func(), err error) {
	w, p := k.w, picker(u.seed)
	n, itemBytes := len(w.stock), w.itemBytes
	switch u.kind {
	case kWalk:
		start := u.a % (len(w.cells) - walkHops)
		oid := w.cells[start]
		for i := 0; i < walkHops; i++ {
			o, err := tx.Deref(oid)
			if err != nil {
				return nil, err
			}
			if v := o.MustGet("value").Int(); v != int64(start+i) {
				return nil, mismatch("cell %d holds %d", start+i, v)
			}
			oid, _ = o.MustGet("next").AnyOID()
		}

	case kBatch, kPoints:
		derefs, skewed := batchDerefs, true
		if u.kind == kPoints {
			derefs, skewed = pointDerefs, k.wl.skewed
		}
		for j := 0; j < derefs; j++ {
			i := p.intn(n)
			if skewed && p.intn(100) < 80 {
				i = w.hot[p.intn(len(w.hot))]
			}
			o, err := tx.Deref(w.stock[i])
			if err != nil {
				return nil, err
			}
			if err := k.checkItem(i, o); err != nil {
				return nil, err
			}
		}

	case kBOM:
		seen := map[ode.OID]bool{w.root: true}
		stack := []ode.OID{w.root}
		for len(stack) > 0 {
			oid := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			o, err := tx.Deref(oid)
			if err != nil {
				return nil, err
			}
			for _, v := range o.MustGet("subparts").Set().Elems() {
				if kid, ok := v.AnyOID(); ok && !seen[kid] {
					seen[kid] = true
					stack = append(stack, kid)
				}
			}
		}
		if len(seen) != w.reach {
			return nil, mismatch("BOM closure visited %d parts, want %d", len(seen), w.reach)
		}

	case kUpdate:
		i, price := k.upd[u.a%len(k.upd)], float64(p.intn(100000))/100
		o, err := tx.Deref(w.stock[i])
		if err != nil {
			return nil, err
		}
		if got := o.MustGet("price").Float(); got != w.price[i] {
			return nil, mismatch("item %d price %v, want %v", i, got, w.price[i])
		}
		o.MustSet("price", ode.Float(price))
		if err := tx.Update(w.stock[i], o); err != nil {
			return nil, err
		}
		return func() {
			w.price[i] = price
			k.userBytes += itemBytes
		}, nil

	case kNew:
		oids := make([]ode.OID, 0, batchObjects)
		for j := 0; j < batchObjects; j++ {
			oid, err := tx.PNew(k.sc.stock, k.newItem(int64(p.intn(n)), &p))
			if err != nil {
				return nil, err
			}
			oids = append(oids, oid)
		}
		return func() {
			k.batches = append(k.batches, oids)
			k.userBytes += batchObjects * itemBytes
			k.liveBytes += batchObjects * itemBytes
		}, nil

	case kDelete:
		if len(k.batches) == 0 {
			return nil, mismatch("no batch left to delete")
		}
		for _, oid := range k.batches[0] {
			if err := tx.PDelete(oid); err != nil {
				return nil, err
			}
		}
		return func() {
			k.batches = k.batches[1:]
			k.userBytes += batchObjects * 8
			k.liveBytes -= batchObjects * itemBytes
		}, nil

	case kVersion:
		slot := u.a
		if u.b == 0 {
			v := k.versions[slot]
			if v == nil {
				return nil, mismatch("version slot %d is empty", slot)
			}
			o, err := tx.DerefVersion(v.ref)
			if err != nil {
				return nil, err
			}
			if got := o.MustGet("price").Float(); got != v.price {
				return nil, mismatch("frozen price %v, want %v", got, v.price)
			}
			if err := tx.DeleteVersion(v.ref); err != nil {
				return nil, err
			}
			return func() {
				k.versions[slot] = nil
				k.userBytes += 8
			}, nil
		}
		i := k.upd[p.intn(len(k.upd))]
		ref, err := tx.NewVersion(w.stock[i])
		if err != nil {
			return nil, err
		}
		o, err := tx.Deref(w.stock[i])
		if err != nil {
			return nil, err
		}
		price := float64(p.intn(100000)) / 100
		o.MustSet("price", ode.Float(price))
		if err := tx.Update(w.stock[i], o); err != nil {
			return nil, err
		}
		frozen := &frozenVersion{ref: ref, price: w.price[i]}
		return func() {
			k.versions[slot] = frozen
			w.price[i] = price
			k.userBytes += 8 + itemBytes
		}, nil

	case kTrigger:
		i := k.trig[u.a%len(k.trig)]
		o, err := tx.Deref(w.stock[i])
		if err != nil {
			return nil, err
		}
		if got := o.MustGet("qty").Int(); got != w.qty[i] {
			return nil, mismatch("armed item %d qty %d, want %d", i, got, w.qty[i])
		}
		o.MustSet("qty", ode.Int(w.qty[i]-1))
		if err := tx.Update(w.stock[i], o); err != nil {
			return nil, err
		}
		return func() {
			// The restock action commits inline, before the unit returns.
			if w.qty[i]--; w.qty[i] < threshold(i) {
				w.qty[i] += restockLot
				k.userBytes += itemBytes
			}
			k.userBytes += itemBytes
		}, nil

	case kTransfer:
		a, b := k.xfer[u.a%len(k.xfer)], k.xfer[u.b%len(k.xfer)]
		if a == b {
			b = k.xfer[(u.b+1)%len(k.xfer)]
		}
		if sh, ok := k.st.(shStore); ok {
			// A transfer on the sharded shape is the cross-shard one.
			for j := 1; sh.s.ShardFor(w.stock[a]) == sh.s.ShardFor(w.stock[b]); j++ {
				b = k.xfer[(u.b+j)%len(k.xfer)]
			}
		}
		amount := int64(1)
		if k.wl.shared == 0 {
			// Own items: the model is exact, so qty can be kept inside
			// the pool's range by always moving from the fuller item.
			switch {
			case w.qty[a] < w.qty[b]:
				a, b = b, a
			case w.qty[a] == w.qty[b]:
				amount = 0
			}
		}
		// Locks are taken in OID order, so two transfers over the same
		// pair cannot deadlock on the pair itself.
		first, second := a, b
		if w.stock[first] > w.stock[second] {
			first, second = second, first
		}
		objs := map[int]*ode.Object{}
		for _, i := range []int{first, second} {
			o, err := tx.Deref(w.stock[i])
			if err != nil {
				return nil, err
			}
			if k.wl.shared == 0 && o.MustGet("qty").Int() != w.qty[i] {
				return nil, mismatch("item %d qty %d, want %d", i, o.MustGet("qty").Int(), w.qty[i])
			}
			objs[i] = o
		}
		objs[a].MustSet("qty", ode.Int(objs[a].MustGet("qty").Int()-amount))
		objs[b].MustSet("qty", ode.Int(objs[b].MustGet("qty").Int()+amount))
		for _, i := range []int{first, second} {
			if err := tx.Update(w.stock[i], objs[i]); err != nil {
				return nil, err
			}
		}
		return func() {
			if k.wl.shared == 0 {
				w.qty[a] -= amount
				w.qty[b] += amount
			}
			k.userBytes += 2 * itemBytes
		}, nil

	case kCount:
		// Half the items without an index, or the top tenth through it.
		r := scanReq{min: int64(n / 2), noIndex: true}
		if k.wl.shape == shapeSharded {
			r = scanReq{min: int64(n - n/10)}
		}
		got, err := tx.scan(k.sc.stock, r, func(ode.OID, *ode.Object) {})
		if err != nil {
			return nil, err
		}
		if want := n - int(r.min); got != want {
			return nil, mismatch("count(qty >= %d) = %d, want %d", r.min, got, want)
		}

	case kCollect:
		r := scanReq{min: int64(n - n/50)}
		if u.a%2 == 0 {
			r = scanReq{min: int64(n / 50), lt: true}
		}
		bad := 0
		got, err := tx.scan(k.sc.stock, r, func(_ ode.OID, o *ode.Object) {
			if (o.MustGet("qty").Int() < r.min) != r.lt {
				bad++
			}
		})
		if err != nil {
			return nil, err
		}
		if got != n/50 || bad != 0 {
			return nil, mismatch("collect returned %d rows (%d outside the bound), want %d", got, bad, n/50)
		}

	case kFirst:
		got, err := tx.scan(k.sc.stock, scanReq{noIndex: true, limit: 10}, func(ode.OID, *ode.Object) {})
		if err != nil {
			return nil, err
		}
		if got != 10 {
			return nil, mismatch("forall stopped after %d rows, want 10", got)
		}

	case kNewBatch:
		// The batch is made of cells, not stockitems. A forall that
		// reaches an object another transaction deleted after the scan
		// listed it fails with ErrNoObject today, and a benchmark's
		// workload must not fail; cells keep the creates and deletes out
		// of every scanned extent. README.md records the finding.
		news := make([]*ode.Object, batchObjects)
		for j := range news {
			news[j] = ode.NewObject(k.sc.cell)
			news[j].MustSet("value", ode.Int(int64(p.intn(n))))
		}
		oids, err := tx.batch(k.sc.cell, news, k.prev)
		if err != nil {
			return nil, err
		}
		deleted := int64(len(k.prev))
		return func() {
			k.prev = oids
			k.userBytes += batchObjects*cellBytes + deleted*8
			k.liveBytes += (batchObjects - deleted) * cellBytes
		}, nil
	}
	return nil, nil
}

// verify is the pass every run ends with: it reads the whole stockitem
// extent and the chain back and compares them with the model. It returns
// the number of checks made and those that failed.
func verify(st store, sc *schema, w *world, wl *workload, workers []*worker) (checks, bad int64, first error) {
	fail := func(format string, args ...any) {
		bad++
		if first == nil {
			first = mismatch(format, args...)
		}
	}
	rows := map[ode.OID]*ode.Object{}
	_, err := runUnit(st, false, nil, func(tx opTx) error {
		clear(rows)
		_, err := tx.scan(sc.stock, scanReq{min: math.MinInt64, noIndex: true}, func(oid ode.OID, o *ode.Object) {
			rows[oid] = o
		})
		if err != nil {
			return err
		}
		for i, oid := range w.cells {
			o, err := tx.Deref(oid)
			if err != nil {
				return err
			}
			if o.MustGet("value").Int() != int64(i) {
				fail("cell %d holds %d", i, o.MustGet("value").Int())
			}
		}
		for _, k := range workers {
			for _, oid := range k.prev {
				if _, err := tx.Deref(oid); err != nil {
					fail("created cell %d: %v", oid, err)
				}
			}
		}
		return nil
	})
	if err != nil {
		return 1, 1, err
	}
	checks = int64(len(w.stock) + len(w.cells) + 2)

	want := len(w.stock)
	var sharedQty, sharedWant int64
	for i, oid := range w.stock {
		o := rows[oid]
		switch {
		case o == nil:
			fail("item %d is missing from the extent", i)
		case o.MustGet("price").Float() != w.price[i]:
			fail("item %d price %v, want %v", i, o.MustGet("price").Float(), w.price[i])
		case i < wl.shared:
			sharedQty += o.MustGet("qty").Int()
			sharedWant += int64(i)
		case o.MustGet("qty").Int() != w.qty[i]:
			fail("item %d qty %d, want %d", i, o.MustGet("qty").Int(), w.qty[i])
		}
	}
	if sharedQty != sharedWant {
		fail("transfers did not conserve qty: sum %d, want %d", sharedQty, sharedWant)
	}
	for _, k := range workers {
		for _, oids := range k.batches {
			want += len(oids)
			for _, oid := range oids {
				if rows[oid] == nil {
					fail("created item %d is missing from the extent", oid)
				}
			}
		}
	}
	if len(rows) != want {
		fail("extent holds %d items, want %d", len(rows), want)
	}
	return checks, bad, first
}
