package bench

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ode"
	"ode/client"
)

// view wraps fn as an Op running in one read transaction of w.
func view(w *Deployment, fn func(tx *ode.Tx) error) func() error {
	return func() error { return w.DB.View(fn) }
}

// counts is an Op asserting that the query q builds matches want rows.
func counts(w *Deployment, want int, q func(tx *ode.Tx) *ode.Query) func() error {
	return view(w, func(tx *ode.Tx) error {
		got, err := q(tx).Count()
		if err == nil && got != want {
			err = fmt.Errorf("matched %d, want %d", got, want)
		}
		return err
	})
}

// extent is the query `forall x in c`.
func extent(c *ode.Class) func(tx *ode.Tx) *ode.Query {
	return func(tx *ode.Tx) *ode.Query { return ode.Forall(tx, c) }
}

// runTx runs fn in one read-write transaction: Deployment.RunTx, or the
// same over one particular client of a deployment.
type runTx func(fn func(tx ode.ObjectTx) error) error

// pnewTx is an Op: one transaction through run storing n stockitems.
func pnewTx(run runTx, n int, item func(i int) *ode.Object) func() error {
	return func() error {
		return run(func(tx ode.ObjectTx) error {
			for i := 0; i < n; i++ {
				o := item(i)
				if _, err := tx.PNew(o.Class(), o); err != nil {
					return err
				}
			}
			return nil
		})
	}
}

// derefWalk is an Op: one transaction through run of n derefs striding
// through oids, with repeats (the shape navigation produces).
func derefWalk(run runTx, oids []ode.OID, n int) func() error {
	k := 0
	return func() error {
		return run(func(tx ode.ObjectTx) error {
			for i := 0; i < n; i++ {
				k = (k + 7919) % len(oids)
				if _, err := tx.Deref(oids[k]); err != nil {
					return err
				}
			}
			return nil
		})
	}
}

// fanOut runs fn on n goroutines and joins their errors.
func fanOut(n int, fn func(g int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs[g] = fn(g)
		}(g)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// speedup records how much faster m is than a baseline row measured
// earlier (nothing when that row was not run).
func speedup(m *Measurement, base time.Duration) {
	if base > 0 && m.PerOp > 0 {
		m.Extra["speedup"] = float64(base) / float64(m.PerOp)
	}
}

func buildE1(e *Env) {
	for _, full := range []int{1000, 10000, 100000} {
		n := e.scale(full, 10)
		// Two worlds per size: creation fills an empty one (n more
		// objects per call), the scan reads one loaded and checkpointed
		// up front.
		empty := e.deploy(Shape{})
		loaded, _ := e.stock(n)
		check(loaded.DB.Checkpoint())
		name := fmt.Sprintf("objects=%d", n)
		e.add(Case{Name: name, Col: "create", Op: func() error {
			_, err := empty.LoadStock(n)
			return err
		}})
		e.add(Case{Name: name, Col: "scan", Reps: 3, Op: counts(loaded, n, extent(loaded.Stock)),
			After: func(m *Measurement) error {
				m.Extra["pages"] = float64(loaded.DB.Stats().Pages)
				return nil
			}})
	}
}

func buildE2(e *Env) {
	n := e.scale(50000, 50)
	w, _ := e.stock(n)
	head := must(w.LoadChain(n))
	e.add(Case{Name: fmt.Sprintf("N=%d forall-iterator", n), Reps: 3, Op: counts(w, n, extent(w.Stock))})
	e.add(Case{Name: fmt.Sprintf("N=%d pointer-navigation", n), Reps: 3,
		Op: view(w, func(tx *ode.Tx) error {
			visited := 0
			for oid := head; oid != ode.NilOID; visited++ {
				o, err := tx.Deref(oid)
				if err != nil {
					return err
				}
				oid = o.MustGet("next").OID()
			}
			if visited != n {
				return fmt.Errorf("chase visited %d of %d cells", visited, n)
			}
			return nil
		})})
	e.Note = "declarative iterators also admit indexes — see E3 — and predicates;\npointer navigation admits neither"
}

func buildE3(e *Env) {
	n := e.scale(50000, 100)
	w, _ := e.stock(n)
	// The index exists throughout; the extent-scan rows opt out of it.
	check(w.DB.CreateIndex(w.Stock, "qty"))
	for _, plan := range []string{"extent-scan", "index-scan"} {
		for _, selPct := range []int{1, 10, 100} {
			want := n * selPct / 100
			lo := ode.Int(int64(n - want))
			e.add(Case{Name: fmt.Sprintf("select=%3d%% %s", selPct, plan), Reps: 3,
				Op: counts(w, want, func(tx *ode.Tx) *ode.Query {
					q := ode.Forall(tx, w.Stock).SuchThat(ode.Field("qty").Ge(lo))
					if plan == "extent-scan" {
						q = q.NoIndex()
					}
					return q
				})})
		}
	}
}

func buildE4(e *Env) {
	n := e.scale(50000, 50)
	w, _ := e.stock(n)
	e.add(Case{Name: fmt.Sprintf("N=%d unordered", n), Reps: 3, Op: counts(w, n, extent(w.Stock))})
	e.add(Case{Name: fmt.Sprintf("N=%d by (name)", n), Reps: 3,
		Op: view(w, func(tx *ode.Tx) error {
			visited, last := 0, ""
			err := ode.Forall(tx, w.Stock).By("name").Do(func(it ode.Item) (bool, error) {
				name := it.Obj.MustGet("name").Str()
				if name < last {
					return false, fmt.Errorf("order violated: %q after %q", name, last)
				}
				visited, last = visited+1, name
				return true, nil
			})
			if err == nil && visited != n {
				err = fmt.Errorf("visited %d, want %d", visited, n)
			}
			return err
		})})
}

func buildE5(e *Env) {
	n := e.scale(40000, 40) &^ 3 // LoadPersons cycles person, person, student, faculty
	w := e.deploy(Shape{})
	must(w.LoadPersons(n))
	e.add(Case{Name: fmt.Sprintf("person  (%d objects)", n/2), Reps: 3, Op: counts(w, n/2, extent(w.Person))})
	e.add(Case{Name: fmt.Sprintf("person* (%d objects)", n), Reps: 3,
		Op: counts(w, n, func(tx *ode.Tx) *ode.Query { return ode.Forall(tx, w.Person).Subtypes() })})
}

func buildE6(e *Env) {
	nEmp, nDept := e.scale(20000, 100), 100
	w := e.deploy(Shape{})
	check(w.LoadEmpDept(nEmp, nDept))
	check(w.DB.CreateIndex(w.Dept, "deptno"))
	for _, s := range []ode.JoinStrategy{ode.NestedLoop, ode.HashJoin, ode.IndexNestedLoop} {
		reps := 3
		if s == ode.NestedLoop {
			reps = 1
		}
		e.add(Case{Name: fmt.Sprintf("emp(%d) ⋈ dept(%d) %s", nEmp, nDept, s), Reps: reps,
			Op: view(w, func(tx *ode.Tx) error {
				pairs, err := ode.Forall(tx, w.Emp).JoinWith(ode.Forall(tx, w.Dept)).
					OnEq("deptno", "deptno").Strategy(s).Count()
				if err == nil && pairs != nEmp {
					err = fmt.Errorf("joined %d pairs, want %d", pairs, nEmp)
				}
				return err
			})})
	}
}

func buildE7(e *Env) {
	w := e.deploy(Shape{})
	for _, depth := range []int{3, 6, 9} {
		rng := rand.New(rand.NewSource(int64(depth)))
		root, total, err := w.LoadPartDAG(rng, depth, 30, 5)
		check(err)
		closure := func(strategy func([]ode.Value, ode.SuccFunc) (*ode.Set, error)) (size int, err error) {
			err = w.DB.View(func(tx *ode.Tx) error {
				set, err := strategy([]ode.Value{ode.Ref(root)}, Subparts(tx))
				if err == nil {
					size = set.Len()
				}
				return err
			})
			return size, err
		}
		want := must(closure(ode.TransitiveClosure))
		for _, s := range []struct {
			name string
			fn   func([]ode.Value, ode.SuccFunc) (*ode.Set, error)
		}{
			{"worklist (O++ loop)", ode.TransitiveClosure},
			{"naive", ode.NaiveTransitiveClosure},
			{"semi-naive", ode.SemiNaiveTransitiveClosure},
		} {
			e.add(Case{Name: fmt.Sprintf("depth=%d parts=%d closure=%d %s", depth, total, want, s.name), Reps: 3,
				Op: func() error {
					got, err := closure(s.fn)
					if err == nil && got != want {
						err = fmt.Errorf("closure of %d, want %d", got, want)
					}
					return err
				}})
		}
	}
}

func buildE8(e *Env) {
	// One object per row group, so the chains stay the length they are
	// labelled with.
	w, oids := e.stock(3)
	e.add(Case{Name: "newversion", Reps: 200, Op: func() error {
		return w.DB.RunTx(func(tx *ode.Tx) error {
			_, err := tx.NewVersion(oids[0])
			return err
		})
	}})
	for i, chain := range []int{16, 128} {
		oid := oids[i+1]
		check(w.DB.RunTx(func(tx *ode.Tx) error {
			for v := 0; v < chain; v++ {
				if _, err := tx.NewVersion(oid); err != nil {
					return err
				}
			}
			return nil
		}))
		pinned := ode.VRef{OID: oid, Version: uint32(chain / 2)}
		e.add(Case{Name: fmt.Sprintf("chain=%3d generic deref", chain), Reps: 500,
			Op: view(w, func(tx *ode.Tx) error {
				_, err := tx.Deref(oid)
				return err
			})})
		e.add(Case{Name: fmt.Sprintf("chain=%3d pinned deref", chain), Reps: 500,
			Op: view(w, func(tx *ode.Tx) error {
				_, err := tx.DerefVersion(pinned)
				return err
			})})
	}
}

// openOne opens a one-class database over its own schema, creates the
// class's cluster, and stores init as its only object.
func (e *Env) openOne(s *ode.Schema, c *ode.Class, init *ode.Object) (*ode.DB, ode.OID) {
	db := must(ode.Open(filepath.Join(e.tempDir(), "one.odb"), s, &ode.Options{NoSync: true}))
	e.onClose(func() { db.Close() })
	check(db.CreateCluster(c))
	var oid ode.OID
	check(db.RunTx(func(tx *ode.Tx) (err error) {
		oid, err = tx.PNew(c, init)
		return err
	}))
	return db, oid
}

// setInt is an Op: one transaction that reads oid, sets an int field,
// and writes it back.
func setInt(db *ode.DB, oid ode.OID, field string, v int64) func() error {
	return func() error {
		return db.RunTx(func(tx *ode.Tx) error {
			o, err := tx.Deref(oid)
			if err != nil {
				return err
			}
			o.MustSet(field, ode.Int(v))
			return tx.Update(oid, o)
		})
	}
}

func buildE9(e *Env) {
	for _, nc := range []int{0, 1, 4} {
		s := ode.NewSchema()
		builder := ode.NewClass("acct").Field("bal", ode.TInt)
		for k := 0; k < nc; k++ {
			builder = builder.Constraint(fmt.Sprintf("c%d", k), "bal >= 0",
				func(_ ode.Store, o *ode.Object) (bool, error) {
					return o.MustGet("bal").Int() >= 0, nil
				})
		}
		acct := builder.Register(s)
		init := ode.NewObject(acct)
		init.MustSet("bal", ode.Int(1))
		db, oid := e.openOne(s, acct, init)
		e.add(Case{Name: fmt.Sprintf("update with %d constraints", nc), Reps: 500, Op: setInt(db, oid, "bal", 2)})
	}
}

func buildE10(e *Env) {
	open := func() (*ode.DB, ode.OID) {
		s := ode.NewSchema()
		item := ode.NewClass("item").
			Field("qty", ode.TInt).
			Field("fires", ode.TInt).
			Trigger(&ode.TriggerDef{
				Name:      "watch",
				Perpetual: true,
				Cond: func(_ ode.Store, o *ode.Object, _ []ode.Value) (bool, error) {
					return o.MustGet("qty").Int() < 0, nil
				},
				Action: func(st ode.Store, o *ode.Object, oid ode.OID, _ []ode.Value) error {
					o.MustSet("fires", ode.Int(o.MustGet("fires").Int()+1))
					o.MustSet("qty", ode.Int(0))
					return st.Update(oid, o)
				},
			}).
			Register(s)
		init := ode.NewObject(item)
		init.MustSet("qty", ode.Int(1))
		return e.openOne(s, item, init)
	}
	// Two databases, so the unarmed row runs where nothing is activated.
	bare, bareOID := open()
	armed, armedOID := open()
	check(armed.RunTx(func(tx *ode.Tx) error {
		_, err := armed.Triggers().Activate(tx, armedOID, "watch")
		return err
	}))
	e.add(Case{Name: "update, no activations", Reps: 500, Op: setInt(bare, bareOID, "qty", 5)})
	e.add(Case{Name: "update, armed but quiescent", Reps: 500, Op: setInt(armed, armedOID, "qty", 5)})
	e.add(Case{Name: "update that fires (incl. action tx)", Reps: 500, Op: setInt(armed, armedOID, "qty", -1),
		After: func(*Measurement) error {
			return armed.View(func(tx *ode.Tx) error {
				o, err := tx.Deref(armedOID)
				if err == nil && o.MustGet("fires").Int() == 0 {
					err = errors.New("trigger never fired")
				}
				return err
			})
		}})
}

func buildE11(e *Env) {
	_, classes := Schema()
	e.add(Case{Name: "volatile new + set", Reps: 200000, Op: func() error {
		o := ode.NewObject(classes.Stock)
		o.MustSet("qty", ode.Int(1))
		return nil
	}})
	w := e.deploy(Shape{})
	e.add(Case{Name: "pnew + commit (nosync)", Reps: 2000, Op: func() error {
		return w.DB.RunTx(func(tx *ode.Tx) error {
			o := ode.NewObject(w.Stock)
			o.MustSet("qty", ode.Int(1))
			_, err := tx.PNew(w.Stock, o)
			return err
		})
	}})
}

func buildE12(e *Env) {
	for _, full := range []int{5000, 20000} {
		n := e.scale(full, 50)
		dir := filepath.Join(e.tempDir(), "crash")
		// open opens the database over a fresh schema (one per Open).
		open := func() (*Deployment, error) {
			s, w := Schema()
			db, err := ode.Open(filepath.Join(dir, "r.odb"), s, &ode.Options{NoSync: true})
			w.DB = db
			return &Deployment{World: w}, err
		}
		var recovered *Deployment
		closeRecovered := func() {
			if recovered != nil {
				recovered.DB.Close()
				recovered = nil
			}
		}
		e.onClose(closeRecovered)
		e.add(Case{Name: fmt.Sprintf("crash with %d objects in WAL", n), Col: "recover+verify",
			// A crashed database: n committed objects, none checkpointed.
			Prep: func() error {
				closeRecovered()
				if err := os.RemoveAll(dir); err != nil {
					return err
				}
				if err := os.MkdirAll(dir, 0o755); err != nil {
					return err
				}
				w, err := open()
				if err != nil {
					return err
				}
				if err := w.DB.CreateCluster(w.Stock); err != nil {
					return err
				}
				if _, err := w.LoadStock(n); err != nil {
					return err
				}
				w.DB.CrashForTesting()
				return nil
			},
			Op: func() error {
				w, err := open()
				if err == nil {
					recovered = w
				}
				return err
			},
			After: func(*Measurement) error { return counts(recovered, n, extent(recovered.Stock))() }})
	}
}

func buildE13(e *Env) {
	n := e.scale(50000, 100)
	w, oids := e.stock(n)
	sweep := []int{1}
	for nw := 2; nw < e.Workers; nw *= 2 {
		sweep = append(sweep, nw)
	}
	if e.Workers > 1 {
		sweep = append(sweep, e.Workers)
	}

	// Concurrent readers: each goroutine derefs in a view of its own (a
	// transaction belongs to one goroutine), hitting the sharded pool
	// and the decoded-object cache. The hot set fits the default cache,
	// so the steady state is cache-resident; time is per deref across
	// all goroutines (aggregate throughput), each view's begin and end
	// included.
	hot := oids[:min(len(oids), 4000)]
	var derefBase time.Duration
	for _, nw := range sweep {
		perG := e.scale(200000, 2000) / nw
		before := w.DB.Stats().Object
		e.add(Case{Name: fmt.Sprintf("deref workers=%d", nw), Workers: nw, Units: nw * perG,
			Op: func() error {
				before = w.DB.Stats().Object
				return fanOut(nw, func(g int) error {
					return w.DB.View(func(tx *ode.Tx) error {
						for k, i := 0, g*7919; k < perG; k, i = k+1, i+1 {
							if _, err := tx.Deref(hot[i%len(hot)]); err != nil {
								return err
							}
						}
						return nil
					})
				})
			},
			After: func(m *Measurement) error {
				if nw == 1 {
					derefBase = m.PerOp
				} else {
					speedup(m, derefBase)
				}
				after := w.DB.Stats().Object
				hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
				if hits+misses > 0 {
					m.Extra["cache_hit_pct"] = 100 * float64(hits) / float64(hits+misses)
				}
				return nil
			}})
	}
}

func buildE14(e *Env) {
	slots := max(e.MaxTx, 1)
	offered := max(slots*e.Overload, slots+1)
	perG := e.scale(200, 20)
	e.Note = fmt.Sprintf("offered load: %d writers x %d tx, slots=%d, deadline=%v", offered, perG, slots, e.Deadline)

	// A burst is `offered` writers, each attempting perG single-object
	// updates under the per-transaction deadline, every outcome
	// classified by the typed error taxonomy. The row's time is the mean
	// latency of the commits alone. Each transaction holds its admission
	// slot for `hold` (a slow client) — without that, µs-scale commits
	// recycle the slots so fast the gate never engages.
	const hold = 500 * time.Microsecond
	burst := func(name string, opts *ode.Options) {
		w := e.deploy(Shape{Opts: opts})
		oids := must(w.LoadStock(64))
		var commits, rejects, timeouts, commitNs atomic.Int64
		var elapsed time.Duration
		e.add(Case{Name: name,
			Op: func() error {
				for _, c := range []*atomic.Int64{&commits, &rejects, &timeouts, &commitNs} {
					c.Store(0)
				}
				start := time.Now()
				err := fanOut(offered, func(g int) error {
					for k := 0; k < perG; k++ {
						oid := oids[(g*7919+k)%len(oids)]
						ctx, cancel := context.WithTimeout(context.Background(), e.Deadline)
						t0 := time.Now()
						err := w.DB.RunTxCtx(ctx, func(tx *ode.Tx) error {
							o, err := tx.Deref(oid)
							if err != nil {
								return err
							}
							time.Sleep(hold)
							o.MustSet("qty", ode.Int(o.MustGet("qty").Int()+1))
							return tx.Update(oid, o)
						})
						cancel()
						switch {
						case err == nil:
							commits.Add(1)
							commitNs.Add(time.Since(t0).Nanoseconds())
						case errors.Is(err, ode.ErrOverloaded):
							rejects.Add(1)
						case errors.Is(err, ode.ErrTxTimeout), errors.Is(err, ode.ErrCanceled):
							timeouts.Add(1) // a deadline-killed attempt, never a raw deadlock error
						default:
							return err
						}
					}
					return nil
				})
				elapsed = time.Since(start)
				return err
			},
			After: func(m *Measurement) error {
				m.PerOp = 0
				if n := commits.Load(); n > 0 {
					m.PerOp = time.Duration(commitNs.Load() / n)
				}
				m.Extra["commits"] = float64(commits.Load())
				m.Extra["rejects"] = float64(rejects.Load())
				m.Extra["timeouts"] = float64(timeouts.Load())
				m.Extra["waits"] = float64(w.DB.Stats().Txn.AdmissionWaits)
				m.Extra["tps"] = float64(commits.Load()) / elapsed.Seconds()
				return nil
			}})
	}
	burst("ungoverned", &ode.Options{NoSync: true})
	burst(fmt.Sprintf("governed slots=%d queue=none", slots),
		&ode.Options{NoSync: true, MaxConcurrentTx: slots, MaxQueuedTx: -1})
	burst(fmt.Sprintf("governed slots=%d queue=%d", slots, 2*slots),
		&ode.Options{NoSync: true, MaxConcurrentTx: slots})

	// Bounded WAL growth: an append-heavy writer under a soft and a hard
	// limit. The soft limit kicks the background checkpointer; the hard
	// limit stalls commits when the writer outruns it. The observed peak
	// must stay near the hard bound.
	const soft, hard = 64 << 10, 256 << 10
	w := e.deploy(Shape{Opts: &ode.Options{NoSync: true, WALSoftLimit: soft, WALHardLimit: hard}})
	payload := strings.Repeat("x", 1024)
	var peak, commits int64
	e.add(Case{Name: fmt.Sprintf("bounded WAL soft=%dKiB hard=%dKiB", soft>>10, hard>>10), Reps: e.scale(2000, 200),
		Op: func() error {
			err := w.DB.RunTx(func(tx *ode.Tx) error {
				_, err := tx.PNew(w.Stock, NewStock(w.Stock, payload, 1, 1, 0))
				return err
			})
			commits++
			peak = max(peak, w.DB.Stats().WALBytes)
			return err
		},
		After: func(m *Measurement) error {
			// Give the background checkpointer a moment to drain the tail,
			// so auto_ckpt reflects the kicks the soft limit issued.
			for wait := time.Now(); w.DB.Stats().WALBytes >= soft && time.Since(wait) < time.Second; {
				time.Sleep(time.Millisecond)
			}
			st := w.DB.Stats()
			m.Extra["commits"] = float64(commits)
			m.Extra["peak_wal_kb"] = float64(peak >> 10)
			m.Extra["auto_ckpt"] = float64(st.WAL.AutoCheckpoints)
			m.Extra["stalls"] = float64(st.WAL.BackpressureStalls)
			if peak > hard+(64<<10) {
				return fmt.Errorf("WAL peaked at %d bytes, far beyond the %d hard limit", peak, hard)
			}
			return nil
		}})
}

// buildE15 prices the network hop: the same operations embedded
// (function call into the engine) and remote (wire round trip to a
// server), plus the pipelined variant that amortizes round trips. The
// server is a loopback one unless Params.Connect names a daemon.
func buildE15(e *Env) {
	nItems := e.scale(5000, 50)
	const txBatch = 20
	reps := e.scale(400, txBatch)

	w, oids := e.stock(nItems)
	remote := Shape{Kind: Remote}
	if e.Connect != "" {
		if remote = Connect(e.Connect); remote.Kind != Remote {
			check(fmt.Errorf("E15 measures one server; -connect names %d", len(remote.Addrs)))
		}
	}
	d := e.deploy(remote)
	c, stock := d.Client, d.Stock
	item := func(class *ode.Class) func(i int) *ode.Object {
		return func(i int) *ode.Object { return NewStock(class, fmt.Sprintf("e15-%07d", i), 1, int64(i), 100) }
	}
	roids, err := d.Insert(nItems, item(stock))
	if err != nil {
		check(fmt.Errorf("remote load: %w", err))
	}

	row := fmt.Sprintf("pnew/op (tx of %d)", txBatch)
	e.add(Case{Name: row, Col: "embedded", Reps: reps / txBatch, Units: txBatch, Op: pnewTx(w.RunTx, txBatch, item(w.Stock))})
	e.add(Case{Name: row, Col: "remote", Reps: reps / txBatch, Units: txBatch, Op: pnewTx(d.RunTx, txBatch, item(stock))})
	e.add(Case{Name: row, Col: "remote pipelined", Reps: reps / txBatch, Units: txBatch, Op: func() error {
		return c.RunTx(context.Background(), func(tx *client.Tx) error {
			p := tx.Pipeline()
			futs := make([]*client.Future, txBatch)
			for i := range futs {
				futs[i] = p.PNew(stock, item(stock)(i))
			}
			if err := p.Flush(); err != nil {
				return err
			}
			for _, f := range futs {
				if _, err := f.OID(); err != nil {
					return err
				}
			}
			return nil
		})
	}})

	e.add(Case{Name: "deref/op", Col: "embedded", Reps: 3, Units: reps, Op: derefWalk(w.View, oids, reps)})
	e.add(Case{Name: "deref/op", Col: "remote", Reps: 3, Units: reps, Op: derefWalk(d.RunTx, roids, reps)})

	// The rows the pnew cases insert carry qty < txBatch and never match.
	row = fmt.Sprintf("suchthat scan (n=%d)", nItems)
	e.add(Case{Name: row, Col: "embedded", Reps: 3,
		Op: counts(w, nItems-nItems/2, func(tx *ode.Tx) *ode.Query {
			return ode.Forall(tx, w.Stock).SuchThat(ode.Field("qty").Ge(ode.Int(int64(nItems / 2))))
		})})
	// Not asserted remotely: a -connect daemon may hold earlier runs' rows.
	e.add(Case{Name: row, Col: "remote", Reps: 3, Op: func() error {
		return c.RunTx(context.Background(), func(tx *client.Tx) error {
			_, err := tx.Count(&ode.Scan{Class: stock, Field: "qty", Op: ode.CmpGe, Value: ode.Int(int64(nItems / 2))})
			return err
		})
	}})
}

// buildE16 quantifies the commit and wire fast paths. Part one is group
// commit: transactions of 20 pnews against a sync-on-commit store with
// 1, 4 and 8 concurrent committers, each row's speedup taken over the
// lone committer's and avg_group counting the commits one fsync
// covers — the win comes from committers overlapping in one fsync, so
// it appears only under concurrency. Part two is the client object
// cache on the remote deref path: a cache-disabled client (every deref
// a full round trip carrying the image) against a warmed cache (first
// touch per transaction revalidates by tag, repeats are local). The
// third fast path, the low-allocation frame codec, is pinned by
// BenchmarkFrameRoundTrip in internal/wire rather than here. What these
// rows time, TestWorkGates holds as counts (commit-20, hot-deref).
func buildE16(e *Env) {
	const txBatch = 20
	txsPerWorker := e.scale(60, 8)
	var lone time.Duration
	for _, nw := range []int{1, 4, 8} {
		w := e.deploy(Shape{Opts: &ode.Options{}}) // zero NoSync: fsync on every commit
		e.add(Case{Name: fmt.Sprintf("tx%d pnew group-commit", txBatch), Workers: nw, Units: nw * txsPerWorker,
			Op: func() error {
				return fanOut(nw, func(g int) error {
					for t := 0; t < txsPerWorker; t++ {
						err := pnewTx(w.RunTx, txBatch, func(i int) *ode.Object {
							return NewStock(w.Stock, fmt.Sprintf("e16-%d-%d-%d", g, t, i), 1, int64(i), 0)
						})()
						if err != nil {
							return err
						}
					}
					return nil
				})
			},
			After: func(m *Measurement) error {
				if nw == 1 {
					lone = m.PerOp
				} else {
					speedup(m, lone)
				}
				if st := w.DB.Stats().WAL; st.GroupCommits > 0 {
					m.Extra["avg_group"] = float64(st.GroupCommitSize) / float64(st.GroupCommits)
				}
				return nil
			}})
	}

	// Client cache on the remote deref path: loopback server, working
	// set small enough to stay resident.
	nItems, reps := e.scale(2000, 256), e.scale(2000, 400)
	d := e.deploy(Shape{Kind: Remote})
	ws := must(d.Insert(nItems, func(i int) *ode.Object {
		return NewStock(d.Stock, fmt.Sprintf("item-%07d", i), 1, int64(i), 100)
	}))[:256]
	warm := d.Client
	cold := must(d.Dial(&client.Options{CacheSize: -1}))
	coldRunTx := func(fn func(ode.ObjectTx) error) error {
		return cold.RunTx(context.Background(), func(tx *client.Tx) error { return fn(tx) })
	}
	// Fill pass: every working-set object becomes a cached miss, so the
	// measured transactions see only revalidations and local hits.
	check(d.RunTx(func(tx ode.ObjectTx) error {
		for _, oid := range ws {
			if _, err := tx.Deref(oid); err != nil {
				return err
			}
		}
		return nil
	}))
	var coldDeref time.Duration
	e.add(Case{Name: "remote deref no-cache", Workers: 1, Reps: 3, Units: reps, Op: derefWalk(coldRunTx, ws, reps),
		After: func(m *Measurement) error {
			coldDeref = m.PerOp
			return nil
		}})
	e.add(Case{Name: "remote deref warm-cache", Workers: 1, Reps: 3, Units: reps, Op: derefWalk(d.RunTx, ws, reps),
		After: func(m *Measurement) error {
			speedup(m, coldDeref)
			met := warm.CacheMetrics()
			m.Extra["hits"] = float64(met.Hits.Load())
			m.Extra["misses"] = float64(met.Misses.Load())
			return nil
		}})
}
