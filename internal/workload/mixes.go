package workload

import (
	"fmt"
	"math/rand"

	"ode"
	"ode/internal/bench"
)

// scaled picks the CI-short or full size.
func (r *runner) scaled(short, full int) int {
	if r.cfg.Short {
		return short
	}
	return full
}

// loadStock inserts n stock items (qty(i), threshold 100) through the
// deployment and returns their OIDs. namePad >= 0 pads names to that width,
// which fixes the per-record footprint — the larger-than-RAM mix uses
// it to size its dataset in pages.
func (r *runner) loadStock(n, namePad int, qty func(i int) int64) ([]ode.OID, error) {
	return r.d.Insert(n, func(i int) *ode.Object {
		name := fmt.Sprintf("wl-%07d", i)
		if namePad > len(name) {
			name = fmt.Sprintf("%-*s", namePad, name)
		}
		return bench.NewStock(r.d.Stock, name, float64(i)/100, qty(i), 100)
	})
}

// pointsMix: hot/cold skewed point derefs with a write tail — the
// OO-bench "simple read" pattern. 10% of the objects (a seeded random
// subset) take 80% of the reads; each worker's writes stay on its own
// partition so concurrent transactions never contend on a write lock.
var pointsMix = &Workload{
	Name:     "points",
	Desc:     "hot/cold skewed point derefs (80/10) with 8% updates and occasional indexed counts",
	RemoteOK: true,
	run: func(r *runner) error {
		n := r.scaled(2000, 20000)
		totalOps := r.scaled(4000, 60000)
		oids, err := r.loadStock(n, 0, func(i int) int64 { return int64(i) })
		if err != nil {
			return err
		}
		hot := append([]ode.OID(nil), oids...)
		r.rng.Shuffle(len(hot), func(i, j int) { hot[i], hot[j] = hot[j], hot[i] })
		hot = hot[:len(hot)/10]
		return r.fanout(totalOps, func(w int, rng *rand.Rand, ops int) error {
			mine := partition(oids, w, r.cfg.Workers)
			for done := 0; done < ops; {
				// Reads batch into one view transaction; writes commit
				// one at a time (single-lock transactions cannot
				// deadlock against the batched readers).
				batch := ops - done
				if batch > 64 {
					batch = 64
				}
				var updates []ode.OID
				err := r.d.View(func(tx ode.ObjectTx) error {
					for i := 0; i < batch; i++ {
						switch roll := rng.Intn(100); {
						case roll < 80:
							if err := r.timed("deref.hot", func() error {
								_, err := tx.Deref(hot[rng.Intn(len(hot))])
								return err
							}); err != nil {
								return err
							}
						case roll < 90:
							if err := r.timed("deref.cold", func() error {
								_, err := tx.Deref(oids[rng.Intn(len(oids))])
								return err
							}); err != nil {
								return err
							}
						case roll < 98:
							updates = append(updates, mine[rng.Intn(len(mine))])
						default:
							if err := r.timed("count", func() error {
								_, err := tx.Count(&ode.Scan{Class: r.d.Stock, Field: "qty", Op: ode.CmpGe, Value: ode.Int(int64(n / 2))})
								return err
							}); err != nil {
								return err
							}
						}
					}
					return nil
				})
				if err != nil {
					return err
				}
				for _, oid := range updates {
					oid := oid
					if err := r.timed("update", func() error {
						return r.d.RunTx(func(tx ode.ObjectTx) error {
							o, err := tx.Deref(oid)
							if err != nil {
								return err
							}
							o.MustSet("price", ode.Float(float64(rng.Intn(10000))/100))
							return tx.Update(oid, o)
						})
					}); err != nil {
						return err
					}
				}
				done += batch
			}
			return nil
		})
	},
}

// traverseMix: pointer-chasing down a linked object chain — the
// CODASYL-style navigation pattern clustering papers use to punish bad
// object placement. Every hop is a point deref through a Ref field.
var traverseMix = &Workload{
	Name:     "traverse",
	Desc:     "pointer-chasing walks over a linked cell chain (50 hops per walk)",
	RemoteOK: true,
	run: func(r *runner) error {
		chainLen := r.scaled(1000, 8000)
		walks := r.scaled(300, 3000)
		const hops = 50
		head, err := r.d.LoadChain(chainLen)
		if err != nil {
			return err
		}
		// One full walk collects the cell OIDs for random restarts.
		var cells []ode.OID
		if err := r.d.View(func(tx ode.ObjectTx) error {
			for oid := head; oid != ode.NilOID; {
				cells = append(cells, oid)
				o, err := tx.Deref(oid)
				if err != nil {
					return err
				}
				oid, _ = o.MustGet("next").AnyOID()
			}
			return nil
		}); err != nil {
			return err
		}
		return r.fanout(walks, func(w int, rng *rand.Rand, walks int) error {
			for k := 0; k < walks; k++ {
				start := cells[rng.Intn(len(cells))]
				var steps int64
				err := r.timed("walk", func() error {
					return r.d.View(func(tx ode.ObjectTx) error {
						oid := start
						for h := 0; h < hops && oid != ode.NilOID; h++ {
							o, err := tx.Deref(oid)
							if err != nil {
								return err
							}
							oid, _ = o.MustGet("next").AnyOID()
							steps++
						}
						return nil
					})
				})
				if err != nil {
					return err
				}
				r.count("cell.deref", steps)
			}
			return nil
		})
	},
}

// versionsMix: version-heavy churn — freeze, read back, and discard
// object versions, the paper's §4 machinery under load. Each worker
// versions only its own partition, so write locks never cross workers.
var versionsMix = &Workload{
	Name:     "versions",
	Desc:     "version churn: 45% newversion / 35% derefversion / 20% deleteversion",
	RemoteOK: true,
	run: func(r *runner) error {
		n := r.scaled(600, 4000)
		totalOps := r.scaled(2400, 24000)
		oids, err := r.loadStock(n, 0, func(i int) int64 { return int64(i) })
		if err != nil {
			return err
		}
		return r.fanout(totalOps, func(w int, rng *rand.Rand, ops int) error {
			mine := partition(oids, w, r.cfg.Workers)
			var refs []ode.VRef // this worker's live frozen versions
			newVersion := func() error {
				oid := mine[rng.Intn(len(mine))]
				return r.timed("newversion", func() error {
					return r.d.RunTx(func(tx ode.ObjectTx) error {
						ref, err := tx.NewVersion(oid)
						if err != nil {
							return err
						}
						refs = append(refs, ref)
						return nil
					})
				})
			}
			for i := 0; i < ops; i++ {
				switch roll := rng.Intn(100); {
				case roll < 45 || len(refs) == 0:
					if err := newVersion(); err != nil {
						return err
					}
				case roll < 80:
					ref := refs[rng.Intn(len(refs))]
					if err := r.timed("derefversion", func() error {
						return r.d.View(func(tx ode.ObjectTx) error {
							_, err := tx.DerefVersion(ref)
							return err
						})
					}); err != nil {
						return err
					}
				default:
					ref := refs[len(refs)-1]
					refs = refs[:len(refs)-1]
					if err := r.timed("deleteversion", func() error {
						return r.d.RunTx(func(tx ode.ObjectTx) error { return tx.DeleteVersion(ref) })
					}); err != nil {
						return err
					}
				}
			}
			return nil
		})
	},
}

// triggersMix: trigger-heavy updates. Every item carries an armed
// perpetual restock trigger; the update stream drags qty below the
// threshold and the trigger fires inline at commit, doubling the write
// work. Embedded only: trigger activation is not in the wire protocol.
var triggersMix = &Workload{
	Name:     "triggers",
	Desc:     "updates against armed perpetual restock triggers (fires inline at commit)",
	RemoteOK: false,
	run: func(r *runner) error {
		n := r.scaled(400, 2000)
		totalOps := r.scaled(2000, 16000)
		oids, err := r.loadStock(n, 0, func(i int) int64 { return 200 })
		if err != nil {
			return err
		}
		db := r.d.DB
		if err := db.RunTx(func(tx *ode.Tx) error {
			for _, oid := range oids {
				if _, err := db.Triggers().Activate(tx, oid, "restock", ode.Int(150)); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
		r.count("activate", int64(len(oids)))
		return r.fanout(totalOps, func(w int, rng *rand.Rand, ops int) error {
			mine := partition(oids, w, r.cfg.Workers)
			for i := 0; i < ops; i++ {
				oid := mine[rng.Intn(len(mine))]
				dec := int64(1 + rng.Intn(30))
				if err := r.timed("update", func() error {
					return r.d.RunTx(func(tx ode.ObjectTx) error {
						o, err := tx.Deref(oid)
						if err != nil {
							return err
						}
						o.MustSet("qty", ode.Int(o.MustGet("qty").Int()-dec))
						return tx.Update(oid, o)
					})
				}); err != nil {
					return err
				}
			}
			return nil
		})
	},
}

// bomMix: the paper's bill-of-materials fixpoint (§3.2 recursive
// queries) as a workload — repeated transitive-closure traversals of a
// seeded part DAG via worklist, each hop a subparts-set deref.
var bomMix = &Workload{
	Name:     "bom",
	Desc:     "bill-of-materials fixpoint queries over a seeded part DAG",
	RemoteOK: true,
	run: func(r *runner) error {
		depth := 5
		width := r.scaled(40, 120)
		const fanout = 4
		queries := r.scaled(40, 200)
		root, parts, err := r.d.LoadPartDAG(r.rng, depth, width, fanout)
		if err != nil {
			return err
		}
		r.count("part.load", int64(parts))
		return r.fanout(queries, func(w int, rng *rand.Rand, queries int) error {
			for q := 0; q < queries; q++ {
				var visits int64
				err := r.timed("bom.query", func() error {
					return r.d.View(func(tx ode.ObjectTx) error {
						seen := map[ode.OID]bool{root: true}
						work := []ode.OID{root}
						for len(work) > 0 {
							oid := work[len(work)-1]
							work = work[:len(work)-1]
							o, err := tx.Deref(oid)
							if err != nil {
								return err
							}
							visits++
							for _, v := range o.MustGet("subparts").Set().Elems() {
								sub, ok := v.AnyOID()
								if !ok || seen[sub] {
									continue
								}
								seen[sub] = true
								work = append(work, sub)
							}
						}
						return nil
					})
				})
				if err != nil {
					return err
				}
				r.count("bom.visit", visits)
			}
			return nil
		})
	},
}

// churn10xMix: the larger-than-RAM scenario. The database opens with a
// deliberately small buffer pool; the mix loads a padded dataset ~10×
// the pool, deletes 85% of it (leaving the page file full of sparse
// pages), runs DB.Compact to reclaim them, then refills into the freed
// space and compacts once more. Embedded only (Compact is a DB API).
var churn10xMix = &Workload{
	Name:     "churn10x",
	Desc:     "dataset ~10x the buffer pool: mass delete, online compaction, refill into reclaimed pages",
	RemoteOK: false,
	dbOpts: func(cfg Config) *ode.Options {
		pool := 128
		if cfg.Short {
			pool = 32
		}
		return &ode.Options{NoSync: true, PoolPages: pool}
	},
	run: func(r *runner) error {
		pool := 128
		if r.cfg.Short {
			pool = 32
		}
		// ~40 padded records per 4 KiB page; 400 per pool page is ~10x
		// the pool.
		n := pool * 400
		oids, err := r.loadStock(n, 96, func(i int) int64 { return int64(i) })
		if err != nil {
			return err
		}
		r.count("insert", int64(len(oids)))

		// Delete 85%, batched; survivors = every 7th slot approximately
		// via the seeded shuffle.
		doomed := append([]ode.OID(nil), oids...)
		r.rng.Shuffle(len(doomed), func(i, j int) { doomed[i], doomed[j] = doomed[j], doomed[i] })
		cut := len(doomed) * 85 / 100
		survivors := doomed[cut:]
		doomed = doomed[:cut]
		const batch = 500
		for start := 0; start < len(doomed); start += batch {
			end := start + batch
			if end > len(doomed) {
				end = len(doomed)
			}
			err := r.d.RunTx(func(tx ode.ObjectTx) error {
				for _, oid := range doomed[start:end] {
					if err := tx.PDelete(oid); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			r.count("delete", int64(end-start))
		}

		if err := r.timed("compact", func() error {
			_, err := r.d.DB.Compact()
			return err
		}); err != nil {
			return err
		}

		// Every survivor must still deref (a scan 10x the pool: this is
		// the bounded-RSS part — the pool cannot hold the working set).
		err = r.fanout(len(survivors), func(w int, rng *rand.Rand, ops int) error {
			mine := partition(survivors, w, r.cfg.Workers)
			for i := 0; i < ops && i < len(mine); i++ {
				if err := r.timed("deref", func() error {
					return r.d.View(func(tx ode.ObjectTx) error {
						_, err := tx.Deref(mine[i%len(mine)])
						return err
					})
				}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}

		// Refill a quarter of the deleted volume into the reclaimed
		// pages, then compact once more.
		refill, err := r.loadStock(n/4, 96, func(i int) int64 { return int64(i) })
		if err != nil {
			return err
		}
		r.count("insert", int64(len(refill)))
		return r.timed("compact", func() error {
			_, err := r.d.DB.Compact()
			return err
		})
	},
}

// partition slices oids into the w-th of `workers` contiguous,
// near-equal chunks (never empty for w < workers when len >= workers).
func partition(oids []ode.OID, w, workers int) []ode.OID {
	n := len(oids)
	lo, hi := n*w/workers, n*(w+1)/workers
	if lo == hi {
		return oids
	}
	return oids[lo:hi]
}
