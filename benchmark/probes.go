package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ode"
	"ode/internal/btree"
	"ode/internal/object"
	"ode/internal/storage"
	"ode/internal/wal"
	"ode/internal/wire"
)

// A probe times one layer's exported functions from a single goroutine,
// on the record shapes the workloads use, with a fixed seed. It reports
// the median of probeRounds rounds. A round is short because every
// traced run pays for all probes; a probe resolves a layer's cost to a
// few percent, which is what it is for: saying which layer a change
// moved, not bounding it.
const (
	probeRounds = 5
	probeRound  = 40 * time.Millisecond
	probeKeys   = 60_000
	probeBatch  = 64
)

// probe calls fn, which performs probeBatch operations, until a round is
// over, and returns the median nanoseconds per operation over rounds.
// With quick set, one short round: the smoke test's budget.
func probe(quick bool, fn func() error) (float64, error) {
	rounds, round := probeRounds, probeRound
	if quick {
		rounds, round = 1, 5*time.Millisecond
	}
	var per []float64
	for r := 0; r < rounds; r++ {
		start, ops := time.Now(), 0
		for time.Since(start) < round {
			if err := fn(); err != nil {
				return 0, err
			}
			ops += probeBatch
		}
		per = append(per, float64(time.Since(start))/float64(ops))
	}
	return median(per), nil
}

// runProbes measures every probed per-layer metric, using dir for files.
func runProbes(dir string, quick bool) (metrics, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	m := metrics{}
	sc := newSchema()
	item := newStockObject(sc.stock, itemName(1234, 0), 12.34, 1234, threshold(1234))
	image := object.Encode(item)
	var err error

	// wire: one request frame out and back in, as a deref response is.
	var buf []byte
	frame := &wire.Frame{ReqID: 7, Type: wire.RespObject, Body: wire.AppendBytes(nil, image)}
	if m["wire.frame_roundtrip_ns"], err = probe(quick, func() error {
		for i := 0; i < probeBatch; i++ {
			buf = wire.AppendFrame(buf[:0], frame)
			if _, _, err := wire.DecodeFrame(buf, 0); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// object: the codec on one stockitem.
	if m["object.encode_ns"], err = probe(quick, func() error {
		for i := 0; i < probeBatch; i++ {
			image = object.Encode(item)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if m["object.decode_ns"], err = probe(quick, func() error {
		for i := 0; i < probeBatch; i++ {
			if _, err := object.Decode(sc.s, image); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	if err := probePages(dir, quick, m); err != nil {
		return nil, err
	}
	if err := probeWAL(dir, quick, m, image); err != nil {
		return nil, err
	}
	return m, probeScan(dir, quick, m)
}

// probePages measures btree and storage over one page file: a tree of
// probeKeys keys in a pool that holds it whole, then the same file
// through a pool a fraction of its size.
func probePages(dir string, quick bool, m metrics) error {
	fs, err := storage.CreateFile(filepath.Join(dir, "pages"))
	if err != nil {
		return err
	}
	defer fs.Close()
	pool := storage.NewPool(fs, 4096, nil, nil)
	tree := btree.New(pool, storage.InvalidPage)
	// A fixed permutation of the key space (the multiplier is coprime to
	// probeKeys), written into one reused buffer: the tree copies keys.
	kb := make([]byte, 8)
	key := func(i int) []byte {
		binary.BigEndian.PutUint64(kb, uint64(i)*2654435761%probeKeys)
		return kb
	}
	val := make([]byte, 8)
	for i := 0; i < probeKeys; i++ {
		if err := tree.Put(key(i), val); err != nil {
			return err
		}
	}
	next := 0
	hits0, misses0, _ := pool.Stats()
	gets := 0
	if m["btree.get_ns"], err = probe(quick, func() error {
		for i := 0; i < probeBatch; i++ {
			if _, err := tree.Get(key(next)); err != nil {
				return err
			}
			next++
		}
		gets += probeBatch
		return nil
	}); err != nil {
		return err
	}
	hits1, misses1, _ := pool.Stats()
	m["btree.pages_per_get"] = ratio(float64(hits1-hits0+misses1-misses0), float64(gets))

	// A delete and the put that restores the key are timed apart, in
	// batches, so the tree is the same size at every round.
	var delNS, putNS, pairs float64
	if _, err = probe(quick, func() error {
		t0 := time.Now()
		for i := 0; i < probeBatch; i++ {
			if err := tree.Delete(key(next + i)); err != nil {
				return err
			}
		}
		t1 := time.Now()
		for i := 0; i < probeBatch; i++ {
			if err := tree.Put(key(next+i), val); err != nil {
				return err
			}
		}
		delNS += float64(t1.Sub(t0))
		putNS += float64(time.Since(t1))
		pairs += probeBatch
		next += probeBatch
		return nil
	}); err != nil {
		return err
	}
	m["btree.delete_ns"], m["btree.put_ns"] = delNS/pairs, putNS/pairs
	if err := pool.FlushAll(); err != nil {
		return err
	}

	pages := int(fs.NumPages())
	page := 1
	fetch := func(p *storage.Pool) func() error {
		return func() error {
			for i := 0; i < probeBatch; i++ {
				pg, err := p.Fetch(storage.PageID(page))
				if err != nil {
					return err
				}
				p.Unpin(pg.ID(), false)
				if page++; page >= pages {
					page = 1
				}
			}
			return nil
		}
	}
	if m["storage.fetch_hit_ns"], err = probe(quick, fetch(pool)); err != nil {
		return err
	}
	// Walking the file in a cycle through a pool a tenth its size
	// misses on every fetch: each one evicts a clean frame and reads.
	if pages < 100 {
		return fmt.Errorf("probe file has only %d pages", pages)
	}
	miss, err := probe(quick, fetch(storage.NewPool(fs, pages/10, nil, nil)))
	m["storage.fetch_miss_us"] = miss / 1e3
	return err
}

// probeWAL measures staging one single-object commit batch in the log,
// without the fsync.
func probeWAL(dir string, quick bool, m metrics, image []byte) error {
	log, err := wal.Open(filepath.Join(dir, "wal"))
	if err != nil {
		return err
	}
	defer log.Close()
	log.SetSync(false)
	raw := wal.EncodeBatch(1, []wal.Op{{Type: wal.OpPut, TxID: 1, OID: 42, ClassID: 1, Image: image}})
	m["wal.stage_ns"], err = probe(quick, func() error {
		var target int64
		for i := 0; i < probeBatch; i++ {
			var err error
			if target, err = log.StageRaw(raw); err != nil {
				return err
			}
		}
		return log.SyncTo(target)
	})
	return err
}

// probeScan measures an unindexed forall count over an embedded extent,
// per row scanned.
func probeScan(dir string, quick bool, m metrics) error {
	const rows = 5000
	dep, err := deploy(shapeEmbedded, filepath.Join(dir, "scan"), ode.Options{NoSync: true})
	if err != nil {
		return err
	}
	defer dep.close()
	if _, err := load(dep.st, dep.sc, dataset{stock: rows}, 1); err != nil {
		return err
	}
	perBatch, err := probe(quick, func() error {
		_, err := runUnit(dep.st, false, nil, func(tx opTx) error {
			n, err := tx.scan(dep.sc.stock, scanReq{min: rows / 2, noIndex: true}, func(ode.OID, *ode.Object) {})
			if err == nil && n != rows/2 {
				err = mismatch("scan probe counted %d rows", n)
			}
			return err
		})
		return err
	})
	// probe divides by probeBatch operations; one call scans rows rows.
	m["query.scan_ns_per_row"] = perBatch * probeBatch / rows
	return err
}
