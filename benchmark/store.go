package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"ode"
	"ode/client"
	"ode/internal/server"
)

// The three deployment shapes ROADMAP aim 1 names.
const (
	shapeEmbedded = "embedded"
	shapeRemote   = "remote"
	shapeSharded  = "sharded"
)

// numShards is the width of the sharded shape.
const numShards = 3

// scanReq is one forall over stockitem.qty: the rows with qty >= min, or
// with qty < min when lt is set.
type scanReq struct {
	min     int64
	lt      bool
	noIndex bool // force an extent scan
	limit   int  // stop consuming after this many rows; 0 = all
}

// opTx is the object API the workloads use. *ode.Tx, *client.Tx and
// *client.STx already share the point operations' signatures; the three
// adapters below add only what the surfaces spell differently.
type opTx interface {
	PNew(*ode.Class, *ode.Object) (ode.OID, error)
	Deref(ode.OID) (*ode.Object, error)
	Update(ode.OID, *ode.Object) error
	PDelete(ode.OID) error
	NewVersion(ode.OID) (ode.VRef, error)
	DerefVersion(ode.VRef) (*ode.Object, error)
	DeleteVersion(ode.VRef) error

	// scan streams matching rows to fn and returns how many it saw.
	scan(c *ode.Class, r scanReq, fn func(ode.OID, *ode.Object)) (int, error)
	// batch creates news and deletes dels in as few round trips as the
	// surface allows.
	batch(c *ode.Class, news []*ode.Object, dels []ode.OID) ([]ode.OID, error)
	commit() error
	abort()
}

// store begins transactions on one deployment shape.
type store interface {
	begin() (opTx, error)
	// layer names the module whose public functions begin's transactions
	// call: spans are recorded as <layer>.<op>.
	layer() string
}

// runUnit is one unit transaction: begin, fn, then commit (write) or
// abort (read-only view), rerunning transient conflicts under the
// engine's own backoff policy. It is DB.RunTx / DB.View spelled out so a
// trace can put a span around begin and commit. tr is nil when untraced.
// It returns how many times the unit was rerun.
func runUnit(st store, write bool, tr *workerTrace, fn func(opTx) error) (retries int, err error) {
	for attempt := 0; ; attempt++ {
		tx, err := tr.begin(st)
		if err == nil {
			err = fn(tx)
			if err == nil && write {
				err = tx.commit()
			} else {
				tx.abort()
			}
		}
		if err == nil || !ode.IsRetryable(err) || attempt >= ode.MaxTxRetries {
			return attempt, err
		}
		time.Sleep(ode.RetryBackoff(attempt))
	}
}

type embStore struct{ db *ode.DB }

func (s embStore) layer() string { return "ode" }
func (s embStore) begin() (opTx, error) {
	return embTx{s.db.Begin()}, nil
}

type embTx struct{ *ode.Tx }

func (t embTx) commit() error { return t.Tx.Commit() }
func (t embTx) abort()        { t.Tx.Abort() }

func (t embTx) scan(c *ode.Class, r scanReq, fn func(ode.OID, *ode.Object)) (int, error) {
	pred := ode.Field("qty").Ge(ode.Int(r.min))
	if r.lt {
		pred = ode.Field("qty").Lt(ode.Int(r.min))
	}
	q := ode.Forall(t.Tx, c).SuchThat(pred)
	if r.noIndex {
		q = q.NoIndex()
	}
	n := 0
	err := q.Do(func(it ode.Item) (bool, error) {
		n++
		fn(it.OID, it.Obj)
		return r.limit == 0 || n < r.limit, nil
	})
	return n, err
}

func (t embTx) batch(c *ode.Class, news []*ode.Object, dels []ode.OID) ([]ode.OID, error) {
	return loopBatch(t, c, news, dels)
}

// loopBatch is batch for surfaces with no pipeline.
func loopBatch(t opTx, c *ode.Class, news []*ode.Object, dels []ode.OID) ([]ode.OID, error) {
	oids := make([]ode.OID, 0, len(news))
	for _, o := range news {
		oid, err := t.PNew(c, o)
		if err != nil {
			return nil, err
		}
		oids = append(oids, oid)
	}
	for _, oid := range dels {
		if err := t.PDelete(oid); err != nil {
			return nil, err
		}
	}
	return oids, nil
}

func clientScan(c *ode.Class, r scanReq) *client.Scan {
	s := &client.Scan{Class: c, NoIndex: r.noIndex, Field: "qty", Op: client.CmpGe, Value: ode.Int(r.min)}
	if r.lt {
		s.Op = client.CmpLt
	}
	return s
}

// limited adapts fn to the client's forall callback, stopping after
// limit rows.
func limited(limit int, fn func(ode.OID, *ode.Object)) func(ode.OID, *ode.Object) (bool, error) {
	n := 0
	return func(oid ode.OID, o *ode.Object) (bool, error) {
		n++
		fn(oid, o)
		return limit == 0 || n < limit, nil
	}
}

type remStore struct{ c *client.Client }

func (s remStore) layer() string { return "client" }
func (s remStore) begin() (opTx, error) {
	tx, err := s.c.Begin(context.Background())
	if err != nil {
		return nil, err
	}
	return remTx{tx}, nil
}

type remTx struct{ *client.Tx }

func (t remTx) commit() error { return t.Tx.Commit() }
func (t remTx) abort()        { t.Tx.Abort() }

func (t remTx) scan(c *ode.Class, r scanReq, fn func(ode.OID, *ode.Object)) (int, error) {
	return t.Tx.Forall(clientScan(c, r), limited(r.limit, fn))
}

func (t remTx) batch(c *ode.Class, news []*ode.Object, dels []ode.OID) ([]ode.OID, error) {
	p := t.Tx.Pipeline()
	futs := make([]*client.Future, 0, len(news)+len(dels))
	for _, o := range news {
		futs = append(futs, p.PNew(c, o))
	}
	for _, oid := range dels {
		futs = append(futs, p.PDelete(oid))
	}
	if err := p.Flush(); err != nil {
		return nil, err
	}
	oids := make([]ode.OID, 0, len(news))
	for i, f := range futs {
		if err := f.Err(); err != nil {
			return nil, err
		}
		if i < len(news) {
			oid, _ := f.OID()
			oids = append(oids, oid)
		}
	}
	return oids, nil
}

type shStore struct{ s *client.Sharded }

func (s shStore) layer() string { return "client" }
func (s shStore) begin() (opTx, error) {
	return shTx{s.s.Begin(context.Background())}, nil
}

type shTx struct{ *client.STx }

func (t shTx) commit() error { return t.STx.Commit() }
func (t shTx) abort()        { t.STx.Abort() }

func (t shTx) scan(c *ode.Class, r scanReq, fn func(ode.OID, *ode.Object)) (int, error) {
	return t.STx.Forall(clientScan(c, r), limited(r.limit, fn))
}

func (t shTx) batch(c *ode.Class, news []*ode.Object, dels []ode.OID) ([]ode.OID, error) {
	return loopBatch(t, c, news, dels)
}

// deployment is one shape, opened in this process: its databases, the
// servers in front of them and the client or router that reaches them.
type deployment struct {
	shape string
	dir   string
	dbs   []*ode.DB
	srvs  []*server.Server
	cl    *client.Client
	sh    *client.Sharded
	st    store
	sc    *schema // the schema the caller's objects are built against
}

// deploy opens shape under dir, creating the database files or reopening
// the ones a shut-down deployment left there. Every database gets opts;
// the sharded shape adds each shard's slot.
func deploy(shape, dir string, opts ode.Options) (*deployment, error) {
	d := &deployment{shape: shape, dir: dir}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	n := 1
	if shape == shapeSharded {
		n = numShards
	}
	var addrs []string
	for i := 0; i < n; i++ {
		o := opts
		if n > 1 {
			o.ShardCount, o.ShardSlot = n, i
		}
		sc := newSchema()
		db, err := ode.Open(filepath.Join(dir, fmt.Sprintf("db%d.odb", i)), sc.s, &o)
		if err != nil {
			d.close()
			return nil, err
		}
		d.dbs = append(d.dbs, db)
		for _, c := range []*ode.Class{sc.stock, sc.cell, sc.part} {
			if db.HasCluster(c) { // reopened files
				continue
			}
			if err := db.CreateCluster(c); err != nil {
				d.close()
				return nil, err
			}
		}
		if shape == shapeEmbedded {
			d.sc, d.st = sc, embStore{db}
			return d, nil
		}
		srv := server.New(db, nil)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			d.close()
			return nil, err
		}
		d.srvs = append(d.srvs, srv)
		go srv.Serve(nil) // returns when close calls srv.Close, which waits for it
		addrs = append(addrs, addr.String())
	}
	d.sc = newSchema()
	var err error
	if shape == shapeRemote {
		d.cl, err = client.Dial(addrs[0], d.sc.s, nil)
		d.st = remStore{d.cl}
	} else {
		d.sh, err = client.DialSharded(addrs, d.sc.s, nil)
		d.st = shStore{d.sh}
	}
	if err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// embedded is the store that calls the first database's engine directly,
// bypassing client, wire and server: the reference a remote shape's
// numbers are split against. Its objects must be built against the
// returned schema.
func (d *deployment) embedded() (store, *schema) {
	db := d.dbs[0]
	sc := &schema{s: db.Schema()}
	sc.stock, _ = sc.s.ClassNamed("stockitem")
	sc.cell, _ = sc.s.ClassNamed("cell")
	sc.part, _ = sc.s.ClassNamed("part")
	return embStore{db}, sc
}

// createIndex indexes stockitem.qty on every database.
func (d *deployment) createIndex() error {
	for _, db := range d.dbs {
		c, _ := db.Schema().ClassNamed("stockitem")
		if err := db.CreateIndex(c, "qty"); err != nil {
			return err
		}
	}
	return nil
}

// shutdown stops the client, then the servers, then the databases, and
// leaves the files. It is safe on a half-built deployment.
func (d *deployment) shutdown() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if d.cl != nil {
		keep(d.cl.Close())
	}
	if d.sh != nil {
		keep(d.sh.Close())
	}
	for _, s := range d.srvs {
		keep(s.Close())
	}
	for _, db := range d.dbs {
		keep(db.Close())
	}
	return first
}

// close shuts the deployment down and removes its files.
func (d *deployment) close() error {
	err := d.shutdown()
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

// fileBytes checkpoints every database and returns the data files' total
// size and how long the checkpoints took.
func (d *deployment) fileBytes() (int64, time.Duration, error) {
	var total int64
	start := time.Now()
	for _, db := range d.dbs {
		if err := db.Checkpoint(); err != nil {
			return 0, 0, err
		}
	}
	took := time.Since(start)
	for _, db := range d.dbs {
		fi, err := os.Stat(db.Path())
		if err != nil {
			return 0, 0, err
		}
		total += fi.Size()
	}
	return total, took, nil
}

// counters is a flat copy of every public metric registry of the
// deployment, summed over its databases: the engine and server.* names
// of DB.MetricsRegistry, plus the client cache and shard router sets.
// A histogram contributes <name>.count and <name>.sum (nanoseconds).
type counters map[string]float64

func (d *deployment) counters() counters {
	out := counters{}
	for _, db := range d.dbs {
		for name, v := range db.MetricsRegistry().Snapshot() {
			switch n := v.(type) {
			case uint64:
				out[name] += float64(n)
			case int64:
				out[name] += float64(n)
			default:
				// A histogram snapshot: read it by shape, so this file
				// does not depend on internal/obs.
				if rv := reflect.ValueOf(v); rv.Kind() == reflect.Struct {
					if c, s := rv.FieldByName("Count"), rv.FieldByName("Sum"); c.IsValid() && s.IsValid() {
						out[name+".count"] += float64(c.Uint())
						out[name+".sum"] += float64(s.Int())
					}
				}
			}
		}
	}
	var clients []*client.Client
	if d.cl != nil {
		clients = append(clients, d.cl)
	}
	if d.sh != nil {
		for i := 0; i < d.sh.NumShards(); i++ {
			clients = append(clients, d.sh.Shard(i))
		}
		m := d.sh.ShardMetrics()
		out["client.shard.single_commits"] = float64(m.SingleCommits.Load())
		out["client.shard.cross_commits"] = float64(m.CrossCommits.Load())
		out["client.shard.cross_aborts"] = float64(m.CrossAborts.Load())
		out["client.shard.indoubt"] = float64(m.InDoubt.Load())
		out["client.shard.scatter_scans"] = float64(m.ScatterScans.Load())
	}
	for _, c := range clients {
		m := c.CacheMetrics()
		out["client.cache_hits"] += float64(m.Hits.Load())
		out["client.cache_misses"] += float64(m.Misses.Load())
	}
	return out
}

// sub returns c - base, name by name.
func (c counters) sub(base counters) counters {
	out := make(counters, len(c))
	for k, v := range c {
		out[k] = v - base[k]
	}
	return out
}

// ratio is a/b, or 0 when b is 0: the layer did no work.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
