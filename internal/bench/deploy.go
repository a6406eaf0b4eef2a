package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"ode"
	"ode/client"
	"ode/internal/server"
)

// Kind is one of the three deployment shapes the system ships in.
type Kind int

const (
	Embedded Kind = iota // function calls into an in-process engine
	Remote               // one ode-server behind the wire protocol
	Sharded              // a shard group behind the client-side router
)

// Shape says where a measurement runs.
type Shape struct {
	Kind Kind
	// Addrs names external ode-server daemons started with
	// -bench-schema: one for Remote, the whole group for Sharded. Empty
	// boots loopback servers in-process instead, each over a fresh
	// World that Close removes.
	Addrs []string
	// Shards is the loopback shard count (Sharded with no Addrs).
	Shards int
	// Opts opens every database the shape boots, loopback shards adding
	// their shard coordinates. nil is the benchmark default: NoSync for
	// the embedded and remote worlds, fsync on for loopback shards.
	Opts *ode.Options
}

// Connect is the shape of the running daemons a -connect flag names,
// HOST:PORT[,HOST:PORT...]: one address is a direct session, several are
// a shard group behind the router, in shard order.
func Connect(list string) Shape {
	addrs := strings.Split(list, ",")
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
	}
	if len(addrs) > 1 {
		return Shape{Kind: Sharded, Addrs: addrs}
	}
	return Shape{Kind: Remote, Addrs: addrs}
}

// Deployment is an opened Shape, and the one provider of transactions
// to everything that measures: RunTx and View hand out ode.ObjectTx
// whichever shape is underneath. World always carries the benchmark
// class handles; its DB is set only when Embedded. Client is set when
// Remote, Router when Sharded. Close tears it down: clients first, then
// servers, then the worlds under them.
type Deployment struct {
	*World
	Client *client.Client
	Router *client.Sharded

	schema *ode.Schema // the one World's class handles belong to
	addrs  []string
	closers
}

// Open opens the one deployment a Shape describes. It is the only
// place the benchmark code boots a server or dials one.
func Open(s Shape) (*Deployment, error) {
	if s.Kind == Embedded {
		w, err := newWorld(s.Opts)
		if err != nil {
			return nil, err
		}
		return &Deployment{World: w, closers: closers{w.close}}, nil
	}
	d := &Deployment{addrs: s.Addrs}
	d.schema, d.World = Schema()
	var err error
	switch {
	case len(d.addrs) > 0: // external daemons
	case s.Kind == Remote:
		err = d.serve(s.Opts)
	default:
		// Shard coordinates stripe OID allocation across the group.
		for slot := 0; slot < s.Shards && err == nil; slot++ {
			var o ode.Options
			if s.Opts != nil {
				o = *s.Opts
			}
			o.ShardCount, o.ShardSlot = s.Shards, slot
			err = d.serve(&o)
		}
	}
	if err != nil {
		d.Close()
		return nil, fmt.Errorf("loopback server: %w", err)
	}
	if s.Kind == Sharded {
		r, err := client.DialSharded(d.addrs, d.schema, nil)
		if err != nil {
			d.Close()
			return nil, fmt.Errorf("dial shards %v: %w", d.addrs, err)
		}
		d.Router = r
		d.onClose(func() { r.Close() })
		return d, nil
	}
	c, err := d.Dial(nil)
	if err != nil {
		d.Close()
		return nil, err
	}
	d.Client = c
	return d, nil
}

// serve boots one loopback server over a fresh world.
func (d *Deployment) serve(opts *ode.Options) error {
	w, err := newWorld(opts)
	if err != nil {
		return err
	}
	d.onClose(w.close)
	srv := server.New(w.DB, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	go srv.Serve(nil)
	d.onClose(func() { srv.Close() })
	d.addrs = append(d.addrs, addr.String())
	return nil
}

// Dial connects one more client to a Remote deployment's server (the
// client-cache experiment compares two differently configured
// clients); Close closes it with the rest.
func (d *Deployment) Dial(opts *client.Options) (*client.Client, error) {
	c, err := client.Dial(d.addrs[0], d.schema, opts)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", d.addrs[0], err)
	}
	d.onClose(func() { c.Close() })
	return c, nil
}

// RunTx runs fn in one read-write transaction of the deployment,
// whichever shape it is, rerunning it on transient conflicts.
func (d *Deployment) RunTx(fn func(tx ode.ObjectTx) error) error {
	switch {
	case d.Router != nil:
		return d.Router.RunTx(context.Background(), func(tx *client.STx) error { return fn(tx) })
	case d.Client != nil:
		return d.Client.RunTx(context.Background(), func(tx *client.Tx) error { return fn(tx) })
	}
	return d.DB.RunTx(func(tx *ode.Tx) error { return fn(ode.EmbeddedTx{Tx: tx}) })
}

// View runs fn in one read-only transaction of the deployment.
func (d *Deployment) View(fn func(tx ode.ObjectTx) error) error {
	switch {
	case d.Router != nil:
		return d.Router.View(context.Background(), func(tx *client.STx) error { return fn(tx) })
	case d.Client != nil:
		return d.Client.View(context.Background(), func(tx *client.Tx) error { return fn(tx) })
	}
	return d.DB.View(func(tx *ode.Tx) error { return fn(ode.EmbeddedTx{Tx: tx}) })
}

// Counters flattens the metric registries under the deployment to their
// scalar counters and gauges (histograms are dropped), summed over the
// shards of a group so a delta across a run reports group-wide totals.
func (d *Deployment) Counters() (map[string]int64, error) {
	total := map[string]int64{}
	add := func(snap map[string]any) {
		for name, v := range snap {
			switch n := v.(type) {
			case uint64: // the embedded registry's counters
				total[name] += int64(n)
			case int64: // and gauges
				total[name] += n
			case float64: // a server's metrics JSON, decoded
				total[name] += int64(n)
			}
		}
	}
	if d.DB != nil {
		add(d.DB.MetricsRegistry().Snapshot())
	}
	for i, c := range d.clients() {
		raw, err := c.MetricsJSON(context.Background())
		if err != nil {
			return nil, fmt.Errorf("server %d metrics: %w", i, err)
		}
		var snap map[string]any
		if err := json.Unmarshal(raw, &snap); err != nil {
			return nil, fmt.Errorf("decode server %d metrics: %w", i, err)
		}
		add(snap)
	}
	return total, nil
}

// clients lists the client of every server under the deployment: none
// when Embedded, one per shard in slot order when Sharded.
func (d *Deployment) clients() []*client.Client {
	switch {
	case d.Router != nil:
		cs := make([]*client.Client, d.Router.NumShards())
		for i := range cs {
			cs[i] = d.Router.Shard(i)
		}
		return cs
	case d.Client != nil:
		return []*client.Client{d.Client}
	}
	return nil
}

// Mode names the shape, with the shard count of a group.
func (d *Deployment) Mode() string {
	switch {
	case d.Router != nil:
		return fmt.Sprintf("sharded-%d", d.Router.NumShards())
	case d.DB != nil:
		return "embedded"
	}
	return "remote"
}
