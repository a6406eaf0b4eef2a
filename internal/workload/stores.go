package workload

import (
	"context"
	"encoding/json"
	"fmt"

	"ode"
	"ode/client"
	"ode/internal/bench"
)

// NewStore adapts an opened deployment (bench.Open) into the Store a
// workload runs against: the same steps, whichever shape carries them.
func NewStore(d *bench.Deployment) Store {
	s := store{d}
	switch {
	case d.Router != nil:
		return shardedStore{s}
	case d.World.DB != nil:
		return embeddedStore{s}
	default:
		return remoteStore{s}
	}
}

// store is what the three shapes share: the deployment's Mode and its
// class handles.
type store struct{ *bench.Deployment }

func (s store) World() *bench.World { return s.Deployment.World }

type embeddedStore struct{ store }

func (s embeddedStore) RunTx(fn func(Tx) error) error {
	return s.World().DB.RunTx(func(tx *ode.Tx) error { return fn(embeddedTx{tx}) })
}

func (s embeddedStore) View(fn func(Tx) error) error {
	return s.World().DB.View(func(tx *ode.Tx) error { return fn(embeddedTx{tx}) })
}

func (s embeddedStore) CounterSnapshot() (map[string]int64, error) {
	return flattenCounters(s.World().DB.MetricsRegistry().Snapshot()), nil
}

// The three Tx adapters embed the transaction they wrap — *ode.Tx,
// *client.Tx and *client.STx already share the point-operation
// signatures — and add the one operation whose shape differs.
type embeddedTx struct{ *ode.Tx }

func (t embeddedTx) Count(c *ode.Class, field string, min int64) (int, error) {
	return ode.Forall(t.Tx, c).SuchThat(ode.Field(field).Ge(ode.Int(min))).Count()
}

func scanGe(c *ode.Class, field string, min int64) *client.Scan {
	return &client.Scan{Class: c, Field: field, Op: client.CmpGe, Value: ode.Int(min)}
}

type remoteStore struct{ store }

func (s remoteStore) RunTx(fn func(Tx) error) error {
	return s.Client.RunTx(context.Background(), func(tx *client.Tx) error { return fn(remoteTx{tx}) })
}

func (s remoteStore) View(fn func(Tx) error) error {
	return s.Client.View(context.Background(), func(tx *client.Tx) error { return fn(remoteTx{tx}) })
}

func (s remoteStore) CounterSnapshot() (map[string]int64, error) {
	return serverCounters(s.Client)
}

type remoteTx struct{ *client.Tx }

func (t remoteTx) Count(c *ode.Class, field string, min int64) (int, error) {
	return t.Tx.Count(scanGe(c, field, min))
}

// shardedStore runs through the shard-group router: point ops route by
// OID, scans scatter-gather, and multi-shard writes commit through 2PC.
type shardedStore struct{ store }

func (s shardedStore) RunTx(fn func(Tx) error) error {
	return s.Router.RunTx(context.Background(), func(tx *client.STx) error { return fn(shardedTx{tx}) })
}

func (s shardedStore) View(fn func(Tx) error) error {
	return s.Router.View(context.Background(), func(tx *client.STx) error { return fn(shardedTx{tx}) })
}

// CounterSnapshot sums the scalar metrics across all shards, so
// counter-delta columns report group-wide totals.
func (s shardedStore) CounterSnapshot() (map[string]int64, error) {
	total := make(map[string]int64)
	for i := 0; i < s.Router.NumShards(); i++ {
		snap, err := serverCounters(s.Router.Shard(i))
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		for name, v := range snap {
			total[name] += v
		}
	}
	return total, nil
}

type shardedTx struct{ *client.STx }

func (t shardedTx) Count(c *ode.Class, field string, min int64) (int, error) {
	return t.STx.Count(scanGe(c, field, min))
}

// serverCounters fetches one server's metrics snapshot over the wire.
func serverCounters(c *client.Client) (map[string]int64, error) {
	raw, err := c.MetricsJSON(context.Background())
	if err != nil {
		return nil, err
	}
	var snap map[string]any
	if err := json.Unmarshal(raw, &snap); err != nil {
		return nil, fmt.Errorf("decode server metrics: %w", err)
	}
	return flattenCounters(snap), nil
}

// flattenCounters keeps the scalar numeric metrics of a registry
// snapshot (histogram snapshots and other structured values are
// dropped): the common currency of the embedded registry (uint64 /
// int64 counters and gauges) and the server's metrics JSON (float64
// after decoding).
func flattenCounters(snap map[string]any) map[string]int64 {
	out := make(map[string]int64, len(snap))
	for name, v := range snap {
		switch n := v.(type) {
		case uint64:
			out[name] = int64(n)
		case int64:
			out[name] = n
		case int:
			out[name] = int64(n)
		case float64:
			out[name] = int64(n)
		}
	}
	return out
}
