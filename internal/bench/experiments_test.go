package bench

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"ode"
	"ode/client"
)

// tiny is the smallest-scale setting: a tenth of -quick, where most
// sizes sit on their floors.
func tiny() Params {
	p := Defaults()
	p.Div, p.Workers, p.MaxTx, p.Overload = 100, 2, 2, 2
	return p
}

// TestExperimentsRunTiny builds every experiment at the smallest scale
// and measures every case: each must pass its own checks, and the
// (label, workers) pairs — what a -json row is told apart by — must be
// unique within an experiment.
func TestExperimentsRunTiny(t *testing.T) {
	start := time.Now()
	for _, x := range Experiments {
		t.Run(x.ID, func(t *testing.T) {
			env, err := x.Build(tiny())
			if err != nil {
				t.Fatal(err)
			}
			defer env.Close()
			if len(env.Cases) == 0 {
				t.Fatal("no cases")
			}
			seen := map[string]bool{}
			for _, c := range env.Cases {
				key := fmt.Sprintf("%s workers=%d", c.Label(), c.Workers)
				if seen[key] {
					t.Errorf("duplicate case %q", key)
				}
				seen[key] = true
				m, err := c.Measure()
				if err != nil {
					t.Errorf("%s: %v", key, err)
				} else if m.PerOp < 0 {
					t.Errorf("%s: negative time %v", key, m.PerOp)
				}
			}
		})
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Errorf("tiny run took %v; it must stay under 30s in go test ./...", d)
	}
}

// TestCasesRerunnable pins the contract BenchmarkExperiments leans on:
// after Build a case can be called again and again (testing.B picks
// b.N), alone, and still pass its checks. E12 is the case that consumes
// its state (a crashed database) and re-arms it in Prep.
func TestCasesRerunnable(t *testing.T) {
	for _, id := range []string{"E1", "E8", "E12"} {
		for _, x := range Experiments {
			if x.ID != id {
				continue
			}
			env, err := x.Build(tiny())
			if err != nil {
				t.Fatal(err)
			}
			last := env.Cases[len(env.Cases)-1]
			last.Reps = 3
			if _, err := last.Measure(); err != nil {
				t.Errorf("%s %s x3: %v", id, last.Label(), err)
			}
			env.Close()
		}
	}
}

func TestMeasure(t *testing.T) {
	var order []string
	c := Case{Name: "row", Col: "col", Reps: 2, Units: 5,
		Prep: func() error { order = append(order, "prep"); return nil },
		Op: func() error {
			order = append(order, "op")
			time.Sleep(5 * time.Millisecond)
			return nil
		},
		After: func(m *Measurement) error {
			order = append(order, "after")
			m.Extra["k"] = 1
			return nil
		}}
	if c.Label() != "row col" || (Case{Name: "row"}).Label() != "row" {
		t.Errorf("labels: %q, %q", c.Label(), Case{Name: "row"}.Label())
	}
	m, err := c.Measure()
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(order); got != "[prep op prep op after]" {
		t.Errorf("call order %s", got)
	}
	// Two 5ms calls of five units each: 1ms per unit, Prep excluded.
	if m.PerOp < time.Millisecond || m.PerOp > 5*time.Millisecond || m.Extra["k"] != 1 {
		t.Errorf("measurement %+v", m)
	}
	boom := errors.New("boom")
	for _, bad := range []Case{
		{Op: func() error { return boom }},
		{Prep: func() error { return boom }, Op: func() error { return nil }},
		{Op: func() error { return nil }, After: func(*Measurement) error { return boom }},
	} {
		if _, err := bad.Measure(); err != boom {
			t.Errorf("error not propagated: %v", err)
		}
	}
}

// TestOpenShapes opens each deployment shape on loopback, loads a few
// objects through its RunTx, and reads them back through View; the
// counters report the work, summed over however many servers there are.
func TestOpenShapes(t *testing.T) {
	for _, tc := range []struct {
		shape Shape
		mode  string
	}{
		{Shape{}, "embedded"},
		{Shape{Kind: Remote}, "remote"},
		{Shape{Kind: Sharded, Shards: 3}, "sharded-3"},
	} {
		d, err := Open(tc.shape)
		if err != nil {
			t.Fatalf("%s: %v", tc.mode, err)
		}
		if d.Mode() != tc.mode {
			t.Errorf("mode %q, want %q", d.Mode(), tc.mode)
		}
		oids, err := d.Insert(7, func(i int) *ode.Object {
			return NewStock(d.World.Stock, "x", 1, int64(i), 0)
		})
		if err != nil || len(oids) != 7 {
			t.Fatalf("%s: inserted %d, err %v", tc.mode, len(oids), err)
		}
		before, err := d.Counters()
		if err != nil {
			t.Fatalf("%s: %v", tc.mode, err)
		}
		err = d.View(func(tx ode.ObjectTx) error {
			o, err := tx.Deref(oids[6])
			if err == nil && o.MustGet("qty").Int() != 6 {
				err = fmt.Errorf("read back qty %d", o.MustGet("qty").Int())
			}
			if n, cerr := tx.Count(&ode.Scan{Class: d.Stock}); err == nil && (cerr != nil || n != 7) {
				err = fmt.Errorf("counted %d (%v), want 7", n, cerr)
			}
			return err
		})
		if err != nil {
			t.Errorf("%s: %v", tc.mode, err)
		}
		after, err := d.Counters()
		if err != nil || after["query.rows_yielded"]-before["query.rows_yielded"] != 7 || after["txn.commits"] == 0 {
			t.Errorf("%s: counters %v: yielded %d → %d, commits %d", tc.mode, err,
				before["query.rows_yielded"], after["query.rows_yielded"], after["txn.commits"])
		}
		if tc.shape.Kind == Remote {
			if second, err := d.Dial(&client.Options{CacheSize: -1}); err != nil || second == d.Client {
				t.Errorf("second client: %v", err)
			}
		}
		d.Close()
		d.Close() // idempotent
	}
	if _, err := Open(Connect("127.0.0.1:1")); err == nil {
		t.Error("dialing a dead address succeeded")
	}
}

// TestConnect pins how a -connect list picks the shape: one address is
// a direct session, several are a shard group in the order given.
func TestConnect(t *testing.T) {
	if s := Connect("h:1"); s.Kind != Remote || !reflect.DeepEqual(s.Addrs, []string{"h:1"}) {
		t.Errorf("one address: %+v", s)
	}
	if s := Connect("a:1,b:2,c:3"); s.Kind != Sharded || !reflect.DeepEqual(s.Addrs, []string{"a:1", "b:2", "c:3"}) {
		t.Errorf("three addresses: %+v", s)
	}
	if s := Connect("a:1, b:2"); !reflect.DeepEqual(s.Addrs, []string{"a:1", "b:2"}) {
		t.Errorf("space after the comma kept: %q", s.Addrs)
	}
	// E15 prices one server's wire hop; a group is refused, not half-used.
	p := Defaults()
	p.Div, p.Connect = 100, "a:1,b:2"
	if x := Experiments[14]; x.ID != "E15" {
		t.Fatalf("Experiments[14] is %s", x.ID)
	} else if _, err := x.Build(p); err == nil || !strings.Contains(err.Error(), "E15 measures one server") {
		t.Errorf("E15 against a group: %v", err)
	}
}
