// Benchmarks over the reproduction's evaluation (DESIGN.md §5,
// EXPERIMENTS.md). The experiments E1–E16 are one table in
// internal/bench, shared with cmd/ode-bench; BenchmarkExperiments is
// its testing.B face (b.N calibration, allocs/op). The two ablations
// below have no ode-bench twin. Run with:
//
//	go test -bench=. -benchmem
package ode_test

import (
	"fmt"
	"testing"
	"time"

	"ode"
	"ode/internal/bench"
)

// BenchmarkExperiments runs every case of every experiment as
// E<n>/<row label>[/workers=N]. Worlds are built at ode-bench's -quick
// scale (a tenth of the EXPERIMENTS.md sizes), which keeps the CI
// smoke (-benchtime=1x) to seconds; ode-bench prints the full-size
// tables. ns/op is per Op call — for the batched rows (tx of 20, a
// transaction of derefs) that is per batch, where ode-bench divides by
// the batch — and a case's extra counters are reported as metrics.
func BenchmarkExperiments(b *testing.B) {
	p := bench.Defaults()
	p.Div = 10
	for _, x := range bench.Experiments {
		b.Run(x.ID, func(b *testing.B) {
			env, err := x.Build(p)
			if err != nil {
				b.Fatal(err)
			}
			defer env.Close()
			for _, c := range env.Cases {
				name := c.Label()
				if c.Workers > 0 {
					name += fmt.Sprintf("/workers=%d", c.Workers)
				}
				b.Run(name, func(b *testing.B) { benchCase(b, c) })
			}
		})
	}
}

func benchCase(b *testing.B, c bench.Case) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if c.Prep != nil {
			b.StopTimer()
			if err := c.Prep(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if err := c.Op(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if c.After == nil {
		return
	}
	m := &bench.Measurement{PerOp: b.Elapsed() / time.Duration(b.N), Extra: map[string]float64{}}
	if err := c.After(m); err != nil {
		b.Fatal(err)
	}
	for k, v := range m.Extra {
		b.ReportMetric(v, k)
	}
}

func mustWorld(b *testing.B, opts *ode.Options) *bench.Deployment {
	b.Helper()
	w, err := bench.Open(bench.Shape{Opts: opts})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(w.Close)
	return w
}

// --- Ablations ---

// BenchmarkBufferPoolSweep shows scan throughput vs pool size (working
// set ~ 1200 pages for 50k stockitems).
func BenchmarkBufferPoolSweep(b *testing.B) {
	for _, pages := range []int{64, 256, 4096} {
		b.Run(fmt.Sprintf("pool=%d", pages), func(b *testing.B) {
			w := mustWorld(b, &ode.Options{NoSync: true, PoolPages: pages})
			if _, err := w.LoadStock(50000); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.DB.View(func(tx *ode.Tx) error {
					_, err := ode.Forall(tx, w.Stock).Count()
					return err
				})
			}
		})
	}
}

// BenchmarkCommitDurability contrasts fsync-per-commit with NoSync.
func BenchmarkCommitDurability(b *testing.B) {
	for _, nosync := range []bool{false, true} {
		name := "fsync"
		if nosync {
			name = "nosync"
		}
		b.Run(name, func(b *testing.B) {
			w := mustWorld(b, &ode.Options{NoSync: nosync})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				err := w.DB.RunTx(func(tx *ode.Tx) error {
					o := ode.NewObject(w.Stock)
					o.MustSet("qty", ode.Int(int64(i)))
					_, err := tx.PNew(w.Stock, o)
					return err
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
