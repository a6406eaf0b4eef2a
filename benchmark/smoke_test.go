package main

import (
	"io"
	"path/filepath"
	"testing"
)

// TestSmoke boots every workload in its shape, runs it for a second in
// both modes, and holds the result lines against BENCHMARK.json: the
// same workloads with the same reasons, the same metric names and units,
// every run correct, every end-to-end metric above zero. It is the guard
// that the names never drift.
func TestSmoke(t *testing.T) {
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	setGCPolicy()
	for i, wl := range workloads {
		if w := spec.Workloads[i]; w.Name != wl.name || w.Why != wl.why {
			t.Errorf("workload %d is %q (%q) in BENCHMARK.json, %q (%q) in the program", i, w.Name, w.Why, wl.name, wl.why)
		}
		for _, traced := range []bool{false, true} {
			cfg := config{seed: 1, seconds: 1, smoke: true,
				dir: t.TempDir(), traceDir: t.TempDir()}
			r, err := runOne(wl, cfg, traced, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.name, traced, err)
			}
			if !r.correct() {
				t.Errorf("%s traced=%v: not correct: %d of %d failed, %v", wl.name, traced, r.failed, r.attempted, r.problems)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			got := r.result(traced).Metrics
			if len(got) != len(want) {
				t.Errorf("%s traced=%v: %d metrics reported, BENCHMARK.json lists %d", wl.name, traced, len(got), len(want))
			}
			for _, m := range want {
				v, ok := got[m.Name]
				switch {
				case !ok:
					t.Errorf("%s: %s is in BENCHMARK.json and not reported", wl.name, m.Name)
				case v.Unit != m.Unit:
					t.Errorf("%s: %s is reported in %s, BENCHMARK.json says %s", wl.name, m.Name, v.Unit, m.Unit)
				case !traced && v.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.name, m.Name, v.Value)
				}
			}
		}
	}
}
