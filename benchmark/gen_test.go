package main

import "testing"

// The first 10 000 units of every workload's generator are the same on
// every construction with one (seed, worker), and differ across seeds
// and across workers.
func TestGeneratorIsDeterministic(t *testing.T) {
	const n = 10_000
	for _, wl := range workloads {
		hash := func(seed int64, worker int) uint64 {
			return streamHash(newGenerator(seed, worker, wl.mix), n)
		}
		if hash(7, 0) != hash(7, 0) {
			t.Errorf("%s: two generators with seed 7, worker 0 differ", wl.name)
		}
		if hash(7, 0) == hash(8, 0) {
			t.Errorf("%s: seeds 7 and 8 give the same units", wl.name)
		}
		if hash(7, 0) == hash(7, 1) {
			t.Errorf("%s: workers 0 and 1 give the same units", wl.name)
		}
	}
}

// Any 100 consecutive units hold each kind in exactly the workload's
// proportions, creates and deletes counted together (one may be dealt as
// the other to keep the extent level).
func TestGeneratorDealsTheMix(t *testing.T) {
	for _, wl := range workloads {
		g := newGenerator(3, 0, wl.mix)
		for block := 0; block < 50; block++ {
			var got [numKinds]int
			for i := 0; i < 100; i++ {
				got[g.next().kind]++
			}
			got[kNew] += got[kDelete]
			got[kDelete] = 0
			var want [numKinds]int
			for _, s := range wl.mix {
				want[s.kind] += s.pct
			}
			want[kNew] += want[kDelete]
			want[kDelete] = 0
			if got != want {
				t.Fatalf("%s block %d: dealt %v, want %v", wl.name, block, got, want)
			}
		}
	}
}
