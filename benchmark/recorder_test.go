package main

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// fill spreads the values 1..n, shuffled, over the workers' recorders in
// slice i.
func fill(rs []*recorder, i, n int, write bool) {
	k := kWalk
	if write {
		k = kUpdate
	}
	rng := rand.New(rand.NewSource(int64(n)))
	for j, v := range rng.Perm(n) {
		rs[j%len(rs)].add(i, k, int64(v+1))
	}
}

func TestQuantileKnownDistribution(t *testing.T) {
	rs := []*recorder{newRecorder(1, 16), newRecorder(1, 16)}
	fill(rs, 0, 10000, false)
	sorted := merged(rs, []int{0}, true, true)
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2500.75}, {0.5, 5000.5}, {0.99, 9900.01}, {1, 10000},
	} {
		if got := quantile(sorted, c.q); math.Abs(got-c.want) > 1e-6 {
			t.Errorf("quantile(1..10000, %v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestMergedSelectsSlicesAndClasses(t *testing.T) {
	rs := []*recorder{newRecorder(3, 16), newRecorder(3, 16)}
	fill(rs, 0, 100, false)
	fill(rs, 1, 50, true)
	fill(rs, 2, 1000, false)
	if got := merged(rs, []int{0, 1}, true, true); len(got) != 150 || !slices.IsSorted(got) {
		t.Errorf("slices 0 and 1 merged: %d samples, sorted %v; want 150 sorted", len(got), slices.IsSorted(got))
	}
	if got := merged(rs, []int{0, 1, 2}, false, true); len(got) != 50 {
		t.Errorf("writes of all slices: %d samples, want 50", len(got))
	}
}

func TestPercentileNeedsATailOfSamples(t *testing.T) {
	rs := []*recorder{newRecorder(1, 16)}
	fill(rs, 0, 1000, true)
	enough := merged(rs, []int{0}, true, true)
	if v, ok := percentile(enough, 0.99); !ok || v < 989 || v > 991 {
		t.Errorf("p99 of 1..1000 = %v ok %v, want about 990", v, ok)
	}
	// 999 samples leave fewer than ten beyond the 99th percentile: no p99
	// at all rather than a guess, but still a p95 and a median.
	few := enough[:999]
	if v, ok := percentile(few, 0.99); ok {
		t.Errorf("p99 reported from %d samples: %v", len(few), v)
	}
	if _, ok := percentile(few, 0.95); !ok {
		t.Error("p95 withheld from 999 samples")
	}
	if _, ok := percentile(few[:1], 0.5); !ok {
		t.Error("median withheld from one sample")
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("median reported from no samples")
	}
}

func TestQuietestKeepsTheBusiestTwentieth(t *testing.T) {
	// Forty slices; the host froze the process in slices 2 and 5.
	work := make([]float64, 40)
	for i := range work {
		work[i] = 1 + float64(i%7)/100
	}
	work[2], work[5] = 0.2, 0
	got := quietest(work)
	slices.Sort(got)
	if !slices.Equal(got, []int{6, 13}) {
		t.Errorf("quietest = %v, want slices 6 and 13", got)
	}
	if got := quietest([]float64{7}); !slices.Equal(got, []int{0}) {
		t.Errorf("quietest of one slice = %v, want it kept", got)
	}
}

func TestWorkCountsAUnitAtItsKindsMeanLatency(t *testing.T) {
	// Walks take 1 ms and counts 9 ms, except that everything in slice 2
	// took twice as long. Slice 0 drew four walks, slice 1 one count and
	// one walk, slice 2 half of slice 1's units in the same time.
	r := newRecorder(3, 4)
	const ms = 1_000_000
	for i := 0; i < 4; i++ {
		r.add(0, kWalk, 1*ms)
	}
	r.add(1, kCount, 9*ms)
	r.add(1, kWalk, 1*ms)
	r.add(2, kCount, 18*ms)
	work, units := workPerSlice([]*recorder{r})
	if !slices.Equal(units, []float64{4, 2, 1}) {
		t.Errorf("units = %v, want 4, 2, 1", units)
	}
	// Mean walk 1 ms, mean count 13.5 ms.
	for i, want := range []float64{0.004, 0.0145, 0.0135} {
		if math.Abs(work[i]-want) > 1e-12 {
			t.Errorf("work[%d] = %v, want %v", i, work[i], want)
		}
	}
	// By units slice 0 did the most; by work it did the least.
	if got := quietest(work); !slices.Equal(got, []int{1}) {
		t.Errorf("quietest = %v, want slice 1", got)
	}
}

func TestCPUPerSliceInterpolatesBetweenReadings(t *testing.T) {
	const d = 100 * time.Millisecond
	// Two workers read a clock that runs at 2 CPU-seconds a second for
	// 200 ms and at 1 after; no reading falls on a slice boundary, and
	// none is taken during slice 2.
	a := &recorder{clock: []cpuReading{{-10 * time.Millisecond, 4.98}, {110 * time.Millisecond, 5.22}, {410 * time.Millisecond, 5.61}}}
	b := &recorder{clock: []cpuReading{{20 * time.Millisecond, 5.04}, {200 * time.Millisecond, 5.40}, {320 * time.Millisecond, 5.52}}}
	got := cpuPerSlice([]*recorder{a, b}, 4, d)
	for i, want := range []float64{0.2, 0.2, 0.1, 0.1} {
		if math.Abs(got[i]-want) > 1e-9 {
			t.Errorf("slice %d: %v CPU seconds, want %v (all: %v)", i, got[i], want, got)
		}
	}
	if got := cpuPerSlice([]*recorder{{}}, 2, d); got[0] != 0 || got[1] != 0 {
		t.Errorf("no readings: %v, want zeros", got)
	}
}
