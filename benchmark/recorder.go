package main

import (
	"cmp"
	"math"
	"slices"
	"time"
)

// tailSamples is the fewest samples beyond a reported percentile: a p99
// rests on at least 1 000 samples, a p95 on 200. A distribution with
// fewer reports no such percentile.
const tailSamples = 10

// recorder holds one worker's raw unit latencies, one pre-allocated
// slice per timed slice and transaction class, so recording a sample is
// an append into memory the worker owns. It also holds the worker's
// readings of the process CPU clock, one at the first unit it finishes in
// each slice: the workers read the clock themselves because a goroutine
// woken by a timer waits up to 10 ms for a processor both workers keep
// busy.
type recorder struct {
	reads, writes [][]int64         // [slice][sample], nanoseconds
	kinds         [][numKinds]total // [slice][kind]: units finished, and their summed latency
	clock         []cpuReading
}

// cpuReading is the process's CPU seconds so far, read at a time since
// the window began.
type cpuReading struct {
	at  time.Duration
	cpu float64
}

func newRecorder(nSlices, capacity int) *recorder {
	r := &recorder{reads: make([][]int64, nSlices), writes: make([][]int64, nSlices), kinds: make([][numKinds]total, nSlices)}
	for i := range r.reads {
		r.reads[i] = make([]int64, 0, capacity)
		r.writes[i] = make([]int64, 0, capacity)
	}
	return r
}

func (r *recorder) add(slice int, k kind, ns int64) {
	r.kinds[slice][k].n++
	r.kinds[slice][k].ns += ns
	if k.isWrite() {
		r.writes[slice] = append(r.writes[slice], ns)
	} else {
		r.reads[slice] = append(r.reads[slice], ns)
	}
}

// cpuPerSlice is the process CPU seconds spent in each of n slices of
// length d, interpolated between all recorders' clock readings.
func cpuPerSlice(rs []*recorder, n int, d time.Duration) []float64 {
	var clock []cpuReading
	for _, r := range rs {
		clock = append(clock, r.clock...)
	}
	slices.SortFunc(clock, func(a, b cpuReading) int { return cmp.Compare(a.at, b.at) })
	out := make([]float64, n)
	if len(clock) == 0 {
		return out
	}
	next := 0 // first reading at or after the boundary in hand
	at := func(t time.Duration) float64 {
		for next < len(clock) && clock[next].at < t {
			next++
		}
		switch {
		case next == 0:
			return clock[0].cpu
		case next == len(clock):
			return clock[len(clock)-1].cpu
		}
		a, b := clock[next-1], clock[next]
		return a.cpu + (b.cpu-a.cpu)*float64(t-a.at)/float64(b.at-a.at)
	}
	before := at(0)
	for i := range out {
		after := at(time.Duration(i+1) * d)
		out[i], before = after-before, after
	}
	return out
}

// workPerSlice is the work done in each slice, in seconds: every unit
// that finished in it, counted at the mean latency of its kind over the
// whole window. Counting units alone would call a slice quiet for having
// drawn cheap kinds: a slice of a slow workload holds a dozen units whose
// costs differ tenfold. It also returns the units finished in each slice.
func workPerSlice(rs []*recorder) (work, units []float64) {
	if len(rs) == 0 {
		return nil, nil
	}
	var whole [numKinds]total
	for _, r := range rs {
		for i := range r.kinds {
			for k, t := range r.kinds[i] {
				whole[k].n += t.n
				whole[k].ns += t.ns
			}
		}
	}
	work, units = make([]float64, len(rs[0].kinds)), make([]float64, len(rs[0].kinds))
	for _, r := range rs {
		for i := range r.kinds {
			for k, t := range r.kinds[i] {
				if t.n > 0 {
					work[i] += float64(t.n) * float64(whole[k].ns) / float64(whole[k].n) / 1e9
					units[i] += float64(t.n)
				}
			}
		}
	}
	return work, units
}

// merged returns the samples of the given slices over all recorders,
// sorted; reads and writes select the transaction classes to include.
func merged(rs []*recorder, which []int, reads, writes bool) []int64 {
	var out []int64
	for _, r := range rs {
		for _, i := range which {
			if reads {
				out = append(out, r.reads[i]...)
			}
			if writes {
				out = append(out, r.writes[i]...)
			}
		}
	}
	slices.Sort(out)
	return out
}

// quantile reads the q-quantile off sorted samples by linear
// interpolation between the two nearest ranks.
func quantile[T int64 | float64](sorted []T, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	frac := pos - float64(lo)
	return float64(sorted[lo])*(1-frac) + float64(sorted[hi])*frac
}

// percentile reads the q-quantile off sorted samples if they support it:
// a percentile above the median needs tailSamples samples beyond it.
// With fewer, nothing is reported (ok false) rather than a guess.
func percentile(sorted []int64, q float64) (v float64, ok bool) {
	need := 1.0
	if q > 0.5 {
		need = tailSamples / (1 - q)
	}
	// The tolerance keeps 10/(1-0.99) from asking for a 1001st sample.
	if float64(len(sorted)) < need-1e-6 {
		return 0, false
	}
	return quantile(sorted, q), true
}

// quietShare is the share of a window's slices the end-to-end metrics are
// computed over: the twentieth in which most work was done.
const quietShare = 20

// quietest returns the indices of the len(work)/quietShare slices with
// the most work; at least one slice.
func quietest(work []float64) []int {
	order := make([]int, len(work))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(work[b], work[a]) })
	return order[:max(len(work)/quietShare, 1)]
}

// sum adds up the values at the given indices.
func sum(values []float64, which []int) float64 {
	var out float64
	for _, i := range which {
		out += values[i]
	}
	return out
}

// sumAll adds up all the values.
func sumAll(values []float64) float64 {
	var out float64
	for _, v := range values {
		out += v
	}
	return out
}

// median is the middle of values, which it sorts in place; 0 for none.
func median(values []float64) float64 {
	slices.Sort(values)
	return quantile(values, 0.5)
}
