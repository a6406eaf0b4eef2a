package obs

import (
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != workers*per {
		t.Fatalf("Counter.Load() = %d, want %d", got, workers*per)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(5)
	g.Add(-2)
	g.Add(10)
	if got := g.Load(); got != 13 {
		t.Fatalf("Gauge.Load() = %d, want 13", got)
	}
}

func TestHistogramBucketing(t *testing.T) {
	var h Histogram
	cases := []struct {
		d      time.Duration
		bucket int
	}{
		{500 * time.Nanosecond, 0},             // under the first bound
		{time.Microsecond, 0},                  // exactly the first bound (inclusive)
		{2 * time.Microsecond, 1},              // between 1µs and 4µs
		{100 * time.Microsecond, 4},            // (64µs, 256µs]
		{time.Millisecond, 5},                  // (256µs, 1.024ms]
		{10 * time.Second, numHistBuckets - 1}, // overflow
	}
	for _, c := range cases {
		h.Observe(c.d)
	}
	s := h.Snapshot()
	if s.Count != uint64(len(cases)) {
		t.Fatalf("Count = %d, want %d", s.Count, len(cases))
	}
	want := [numHistBuckets]uint64{}
	var wantSum time.Duration
	for _, c := range cases {
		want[c.bucket]++
		wantSum += c.d
	}
	if s.Buckets != want {
		t.Fatalf("Buckets = %v, want %v", s.Buckets, want)
	}
	if s.Sum != wantSum {
		t.Fatalf("Sum = %v, want %v", s.Sum, wantSum)
	}
	if got := s.Mean(); got != wantSum/time.Duration(len(cases)) {
		t.Fatalf("Mean = %v", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(w+1) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	if got := h.Count(); got != workers*per {
		t.Fatalf("Count = %d, want %d", got, workers*per)
	}
	s := h.Snapshot()
	var total uint64
	for _, b := range s.Buckets {
		total += b
	}
	if total != workers*per {
		t.Fatalf("bucket total = %d, want %d", total, workers*per)
	}
}

func TestBucketBound(t *testing.T) {
	if bucketBound(0) != time.Microsecond {
		t.Fatalf("bucketBound(0) = %v", bucketBound(0))
	}
	if bucketBound(numHistBuckets-1) >= 0 {
		t.Fatalf("overflow bucket must report a negative bound")
	}
	if bucketBound(-1) >= 0 {
		t.Fatalf("out-of-range bucket must report a negative bound")
	}
}

func TestRegistry(t *testing.T) {
	reg := NewRegistry()
	m := new(Metrics)
	reg.Attach(m)
	m.Pool.Hits.Add(3)
	m.Txn.CommitNS.Observe(time.Millisecond)

	names := reg.Names()
	if len(names) == 0 {
		t.Fatal("registry is empty")
	}
	snap := reg.Snapshot()
	if len(snap) != len(names) {
		t.Fatalf("snapshot has %d entries, names has %d", len(snap), len(names))
	}
	if got := snap["pool.hits"]; got != uint64(3) {
		t.Fatalf("pool.hits = %v, want 3", got)
	}
	hs, ok := snap["txn.commit_ns"].(HistogramSnapshot)
	if !ok || hs.Count != 1 {
		t.Fatalf("txn.commit_ns = %#v", snap["txn.commit_ns"])
	}
}

func TestNilRegistry(t *testing.T) {
	// Attaching to a nil registry leaves a usable, unregistered set.
	var reg *Registry
	m := new(Metrics)
	reg.Attach(m)
	m.WAL.Appends.Inc()
	if m.WAL.Appends.Load() != 1 {
		t.Fatal("unregistered metrics must still count")
	}
}

// TestAttach checks the tag walk: a nested set registers each metric
// under its own tag, whatever the nesting, and a metric with no tag or
// a name already taken panics at Attach rather than going unexported.
func TestAttach(t *testing.T) {
	type inner struct {
		Lat   Histogram `metric:"t.inner.lat"`
		Level Gauge     `metric:"t.inner.level"`
	}
	type outer struct {
		Ops   Counter `metric:"t.ops"`
		Inner inner
		Label string     // not a metric: skipped
		_     sync.Mutex // unexported: skipped
	}
	reg := NewRegistry()
	set := new(outer)
	reg.Attach(set)
	set.Ops.Add(2)
	set.Inner.Level.Set(-1)
	snap := reg.Snapshot()
	want := map[string]any{"t.ops": uint64(2), "t.inner.level": int64(-1), "t.inner.lat": HistogramSnapshot{}}
	if len(snap) != len(want) {
		t.Fatalf("registered %v, want %d names", reg.Names(), len(want))
	}
	for name, v := range want {
		if snap[name] != v {
			t.Errorf("%s = %#v, want %#v", name, snap[name], v)
		}
	}

	panics := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	panics("an untagged counter", func() {
		NewRegistry().Attach(&struct {
			Ops   Counter `metric:"t.ops"`
			Extra Counter
		}{})
	})
	panics("a duplicate name", func() {
		NewRegistry().Attach(&struct {
			A Counter `metric:"t.same"`
			B struct {
				C Gauge `metric:"t.same"`
			}
		}{})
	})
	panics("a set attached twice", func() { reg.Attach(set) })
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	reg := NewRegistry()
	var c Counter
	reg.RegisterCounter("x", &c)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	reg.RegisterCounter("x", &c)
}
