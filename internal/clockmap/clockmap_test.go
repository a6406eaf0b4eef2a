package clockmap

import (
	"sync"
	"testing"
)

type id uint64

// sameShard returns n keys that all map to shard 0 of m.
func sameShard(m *Map[id, int], n int) []id {
	var keys []id
	for k := id(1); len(keys) < n; k++ {
		if m.shard(k) == &m.shards[0] {
			keys = append(keys, k)
		}
	}
	return keys
}

// A hit gives its entry a second chance: the sweep clears its bit and
// evicts the unreferenced entry instead. With its bit spent, the entry
// is the next victim.
func TestReferencedEntrySurvivesOneSweep(t *testing.T) {
	m := New[id, int](2 * numShards)
	k := sameShard(m, 4)
	m.Put(k[0], 0)
	m.Put(k[1], 1)
	if _, ok := m.Get(k[0]); !ok {
		t.Fatal("miss on a fresh entry")
	}
	if !m.Put(k[2], 2) {
		t.Fatal("a put into a full shard evicted nothing")
	}
	if _, ok := m.Peek(k[0]); !ok {
		t.Error("the referenced entry was evicted")
	}
	if _, ok := m.Peek(k[1]); ok {
		t.Error("the unreferenced entry survived")
	}
	if !m.Put(k[3], 3) {
		t.Fatal("a put into a full shard evicted nothing")
	}
	if _, ok := m.Peek(k[0]); ok {
		t.Error("an entry whose bit a sweep cleared survived the next sweep")
	}
	if v, ok := m.Get(k[2]); !ok || v != 2 {
		t.Errorf("Get(k2) = %d, %v", v, ok)
	}
}

// Peek is not a use: it leaves the bit clear, so the peeked entry is
// the victim.
func TestPeekDoesNotReference(t *testing.T) {
	m := New[id, int](numShards)
	k := sameShard(m, 2)
	m.Put(k[0], 0)
	m.Peek(k[0])
	m.Put(k[1], 1)
	if _, ok := m.Peek(k[0]); ok {
		t.Error("a peeked entry survived the sweep")
	}
}

// A Delete frees its ring position and the next Put takes it: nothing
// is evicted and the ring does not grow.
func TestDeleteFreesSlotForPut(t *testing.T) {
	m := New[id, int](3 * numShards)
	k := sameShard(m, 4)
	for i := 0; i < 3; i++ {
		m.Put(k[i], i)
	}
	s := &m.shards[0]
	at := s.index[k[1]]
	if !m.Delete(k[1]) || m.Delete(k[1]) {
		t.Fatal("Delete does not report what it dropped")
	}
	if m.Put(k[3], 3) {
		t.Error("a put after a delete evicted an entry")
	}
	if len(s.ring) != 3 || s.index[k[3]] != at {
		t.Errorf("the put took position %d of a ring of %d, want position %d of 3", s.index[k[3]], len(s.ring), at)
	}
	for _, kk := range []id{k[0], k[2], k[3]} {
		if _, ok := m.Peek(kk); !ok {
			t.Errorf("key %d lost", kk)
		}
	}
}

// Filling far past the capacity keeps every shard at its bound, and
// every put beyond what the map holds reports one eviction.
func TestSizeBound(t *testing.T) {
	const capacity = 4 * numShards
	m := New[id, int](capacity)
	evicted := 0
	const n = 50 * capacity
	for k := id(1); k <= n; k++ {
		if m.Put(k, int(k)) {
			evicted++
		}
		if k%3 == 0 {
			m.Get(k - 1)
		}
	}
	if got := m.Len(); got > capacity || got+evicted != n {
		t.Errorf("Len = %d, evicted %d, after %d puts into capacity %d", got, evicted, n, capacity)
	}
	for i := range m.shards {
		if got := len(m.shards[i].index); got != capacity/numShards {
			t.Errorf("shard %d holds %d, want %d", i, got, capacity/numShards)
		}
	}
	if got := m.Clear(); got != capacity || m.Len() != 0 {
		t.Errorf("Clear dropped %d, left %d", got, m.Len())
	}
}

func TestZeroCapacityHoldsNothing(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		m := New[id, int](capacity)
		if m.Put(1, 1) {
			t.Error("a disabled map evicted")
		}
		if _, ok := m.Get(1); ok || m.Len() != 0 {
			t.Errorf("capacity %d holds an entry", capacity)
		}
	}
	m := New[id, int](5)
	m.Put(1, 1)
	m.Reset(-1)
	if _, ok := m.Get(1); ok {
		t.Error("Reset left an entry")
	}
}

// Hits, puts and deletes from many goroutines at once (run under
// -race); a hit returns the value last put under its key.
func TestConcurrentUse(t *testing.T) {
	m := New[id, int](64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := id(i%200 + 1)
				switch i % 5 {
				case 0:
					m.Put(k, int(k))
				case 1:
					m.Delete(k)
				default:
					if v, ok := m.Get(k); ok && v != int(k) {
						t.Errorf("Get(%d) = %d", k, v)
					}
				}
			}
		}()
	}
	wg.Wait()
	if m.Len() > 64 {
		t.Errorf("Len = %d past capacity 64", m.Len())
	}
}
