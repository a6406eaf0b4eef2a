// Package clockmap is a bounded concurrent map from integer ids to
// values that evicts by CLOCK (second chance). Both decoded-object
// caches keep their entries in one: the engine's (internal/object) and
// the remote client's (client).
//
// A hit reads its entry under its shard's read lock and sets the
// entry's reference bit, storing it only when it is clear; it moves
// nothing, so concurrent hits on one shard neither serialize on a mutex
// nor write one list. A Put into a full shard sweeps that shard's ring
// from the hand: a referenced entry has its bit cleared and is passed
// over (its second chance), and the first unreferenced one is the
// victim. A Delete puts its ring position on a free list, which the
// next Put takes before it grows the ring or sweeps.
package clockmap

import (
	"sync"
	"sync/atomic"
)

// shardBits is log2 of the number of shards.
const shardBits = 4

// numShards is how many independently locked pieces a Map has; a Map's
// capacity is divided evenly between them.
const numShards = 1 << shardBits

// Map maps ids to values, at most capacity/numShards of them per shard
// (one, if capacity is positive and smaller than numShards). A Map of
// capacity <= 0 holds nothing: every Get misses.
type Map[K ~uint64, V any] struct {
	shards [numShards]shard[K, V]
}

type shard[K ~uint64, V any] struct {
	mu    sync.RWMutex
	cap   int           // most entries the shard holds; <= 0 holds none
	index map[K]int32   // id -> position in ring
	ring  []entry[K, V] // allocated at cap by the first Put
	free  []int32       // positions Delete emptied, reused first
	hand  int           // next position the sweep looks at
	_     [32]byte      // a shard to a cache line of its own
}

type entry[K ~uint64, V any] struct {
	key K
	val V
	ref atomic.Bool // set by a hit, cleared by a sweep that passes it
}

// New returns an empty Map holding at most capacity entries.
func New[K ~uint64, V any](capacity int) *Map[K, V] {
	m := &Map[K, V]{}
	m.Reset(capacity)
	return m
}

// shard maps an id to its shard (Fibonacci hash of the id).
func (m *Map[K, V]) shard(k K) *shard[K, V] {
	return &m.shards[(uint64(k)*0x9E3779B97F4A7C15)>>(64-shardBits)]
}

// Get returns k's value and marks the entry referenced.
func (m *Map[K, V]) Get(k K) (v V, ok bool) {
	s := m.shard(k)
	s.mu.RLock()
	if i, hit := s.index[k]; hit {
		e := &s.ring[i]
		if !e.ref.Load() {
			e.ref.Store(true)
		}
		v, ok = e.val, true
	}
	s.mu.RUnlock()
	return v, ok
}

// Peek returns k's value without marking the entry referenced: a look
// that is not a use, such as gathering what is cached near an entry.
func (m *Map[K, V]) Peek(k K) (v V, ok bool) {
	s := m.shard(k)
	s.mu.RLock()
	if i, hit := s.index[k]; hit {
		v, ok = s.ring[i].val, true
	}
	s.mu.RUnlock()
	return v, ok
}

// Put stores v under k, replacing k's value if it has one, and reports
// whether the size bound evicted another entry to make room.
func (m *Map[K, V]) Put(k K, v V) (evicted bool) {
	s := m.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cap <= 0 {
		return false
	}
	if i, ok := s.index[k]; ok {
		s.ring[i].val = v
		s.ring[i].ref.Store(true)
		return false
	}
	var i int32
	switch {
	case len(s.free) > 0:
		i = s.free[len(s.free)-1]
		s.free = s.free[:len(s.free)-1]
	case len(s.ring) < s.cap:
		if s.ring == nil {
			s.ring = make([]entry[K, V], 0, s.cap)
		}
		i = int32(len(s.ring))
		s.ring = s.ring[:i+1]
	default:
		i = s.victim()
		delete(s.index, s.ring[i].key)
		evicted = true
	}
	e := &s.ring[i]
	e.key, e.val = k, v
	e.ref.Store(false)
	s.index[k] = i
	return evicted
}

// victim sweeps a full ring from the hand: it clears the bit of each
// referenced entry it passes and returns the first unreferenced one,
// leaving the hand just past it. Two turns at most.
func (s *shard[K, V]) victim() int32 {
	for {
		i := s.hand
		if s.hand++; s.hand == len(s.ring) {
			s.hand = 0
		}
		if e := &s.ring[i]; e.ref.Load() {
			e.ref.Store(false)
		} else {
			return int32(i)
		}
	}
}

// Delete drops k's entry and reports whether there was one.
func (m *Map[K, V]) Delete(k K) bool {
	s := m.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.index[k]
	if !ok {
		return false
	}
	delete(s.index, k)
	var zero V
	s.ring[i].val = zero
	s.free = append(s.free, i)
	return true
}

// Clear empties the Map and returns how many entries it dropped.
func (m *Map[K, V]) Clear() int {
	n := 0
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		n += s.clear()
		s.mu.Unlock()
	}
	return n
}

// Reset empties the Map and installs a new capacity.
func (m *Map[K, V]) Reset(capacity int) {
	per := capacity / numShards
	if capacity > 0 && per == 0 {
		per = 1
	}
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		s.clear()
		if s.cap != per {
			s.cap, s.ring = per, nil
		}
		s.mu.Unlock()
	}
}

// clear empties the shard and returns how many entries it dropped.
func (s *shard[K, V]) clear() int {
	n := len(s.index)
	clear(s.ring)
	s.ring = s.ring[:0]
	s.index = make(map[K]int32)
	s.free, s.hand = nil, 0
	return n
}

// Len counts the entries.
func (m *Map[K, V]) Len() int {
	n := 0
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		n += len(s.index)
		s.mu.RUnlock()
	}
	return n
}
