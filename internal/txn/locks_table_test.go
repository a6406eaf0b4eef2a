package txn

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ode/internal/core"
)

// Tests of the striped lock table itself: a stress run against a
// one-mutex reference model, the work gates (allocations, lock words
// visited by a release) and the micro-benchmarks. Run with -race.

// newHeld returns an empty held list for test transaction txid.
func newHeld(txid uint64) *heldList { return &heldList{txid: txid} }

// lockModel is the trivial reference: who holds what, under one mutex.
// A transaction records a grant after Acquire returns and erases its
// entries before ReleaseAll, so the model's holders are always a subset
// of the real ones and an incompatible pair in the model is an
// incompatible pair the manager granted.
type lockModel struct {
	mu   sync.Mutex
	held map[core.OID]map[uint64]LockMode
}

func (m *lockModel) granted(t *testing.T, txid uint64, oid core.OID, mode LockMode) {
	m.mu.Lock()
	defer m.mu.Unlock()
	hs := m.held[oid]
	if hs == nil {
		hs = make(map[uint64]LockMode)
		m.held[oid] = hs
	}
	if cur, ok := hs[txid]; !ok || mode > cur {
		hs[txid] = mode
	}
	for other, om := range hs {
		if other != txid && (om == Exclusive || hs[txid] == Exclusive) {
			t.Errorf("@%d: tx %d holds %s while tx %d holds %s", oid, txid, hs[txid], other, om)
		}
	}
}

// release erases txid's entries and returns them.
func (m *lockModel) release(txid uint64) map[core.OID]LockMode {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[core.OID]LockMode)
	for oid, hs := range m.held {
		if mode, ok := hs[txid]; ok {
			out[oid] = mode
			delete(hs, txid)
		}
	}
	return out
}

func TestLockTableStressAgainstModel(t *testing.T) {
	const (
		workers   = 8
		txPerGo   = 300
		oidSpace  = 6
		maxPerTx  = 5
		seed      = 0x0de16
		patience  = 10 * time.Second
		shortWait = 300 * time.Microsecond // deadlines, and how long a grant may be sat on
	)
	lm := NewLockManager()
	model := &lockModel{held: make(map[core.OID]map[uint64]LockMode)}
	// A request that is not under a short deadline waits under overall:
	// deadlock detection must resolve every such wait, so if overall
	// expires a wake-up was lost.
	overall, cancelAll := context.WithTimeout(context.Background(), patience)
	defer cancelAll()

	var nextTx atomic.Uint64
	var grants, deadlocks, timeouts, cancels atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			for i := 0; i < txPerGo; i++ {
				hl := newHeld(nextTx.Add(1))
				txid := hl.txid
				for n := 1 + rng.Intn(maxPerTx); n > 0; n-- {
					oid := core.OID(1 + rng.Intn(oidSpace))
					mode := LockMode(rng.Intn(2))
					ctx, cancel := overall, context.CancelFunc(func() {})
					switch rng.Intn(8) {
					case 0: // deadline that may expire mid-wait
						ctx, cancel = context.WithTimeout(overall, time.Duration(1+rng.Int63n(int64(shortWait))))
					case 1: // canceled mid-wait from another goroutine
						var stop context.CancelFunc
						ctx, stop = context.WithCancel(overall)
						timer := time.AfterFunc(time.Duration(1+rng.Int63n(int64(shortWait))), stop)
						cancel = func() { timer.Stop(); stop() }
					case 2: // dead on arrival
						ctx, cancel = context.WithCancel(overall)
						cancel()
					}
					err := lm.Acquire(ctx, hl, oid, mode)
					cancel()
					if err == nil {
						grants.Add(1)
						model.granted(t, txid, oid, mode)
						if rng.Intn(4) == 0 { // hold it long enough for waits to expire
							time.Sleep(time.Duration(rng.Int63n(int64(shortWait))))
						}
						continue
					}
					switch {
					case errors.Is(err, ErrDeadlock):
						deadlocks.Add(1)
					case errors.Is(err, ErrTxTimeout):
						timeouts.Add(1)
					case errors.Is(err, ErrCanceled):
						cancels.Add(1)
					default:
						t.Errorf("tx %d: unexpected error %v", txid, err)
					}
					break // any failure aborts the transaction
				}
				want := model.release(txid)
				got := lm.HeldLocks(hl)
				same := len(got) == len(want)
				for oid, mode := range want {
					same = same && got[oid] == mode
				}
				if !same {
					t.Errorf("tx %d holds %v, model says %v", txid, got, want)
				}
				lm.ReleaseAll(hl)
			}
		}(w)
	}
	wg.Wait() // returns: every Acquire is bounded by overall
	if overall.Err() != nil {
		t.Fatalf("a wait outlived %v: lost wake-up or undetected deadlock", patience)
	}
	if n := busyWords(t, lm); n != 0 {
		t.Errorf("lock table holds %d busy words after every release, want 0", n)
	}
	for oid := core.OID(1); oid <= oidSpace; oid++ {
		if n := lm.Waiting(oid); n != 0 {
			t.Errorf("Waiting(@%d) = %d, want 0", oid, n)
		}
	}
	if n := len(lm.waitsFor); n != 0 {
		t.Errorf("waits-for graph keeps %d entries, want 0", n)
	}
	t.Logf("grants %d, deadlocks %d, timeouts %d, cancels %d", grants.Load(), deadlocks.Load(), timeouts.Load(), cancels.Load())
	// The run must have exercised every exit, or it proves nothing.
	for name, n := range map[string]int64{"grants": grants.Load(), "deadlocks": deadlocks.Load(),
		"timeouts": timeouts.Load(), "cancels": cancels.Load()} {
		if n == 0 {
			t.Errorf("stress run saw no %s", name)
		}
	}
}

// Work gate: on a warmed manager an uncontended transaction's lock
// traffic allocates nothing: the list it reuses keeps the capacity its
// first 128 grants spilled to.
func TestUncontendedLockCycleDoesNotAllocate(t *testing.T) {
	lm := NewLockManager()
	bg := context.Background()
	hl := newHeld(0)
	cycle := func() {
		hl.txid++
		for oid := core.OID(1); oid <= 64; oid++ {
			if err := lm.Acquire(bg, hl, oid, Shared); err != nil {
				t.Fatal(err)
			}
			if !lm.TryAcquire(hl, oid+64, Shared) {
				t.Fatal("TryAcquire refused a free word")
			}
		}
		lm.ReleaseAll(hl)
	}
	cycle()
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("Acquire x64 + TryAcquire x64 + ReleaseAll allocates %v times per cycle, want 0", allocs)
	}
	// A new list, as every Tx begins with, holds its first heldInline
	// grants in place: the list is the cycle's one allocation.
	fresh := func() {
		hl := newHeld(hl.txid + 1)
		for oid := core.OID(1); oid <= heldInline; oid++ {
			if err := lm.Acquire(bg, hl, oid, Shared); err != nil {
				t.Fatal(err)
			}
		}
		lm.ReleaseAll(hl)
	}
	if allocs := testing.AllocsPerRun(200, fresh); allocs != 1 {
		t.Fatalf("a new list's %d grants and release allocate %v times, want 1 (the list)", heldInline, allocs)
	}
}

// Work gate: a release costs what the transaction holds, whatever
// other transactions hold.
func TestReleaseVisitsOnlyOwnLocks(t *testing.T) {
	lm := NewLockManager()
	bg := context.Background()
	big, small := newHeld(1), newHeld(2)
	for oid := core.OID(1); oid <= 10000; oid++ {
		if err := lm.Acquire(bg, big, oid, Shared); err != nil {
			t.Fatal(err)
		}
	}
	for _, oid := range []core.OID{3, 5000, 9999, 20000} {
		if err := lm.Acquire(bg, small, oid, Shared); err != nil {
			t.Fatal(err)
		}
	}
	if visited := lm.releaseAll(small); visited != 4 {
		t.Fatalf("releasing 4 locks visited %d lock words, want 4", visited)
	}
	if n := busyWords(t, lm); n != 10000 {
		t.Fatalf("lock table holds %d busy words, want the other transaction's 10000", n)
	}
	if visited := lm.releaseAll(big); visited != 10000 {
		t.Fatalf("releasing 10000 locks visited %d lock words", visited)
	}
	if n := busyWords(t, lm); n != 0 {
		t.Fatalf("lock table holds %d busy words after both releases, want 0", n)
	}
	// 10 000 words over 64 stripes leave every stripe past its bound.
	if _, idle := lm.TableSize(); idle != lockStripes*maxIdleWords {
		t.Fatalf("lock table keeps %d idle words, want the bound, %d", idle, lockStripes*maxIdleWords)
	}
}

// busyWords is TableSize's busy count, after checking every stripe's
// idle words: its count matches its map and stays within maxIdleWords.
func busyWords(t *testing.T, lm *LockManager) int {
	t.Helper()
	for i := range lm.stripes {
		s := &lm.stripes[i]
		s.mu.Lock()
		idle := 0
		for _, ls := range s.locks {
			if ls.idle() {
				idle++
			}
		}
		counted := s.idle
		s.mu.Unlock()
		if idle != counted || idle > maxIdleWords {
			t.Errorf("stripe %d: %d idle words in its map, %d counted, bound %d", i, idle, counted, maxIdleWords)
		}
	}
	busy, _ := lm.TableSize()
	return busy
}

// sameStripe returns n OIDs that all map to oid 1's stripe.
func sameStripe(lm *LockManager, n int) []core.OID {
	want := lm.stripe(1)
	var out []core.OID
	for oid := core.OID(1); len(out) < n; oid++ {
		if lm.stripe(oid) == want {
			out = append(out, oid)
		}
	}
	return out
}

// A word a release leaves idle stays in its stripe until the stripe
// holds maxIdleWords of them; the release that would pass the bound
// drops its word to the free list, and locking that object again
// inserts a word (txn.lock_words, counted at release).
func TestIdleWordsResidentUpToBound(t *testing.T) {
	lm := NewLockManager()
	bg := context.Background()
	h1, h2 := newHeld(1), newHeld(2)
	oids := sameStripe(lm, maxIdleWords+1)
	s := lm.stripe(oids[0])
	for _, oid := range oids {
		if err := lm.Acquire(bg, h1, oid, Shared); err != nil {
			t.Fatal(err)
		}
	}
	lm.ReleaseAll(h1) // in grant order: the last release is over the bound
	if got := lm.met.LockWords.Load(); got != maxIdleWords+1 {
		t.Fatalf("txn.lock_words = %d after locking %d objects, want %d", got, len(oids), len(oids))
	}
	if n := busyWords(t, lm); n != 0 {
		t.Fatalf("lock table holds %d busy words after release, want 0", n)
	}
	last := oids[maxIdleWords]
	if s.idle != maxIdleWords || len(s.locks) != maxIdleWords || s.locks[last] != nil || len(s.free) != 1 {
		t.Fatalf("stripe after release: %d idle, %d words, @%d resident %v, %d free; want %d, %d, false, 1",
			s.idle, len(s.locks), last, s.locks[last] != nil, len(s.free), maxIdleWords, maxIdleWords)
	}
	for _, oid := range oids[:maxIdleWords] {
		if err := lm.Acquire(bg, h2, oid, Exclusive); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.locks) != maxIdleWords || len(s.free) != 1 {
		t.Fatalf("relocking resident words: %d words, %d free; want %d, 1", len(s.locks), len(s.free), maxIdleWords)
	}
	if err := lm.Acquire(bg, h2, last, Shared); err != nil {
		t.Fatal(err)
	}
	if s.locks[last] == nil || len(s.free) != 0 {
		t.Fatalf("relocking the dropped word: resident %v, %d free; want true, 0 (recycled)", s.locks[last] != nil, len(s.free))
	}
	lm.ReleaseAll(h2)
	if got := lm.met.LockWords.Load(); got != maxIdleWords+2 {
		t.Fatalf("txn.lock_words = %d after relocking, want %d: one insert, for the dropped word", got, maxIdleWords+2)
	}
	if n := busyWords(t, lm); n != 0 {
		t.Fatalf("lock table holds %d busy words after release, want 0", n)
	}
}

// Work gate: a warm lock cycle on resident words leaves every stripe's
// map as it was — the same words under the same OIDs, nothing inserted
// or deleted — so a warm reader writes no map another core reads.
func TestWarmLockCycleLeavesMapUnchanged(t *testing.T) {
	lm := NewLockManager()
	bg := context.Background()
	hl := newHeld(0)
	cycle := func() {
		hl.txid++
		for oid := core.OID(1); oid <= 64; oid++ {
			if err := lm.Acquire(bg, hl, oid, Shared); err != nil {
				t.Fatal(err)
			}
			if !lm.TryAcquire(hl, oid+64, Shared) {
				t.Fatal("TryAcquire refused a free word")
			}
		}
		lm.ReleaseAll(hl)
	}
	snapshot := func() []map[core.OID]*lockState {
		out := make([]map[core.OID]*lockState, lockStripes)
		for i := range lm.stripes {
			out[i] = make(map[core.OID]*lockState, len(lm.stripes[i].locks))
			for oid, ls := range lm.stripes[i].locks {
				out[i][oid] = ls
			}
		}
		return out
	}
	cycle()
	before, words := snapshot(), lm.met.LockWords.Load()
	if _, idle := lm.TableSize(); idle != 128 {
		t.Fatalf("%d idle words after the cold cycle, want all 128 resident", idle)
	}
	for i := 0; i < 3; i++ {
		cycle()
	}
	after := snapshot()
	for i := range before {
		same := len(before[i]) == len(after[i])
		for oid, ls := range before[i] {
			same = same && after[i][oid] == ls
		}
		if !same {
			t.Fatalf("stripe %d changed across warm cycles: %d words -> %d", i, len(before[i]), len(after[i]))
		}
	}
	if got := lm.met.LockWords.Load(); got != words {
		t.Fatalf("txn.lock_words %d -> %d across warm cycles, want no insert", words, got)
	}
	if n := busyWords(t, lm); n != 0 {
		t.Fatalf("lock table holds %d busy words after release, want 0", n)
	}
}

// BenchmarkLockManager: one op is a transaction's lock traffic, 16
// shared acquires and one ReleaseAll.
func BenchmarkLockManager(b *testing.B) {
	const perTx = 16
	bg := context.Background()
	// run splits b.N transactions over goroutines; oidBase gives each
	// goroutine its OID range.
	run := func(b *testing.B, goroutines int, oidBase func(g int) core.OID) {
		lm := NewLockManager()
		var nextTx atomic.Uint64
		b.ReportAllocs()
		b.ResetTimer()
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				base := oidBase(g)
				hl := newHeld(0)
				for i := g; i < b.N; i += goroutines {
					hl.txid = nextTx.Add(1)
					for k := core.OID(0); k < perTx; k++ {
						if err := lm.Acquire(bg, hl, base+k, Shared); err != nil {
							b.Error(err)
							return
						}
					}
					lm.ReleaseAll(hl)
				}
			}(g)
		}
		wg.Wait()
	}
	b.Run("uncontended", func(b *testing.B) {
		run(b, 1, func(int) core.OID { return 1 })
	})
	b.Run("two-goroutines-disjoint", func(b *testing.B) {
		run(b, 2, func(g int) core.OID { return core.OID(1 + 1000*g) })
	})
	b.Run("two-goroutines-same-oid-shared", func(b *testing.B) {
		run(b, 2, func(int) core.OID { return 1 })
	})
}
