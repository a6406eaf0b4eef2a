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
// one-mutex reference model, the parallel-forall shape (one txid, many
// goroutines), the work gates (allocations, lock words visited by a
// release) and the micro-benchmarks. Run with -race.

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
				txid := nextTx.Add(1)
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
					err := lm.Acquire(ctx, txid, oid, mode)
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
				got := lm.HeldLocks(txid)
				same := len(got) == len(want)
				for oid, mode := range want {
					same = same && got[oid] == mode
				}
				if !same {
					t.Errorf("tx %d holds %v, model says %v", txid, got, want)
				}
				lm.ReleaseAll(txid)
			}
		}(w)
	}
	wg.Wait() // returns: every Acquire is bounded by overall
	if overall.Err() != nil {
		t.Fatalf("a wait outlived %v: lost wake-up or undetected deadlock", patience)
	}
	if n := lm.TableSize(); n != 0 {
		t.Errorf("lock table holds %d entries after every release, want 0", n)
	}
	for oid := core.OID(1); oid <= oidSpace; oid++ {
		if n := lm.Waiting(oid); n != 0 {
			t.Errorf("Waiting(@%d) = %d, want 0", oid, n)
		}
	}
	if n := len(lm.waitsFor); n != 0 {
		t.Errorf("waits-for graph keeps %d entries, want 0", n)
	}
	for i := range lm.held {
		if n := len(lm.held[i].byTx); n != 0 {
			t.Errorf("held stripe %d keeps %d transactions, want 0", i, n)
		}
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

// The lock table knows holders by txid, not by goroutine, and every
// method is safe for concurrent use: one txid acquiring from several
// goroutines at once still ends with one word per OID, released once.
// The engine never does this (a Tx belongs to one goroutine); the
// table's contract does not depend on it.
func TestSameTxConcurrentAcquire(t *testing.T) {
	const goroutines, perGo, distinct = 8, 400, 1000
	lm := NewLockManager()
	bg := context.Background()
	const txid = 42
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perGo; i++ {
				// Overlapping ranges: most OIDs are requested by three
				// goroutines, some of them as an upgrade.
				oid := core.OID(1 + (g*perGo/3+i)%distinct)
				if err := lm.Acquire(bg, txid, oid, LockMode(i%2)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	held := lm.HeldLocks(txid)
	if len(held) != lm.TableSize() {
		t.Fatalf("HeldLocks reports %d OIDs, table has %d", len(held), lm.TableSize())
	}
	if visited := lm.releaseAll(txid); visited != len(held) {
		t.Fatalf("release visited %d lock words, want one per held OID (%d)", visited, len(held))
	}
	if n := lm.TableSize(); n != 0 {
		t.Fatalf("lock table holds %d entries after release, want 0", n)
	}
}

// Work gate: on a warmed manager an uncontended transaction's lock
// traffic allocates nothing.
func TestUncontendedLockCycleDoesNotAllocate(t *testing.T) {
	lm := NewLockManager()
	bg := context.Background()
	txid := uint64(0)
	cycle := func() {
		txid++
		for oid := core.OID(1); oid <= 64; oid++ {
			if err := lm.Acquire(bg, txid, oid, Shared); err != nil {
				t.Fatal(err)
			}
			if !lm.TryAcquire(txid, oid+64, Shared) {
				t.Fatal("TryAcquire refused a free word")
			}
		}
		lm.ReleaseAll(txid)
	}
	for i := 0; i < 2*lockStripes; i++ { // every txid stripe has a list to recycle
		cycle()
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("Acquire x64 + TryAcquire x64 + ReleaseAll allocates %v times per cycle, want 0", allocs)
	}
}

// Work gate: a release costs what the transaction holds, whatever
// other transactions hold.
func TestReleaseVisitsOnlyOwnLocks(t *testing.T) {
	lm := NewLockManager()
	bg := context.Background()
	const big, small = 1, 2
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
	if n := lm.TableSize(); n != 10000 {
		t.Fatalf("lock table holds %d entries, want the other transaction's 10000", n)
	}
	if visited := lm.releaseAll(big); visited != 10000 {
		t.Fatalf("releasing 10000 locks visited %d lock words", visited)
	}
	if n := lm.TableSize(); n != 0 {
		t.Fatalf("lock table holds %d entries after both releases, want 0", n)
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
				for i := g; i < b.N; i += goroutines {
					txid := nextTx.Add(1)
					for k := core.OID(0); k < perTx; k++ {
						if err := lm.Acquire(bg, txid, base+k, Shared); err != nil {
							b.Error(err)
							return
						}
					}
					lm.ReleaseAll(txid)
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
