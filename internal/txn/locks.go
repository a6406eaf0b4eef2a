// Package txn implements transactions for an Ode database: strict
// two-phase locking at two granularities — a cluster (a class's extent,
// the paper's unit of iteration) above the objects in it — with
// deadlock detection, private write buffering (no-steal), and a commit
// that appends the transaction's logical operations to the WAL and
// applies them to the object manager. An extent scan takes S on the
// cluster and reads its rows unlocked (on a shard of a group it locks
// the rows instead); a writer takes IX on the cluster before X on the
// row; a point reader takes S on the row only (DESIGN.md §7 "Cluster
// words").
//
// The paper sets transactions aside ("any O++ program that interacts
// with the database will be considered to be a single transaction") but
// its trigger semantics — independent weakly-coupled action
// transactions, aborted with their triggering transaction — require a
// real transaction mechanism, so this package provides one.
package txn

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"ode/internal/core"
	"ode/internal/obs"
)

// LockMode is shared (read), exclusive (write) or, on a cluster word
// only, intention-exclusive (some row of the cluster is being written).
type LockMode uint8

// Lock modes. S–S and IX–IX are compatible; every other pair
// conflicts. A row word is only ever held S or X.
const (
	Shared LockMode = iota
	Exclusive
	IntentExclusive
)

func (m LockMode) String() string {
	switch m {
	case Shared:
		return "S"
	case IntentExclusive:
		return "IX"
	}
	return "X"
}

// compatible reports whether a new holder in mode a can join holders
// in mode b.
func compatible(a, b LockMode) bool { return a == b && a != Exclusive }

// ClusterLockOID is the lock-table key of class id's cluster word. The
// same striped table and the same held lists take rows and clusters, so
// deadlock detection, ReleaseAll, HeldLocks, the locks a prepared
// transaction keeps and TryAcquire need nothing of their own for
// clusters; no object id has core.ReservedOIDBit set, so a cluster word
// cannot collide with a row.
func ClusterLockOID(id core.ClassID) core.OID { return core.ReservedOIDBit | core.OID(id) }

// ErrDeadlock is returned to a transaction chosen as deadlock victim;
// the caller must abort it.
var ErrDeadlock = errors.New("txn: deadlock detected; transaction chosen as victim")

// ErrLockBusy is Tx.Revalidate with try declining a read whose lock
// would have to wait. Nothing was locked and the transaction is unharmed.
var ErrLockBusy = errors.New("txn: lock not grantable without waiting")

// Table geometry. These are constants, not options: no workload at
// hand wants a different value (DESIGN.md §7 "Lock table").
const (
	// lockStripes is how many independently locked pieces the table is
	// split into.
	lockStripeBits = 6
	lockStripes    = 1 << lockStripeBits
	// maxIdleWords bounds each stripe's resident idle lock words (no
	// holder, no waiter): 4 096 for the engine, about 400 KB. A word a
	// release leaves idle stays in the map, so locking it again inserts
	// nothing; a release that would take the stripe past the bound drops
	// its word instead. The bound stays small: at 1 024 a stripe the
	// resident words cost emb-write peak memory and emb-cold latency
	// (DESIGN.md §7 "Lock table", EXPERIMENTS.md E28).
	maxIdleWords = 64
	// inlineHolders is how many holders a lock word stores in place
	// before spilling to a heap slice.
	inlineHolders = 2
	// maxFreeWords bounds each stripe's free list of lock words, so one
	// huge scan does not pin its peak footprint forever.
	maxFreeWords = 256
	// heldInline is how many granted words a held list stores in place
	// before spilling to a heap slice: wire.MaxDerefCached, the most a
	// remote chase's server transaction grants.
	heldInline = 64
)

// LockManager implements strict 2PL over OIDs with waits-for-graph
// deadlock detection (the victim is the requester that would close a
// cycle). Waits are cancellable: a blocked Acquire observes its
// context and abandons the wait on deadline expiry or cancellation.
//
// The table is striped by OID hash; an uncontended request takes one
// stripe mutex, touches one lock word and allocates nothing, and on a
// resident word it writes nothing but the word. The caller passes its
// held list, which remembers the words it was granted, so ReleaseAll
// visits only what the transaction holds and looks nothing up. Lock
// order: stripe → graphMu, and never two stripes at once.
type LockManager struct {
	stripes [lockStripes]lockStripe

	// graphMu guards waitsFor. Only a request that must wait takes it.
	graphMu  sync.Mutex
	waitsFor map[uint64][]uint64 // txid -> the txids it waits on

	met *obs.TxnMetrics // never nil; Engine.SetMetrics swaps it
}

// lockStripe is one piece of the table, padded to a cache line so
// neighbouring stripes' mutexes do not share one. Its map holds every
// busy word (a holder or a waiter) and up to maxIdleWords idle ones.
type lockStripe struct {
	mu    sync.Mutex
	locks map[core.OID]*lockState
	idle  int          // words in locks with no holder and no waiter
	free  []*lockState // dropped lock words, reset, ready for reuse
	_     [16]byte
}

// heldList is one transaction's granted words, in grant order, under
// the id it holds them by. It belongs to its owner — the Tx's
// goroutine, or whoever claimed the prepared entry that took it over —
// and is not synchronized. A held word is busy, so it stays in its
// stripe's map under its OID, and a release needs no lookup. inserted
// counts the words the grants put into the table; like the grants, they
// are added to the metrics at release. words aliases inline until a
// grant past heldInline spills it, so a list is passed by pointer and
// handed over with moveTo, never copied.
type heldList struct {
	txid     uint64
	words    []*lockState
	inserted uint64
	inline   [heldInline]*lockState
}

// add appends a granted word; inserted says the grant put the word into
// the table (a word is inserted only to be granted at once).
func (hl *heldList) add(ls *lockState, inserted bool) {
	if hl.words == nil {
		hl.words = hl.inline[:0]
	}
	hl.words = append(hl.words, ls)
	if inserted {
		hl.inserted++
	}
}

// moveTo hands hl's words to dst, an empty list, and leaves hl empty
// under the same txid. The words are copied into dst's own slots, so
// dst keeps nothing of hl's owner reachable.
func (hl *heldList) moveTo(dst *heldList) {
	dst.txid, dst.inserted = hl.txid, hl.inserted
	dst.words = append(dst.inline[:0], hl.words...)
	hl.words, hl.inserted = hl.inline[:0], 0
}

type holder struct {
	txid uint64
	mode LockMode
}

// lockState is one OID's lock word. An exclusive holder is always the
// sole holder. Instead of a sync.Cond — whose Wait cannot be raced
// against a context — release is broadcast by closing the wake channel;
// a waiter creates the channel if there is none, snapshots it under the
// stripe mutex and then selects on it against its context's Done
// channel. A holder's held list and a waiter keep pointers to the
// word: a holder or a non-empty queue pins it in the table and out of
// the free list.
type lockState struct {
	oid     core.OID // the word's key, set when it enters the table
	holders []holder // aliases inline until a third holder spills it
	inline  [inlineHolders]holder
	// queue is the requests waiting on the word, in arrival order, each
	// from its first sleep until it is granted or gives up. A fresh
	// request is not granted past a queued one it conflicts with, so a
	// stream of compatible newcomers cannot starve a waiter.
	queue []holder
	wake  chan struct{} // nil until a waiter arrives; nil again once closed
}

// NewLockManager returns an empty lock table.
func NewLockManager() *LockManager {
	lm := &LockManager{
		waitsFor: make(map[uint64][]uint64),
		met:      &obs.TxnMetrics{},
	}
	for i := range lm.stripes {
		lm.stripes[i].locks = make(map[core.OID]*lockState)
	}
	return lm
}

// stripe maps an OID to its piece of the table. A shard allocates OIDs
// congruent to its slot, so the low bits alone would leave stripes
// unused; the multiplicative hash spreads any stride.
func (lm *LockManager) stripe(oid core.OID) *lockStripe {
	return &lm.stripes[(uint64(oid)*0x9E3779B97F4A7C15)>>(64-lockStripeBits)]
}

// word returns oid's lock word, inserting a recycled or new one when
// it is not resident. The caller grants it at once: an idle word, like
// a new one, refuses no request, so it leaves here busy. Caller holds
// s.mu.
func (s *lockStripe) word(oid core.OID) (ls *lockState, inserted bool) {
	if ls = s.locks[oid]; ls != nil {
		if ls.idle() {
			s.idle--
		}
		return ls, false
	}
	if n := len(s.free); n > 0 {
		ls, s.free = s.free[n-1], s.free[:n-1]
	} else {
		ls = &lockState{}
		ls.holders = ls.inline[:0]
	}
	ls.oid = oid
	s.locks[oid] = ls
	return ls, true
}

// idle reports whether nothing holds or waits on the word.
func (ls *lockState) idle() bool { return len(ls.holders) == 0 && len(ls.queue) == 0 }

// settle follows a release or an abandoned wait on a word. A word
// still busy stays; one left idle stays resident while its stripe has
// room, and is otherwise removed (a wait abandoned on the last
// reference must not leak the entry) and recycled reset: holders back
// in place and empty, no channel. Caller holds s.mu.
func (s *lockStripe) settle(ls *lockState) {
	if !ls.idle() {
		return
	}
	if s.idle < maxIdleWords {
		s.idle++
		return
	}
	delete(s.locks, ls.oid)
	if len(s.free) < maxFreeWords {
		ls.holders = ls.inline[:0]
		ls.wake = nil
		s.free = append(s.free, ls)
	}
}

// grant tries to give txid the lock in the given mode. fresh reports a
// new holder entry (as opposed to a re-acquire or an upgrade). A fresh
// entry also waits for every conflicting request queued ahead of
// txid's own; an upgrade does not, since the queue waits on it.
func (ls *lockState) grant(txid uint64, mode LockMode) (ok, fresh bool) {
	for i := range ls.holders {
		if h := &ls.holders[i]; h.txid == txid {
			if h.mode == mode || h.mode == Exclusive {
				return true, false // already sufficient
			}
			// Upgrade: S -> X on a row; on a cluster S and IX together
			// are X, since there is no SIX. Only once we are the sole
			// holder.
			if len(ls.holders) == 1 {
				h.mode = Exclusive
				return true, false
			}
			return false, false
		}
	}
	// Holders of a shared word all hold one mode: only equal modes are
	// compatible.
	if ls.admits(mode) && !ls.queuedAhead(txid, mode) {
		ls.holders = append(ls.holders, holder{txid, mode})
		return true, true
	}
	return false, false
}

// admits reports whether the holders are compatible with a new holder
// in mode.
func (ls *lockState) admits(mode LockMode) bool {
	return len(ls.holders) == 0 || compatible(mode, ls.holders[0].mode)
}

// queuedAhead reports whether a request conflicting with mode is queued
// ahead of txid's own entry (ahead of all of them when txid has none).
func (ls *lockState) queuedAhead(txid uint64, mode LockMode) bool {
	for _, q := range ls.queue {
		if q.txid == txid {
			return false
		}
		if !compatible(mode, q.mode) {
			return true
		}
	}
	return false
}

// blockers lists the transactions txid's refused request waits on: the
// other holders when it is an upgrade or the holders' mode conflicts
// with it, and every conflicting request queued ahead of it.
func (ls *lockState) blockers(txid uint64, mode LockMode) []uint64 {
	out := make([]uint64, 0, len(ls.holders))
	upgrade := false
	for _, h := range ls.holders {
		upgrade = upgrade || h.txid == txid
	}
	if upgrade || !ls.admits(mode) {
		for _, h := range ls.holders {
			if h.txid != txid {
				out = append(out, h.txid)
			}
		}
	}
	if !upgrade {
		for _, q := range ls.queue {
			if q.txid == txid {
				break
			}
			if !compatible(mode, q.mode) {
				out = append(out, q.txid)
			}
		}
	}
	return out
}

// dequeue takes txid's entry out of the queue. A granted request
// leaves with it: whoever queued behind it now waits on it as a holder
// in the same mode, so nobody needs waking.
func (ls *lockState) dequeue(txid uint64) {
	for i, q := range ls.queue {
		if q.txid == txid {
			ls.queue = append(ls.queue[:i], ls.queue[i+1:]...)
			return
		}
	}
}

// leave is dequeue for a request that gives up: it wakes the others, as
// one that queued behind it may now be grantable.
func (ls *lockState) leave(txid uint64) {
	ls.dequeue(txid)
	ls.wakeAll()
}

// wakeAll broadcasts to every waiter: each snapshotted the channel.
func (ls *lockState) wakeAll() {
	if ls.wake != nil {
		close(ls.wake)
		ls.wake = nil
	}
}

// release removes txid from the holders, reporting whether it was one.
func (ls *lockState) release(txid uint64) bool {
	for i, h := range ls.holders {
		if h.txid == txid {
			last := len(ls.holders) - 1
			ls.holders[i] = ls.holders[last]
			ls.holders = ls.holders[:last]
			return true
		}
	}
	return false
}

// Acquire takes (or upgrades to) the given lock on oid for hl's
// transaction, blocking until compatible, until the request would
// deadlock (ErrDeadlock), or until ctx expires (ErrTxTimeout) or is
// canceled (ErrCanceled); a fresh grant joins hl. Re-acquiring a held
// lock (same or weaker mode) is a no-op. ctx must be non-nil (use
// context.Background for an unbounded wait).
func (lm *LockManager) Acquire(ctx context.Context, hl *heldList, oid core.OID, mode LockMode) error {
	txid := hl.txid
	s := lm.stripe(oid)
	s.mu.Lock()
	ls, inserted := s.word(oid)
	queued := false
	for {
		if ok, fresh := ls.grant(txid, mode); ok {
			if queued {
				ls.dequeue(txid)
			}
			s.mu.Unlock()
			if fresh {
				hl.add(ls, inserted)
			}
			return nil
		}
		// Must wait: record edges and check for a cycle. The blockers
		// are exact here, under the stripe mutex. A holder that releases
		// before we wake leaves a stale edge, but strict 2PL means it
		// never waits again, so it has no outgoing edge to close a
		// cycle with; a queued request that gives up wakes us to
		// recompute.
		blockers := ls.blockers(txid, mode)
		lm.graphMu.Lock()
		lm.waitsFor[txid] = blockers
		cycle := lm.cycleFrom(txid)
		if cycle {
			delete(lm.waitsFor, txid)
		}
		lm.graphMu.Unlock()
		if cycle {
			if queued {
				ls.leave(txid)
			}
			s.settle(ls)
			s.mu.Unlock()
			lm.met.Deadlocks.Inc()
			return fmt.Errorf("%w (tx %d on @%d %s)", ErrDeadlock, txid, oid, mode)
		}
		// An already-dead context must not sleep at all.
		ctxErr := ctx.Err()
		if ctxErr == nil {
			lm.met.LockWaits.Inc()
			if ls.wake == nil {
				ls.wake = make(chan struct{})
			}
			wake := ls.wake
			if !queued {
				ls.queue = append(ls.queue, holder{txid, mode})
				queued = true
			}
			s.mu.Unlock()
			select {
			case <-wake:
			case <-ctx.Done():
				ctxErr = ctx.Err()
			}
			s.mu.Lock()
		}
		lm.graphMu.Lock()
		delete(lm.waitsFor, txid)
		lm.graphMu.Unlock()
		if ctxErr != nil {
			if queued {
				ls.leave(txid)
			}
			s.settle(ls)
			s.mu.Unlock()
			lm.met.LockWaitTimeouts.Inc()
			return fmt.Errorf("%w (tx %d on @%d %s)", FromContextErr(ctxErr), txid, oid, mode)
		}
	}
}

// TryAcquire is Acquire for a lock nobody has asked for yet: it grants
// (or upgrades to) the lock only if that needs no wait, and otherwise
// reports false at once. It never sleeps, never records a waits-for
// edge and never counts a lock wait, so it cannot take part in a
// deadlock. A word somebody is already waiting on counts as busy: a
// speculative reader must not jump a queued writer.
func (lm *LockManager) TryAcquire(hl *heldList, oid core.OID, mode LockMode) bool {
	s := lm.stripe(oid)
	s.mu.Lock()
	ls, inserted := s.word(oid)
	ok, fresh := false, false
	if len(ls.queue) == 0 { // a refused word has holders or waiters: it is not idle
		ok, fresh = ls.grant(hl.txid, mode)
	}
	s.mu.Unlock()
	if fresh {
		hl.add(ls, inserted)
	}
	return ok
}

// cycleFrom reports whether following waits-for edges from start
// returns to start. Caller holds lm.graphMu.
func (lm *LockManager) cycleFrom(start uint64) bool {
	seen := make(map[uint64]bool)
	var dfs func(u uint64) bool
	dfs = func(u uint64) bool {
		for _, v := range lm.waitsFor[u] {
			if v == start {
				return true
			}
			if !seen[v] {
				seen[v] = true
				if dfs(v) {
					return true
				}
			}
		}
		return false
	}
	return dfs(start)
}

// ReleaseAll drops every lock in hl and wakes waiters, leaving hl
// empty with its capacity. Called once at commit or abort (strict 2PL:
// no early release). The transaction's fresh grants — its held list —
// are added to txn.lock_grants here, once, and the words they inserted
// to txn.lock_words, so granting adds no shared write.
func (lm *LockManager) ReleaseAll(hl *heldList) { lm.releaseAll(hl) }

// releaseAll is ReleaseAll reporting how many lock words it visited
// (tests: the cost must not depend on other transactions' locks).
func (lm *LockManager) releaseAll(hl *heldList) (visited int) {
	if len(hl.words) == 0 {
		return 0
	}
	for _, ls := range hl.words {
		s := lm.stripe(ls.oid) // held, so ls.oid cannot change
		s.mu.Lock()
		if ls.release(hl.txid) {
			ls.wakeAll()
			s.settle(ls)
		}
		s.mu.Unlock()
	}
	visited = len(hl.words)
	lm.met.LockGrants.Add(uint64(visited))
	lm.met.LockWords.Add(hl.inserted)
	hl.words, hl.inserted = hl.words[:0], 0
	return visited
}

// HeldLocks reports the locks in hl (tests).
func (lm *LockManager) HeldLocks(hl *heldList) map[core.OID]LockMode {
	out := make(map[core.OID]LockMode)
	for _, ls := range hl.words {
		s := lm.stripe(ls.oid)
		s.mu.Lock()
		for _, h := range ls.holders {
			if h.txid == hl.txid {
				out[ls.oid] = h.mode
			}
		}
		s.mu.Unlock()
	}
	return out
}

// TableSize reports how many lock words are in the table: busy ones,
// with a holder or a waiter (tests: abandoned waits must not leak
// entries), and idle resident ones.
func (lm *LockManager) TableSize() (busy, idle int) {
	for i := range lm.stripes {
		s := &lm.stripes[i]
		s.mu.Lock()
		busy += len(s.locks) - s.idle
		idle += s.idle
		s.mu.Unlock()
	}
	return busy, idle
}

// Waiting reports how many waiters are queued on oid (tests).
func (lm *LockManager) Waiting(oid core.OID) int {
	s := lm.stripe(oid)
	s.mu.Lock()
	defer s.mu.Unlock()
	if ls, ok := s.locks[oid]; ok {
		return len(ls.queue)
	}
	return 0
}
