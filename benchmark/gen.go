package main

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
)

// kind is what one unit transaction does.
type kind uint8

const (
	kWalk     kind = iota // follow next pointers down the cell chain
	kBatch                // 64 derefs, 80 % of them into the hot tenth
	kBOM                  // visit every part the DAG's root reaches
	kPoints               // 16 derefs, uniform or skewed as the workload says
	kUpdate               // deref and update one of the worker's own items
	kNew                  // create a batch of items
	kDelete               // delete the oldest batch kNew created
	kVersion              // freeze an item as a version, or read and drop one
	kTrigger              // decrement a trigger-armed item; restock fires below threshold
	kTransfer             // move one unit of qty between two items
	kCount                // count the items above a qty bound
	kCollect              // fetch the 2 % of items past a qty bound
	kFirst                // open a forall and stop after 10 rows
	kNewBatch             // create a batch and delete the previous one, pipelined
	numKinds
)

var kindNames = [numKinds]string{
	"walk", "batch", "bom", "points", "update", "new", "delete", "version",
	"trigger", "transfer", "count", "collect", "first", "newbatch",
}

// isWrite says whether a unit of kind k commits.
func (k kind) isWrite() bool {
	switch k {
	case kUpdate, kNew, kDelete, kVersion, kTrigger, kTransfer, kNewBatch:
		return true
	}
	return false
}

// Sizes of the multi-object units.
const (
	walkHops     = 50
	batchDerefs  = 64
	pointDerefs  = 16
	batchObjects = 20 // items per kNew, kDelete and kNewBatch
	versionSlots = 8  // frozen versions a worker keeps at most
	maxPending   = 8  // batches kNew may run ahead of kDelete
	// positions is the range a unit's a and b are drawn from; the
	// executor reduces them modulo the pool it picks from.
	positions = 1 << 30
)

// unit is one generated transaction. It names objects by position
// (item number, chain index, slot), never by OID, so the stream depends
// on nothing the engine returns.
type unit struct {
	kind kind
	a, b int    // positions; meaning depends on kind
	seed uint64 // source of the unit's further picks (see picker)
}

// share is a kind's percentage of a workload's units.
type share struct {
	kind kind
	pct  int
}

// generator yields a workload's units for one worker. The stream is a
// pure function of (seed, worker): the only state besides the rng is the
// generator's own count of batches and versions it has asked for.
//
// Kinds are dealt from a deck that holds each kind in the mix's
// proportions (in lowest terms) and is reshuffled when it runs out, so
// every stretch of a few dozen units has the workload's mix. Drawing
// each kind independently would leave a slice of a slow mix, a hundred
// units of which some cost 1 ms and some 25, a tenth faster or slower
// than its neighbour by luck alone.
type generator struct {
	rng     *rand.Rand
	deck    []kind
	dealt   int
	pending int // batches created and not yet deleted
	frozen  [versionSlots]bool
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func newGenerator(seed int64, worker int, mix []share) *generator {
	total, g := 0, 0
	for _, s := range mix {
		total += s.pct
		g = gcd(g, s.pct)
	}
	if total != 100 {
		panic("benchmark: workload mix does not sum to 100")
	}
	var deck []kind
	for _, s := range mix {
		for i := 0; i < s.pct/g; i++ {
			deck = append(deck, s.kind)
		}
	}
	// Distinct odd multipliers keep (seed, worker) pairs from colliding.
	src := uint64(seed)*0x9E3779B97F4A7C15 + uint64(worker+1)*0x632BE59BD9B4E019
	return &generator{rng: rand.New(rand.NewSource(int64(src >> 1))), deck: deck, dealt: len(deck)}
}

func (g *generator) next() unit {
	if g.dealt == len(g.deck) {
		g.rng.Shuffle(len(g.deck), func(i, j int) { g.deck[i], g.deck[j] = g.deck[j], g.deck[i] })
		g.dealt = 0
	}
	k := g.deck[g.dealt]
	g.dealt++
	u := unit{kind: k, a: g.rng.Intn(positions), b: g.rng.Intn(positions), seed: g.rng.Uint64()}
	switch k {
	case kNew:
		// Deletes are dealt as often as creates; should creates run far
		// ahead one turns into a delete, so the extent stays level.
		if g.pending >= maxPending {
			u.kind = kDelete
			g.pending--
		} else {
			g.pending++
		}
	case kDelete:
		if g.pending == 0 {
			u.kind = kNew
			g.pending++
		} else {
			g.pending--
		}
	case kVersion:
		// a is the slot; b says whether this unit freezes (1) or drops (0).
		u.a %= versionSlots
		u.b = 1
		if g.frozen[u.a] {
			u.b = 0
		}
		g.frozen[u.a] = !g.frozen[u.a]
	}
	return u
}

// picker draws a unit's further picks from its seed (splitmix64), so a
// 64-deref unit costs the generator one number.
type picker uint64

func (p *picker) next() uint64 {
	*p += 0x9E3779B97F4A7C15
	z := uint64(*p)
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

func (p *picker) intn(n int) int { return int(p.next() % uint64(n)) }

// streamHash digests the first n units of a generator: the determinism
// test's fingerprint.
func streamHash(g *generator, n int) uint64 {
	h := fnv.New64a()
	var buf [25]byte
	for i := 0; i < n; i++ {
		u := g.next()
		buf[0] = byte(u.kind)
		binary.LittleEndian.PutUint64(buf[1:], uint64(u.a))
		binary.LittleEndian.PutUint64(buf[9:], uint64(u.b))
		binary.LittleEndian.PutUint64(buf[17:], u.seed)
		h.Write(buf[:])
	}
	return h.Sum64()
}
