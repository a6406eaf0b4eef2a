// Package btree implements a persistent B+tree over the page store.
//
// Keys and values are arbitrary byte strings ordered by bytes.Compare;
// callers build order-preserving encodings for composite keys. The tree
// backs the OID directory, the cluster extents, the version index, and
// secondary field indexes of an Ode database.
//
// Nodes are decoded into memory, mutated, and re-encoded on write. That
// trades some CPU for implementation clarity; node fan-out (hundreds of
// cells per 4 KiB page) keeps trees shallow so the constant factors are
// small.
package btree

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"ode/internal/storage"
)

// MaxKeySize bounds keys so that a node underflow/overflow analysis
// stays simple: a page must fit at least 4 max-size cells.
const MaxKeySize = 512

// MaxValueSize bounds values stored in the tree. Larger payloads belong
// in the record heap, with the tree holding the RID.
const MaxValueSize = 768

// ErrNotFound is returned by Get and Delete for absent keys.
var ErrNotFound = errors.New("btree: key not found")

// Tree is a B+tree rooted at a page. The zero root (InvalidPage) is an
// empty tree; the first insert materializes a root leaf. Callers must
// persist Root() (it changes when the root splits or collapses).
//
// A Tree is safe for concurrent use; operations serialize on an
// internal mutex (coarse-grained, as the paper's single-transaction
// programs require no finer concurrency inside one structure).
type Tree struct {
	mu   sync.RWMutex
	pool *storage.Pool
	root storage.PageID

	// Append cache (fastput.go): the rightmost leaf and where its cell
	// region ends, so an insert with key above the tree's maximum — the
	// shape of OID-directory and cluster-extent writes, whose keys
	// ascend — is one page write with no descent and no position scan.
	// appendLeaf is InvalidPage whenever the cache is unknown; any
	// delete or structural change invalidates it.
	appendLeaf storage.PageID
	appendKey  []byte // private copy of the tree's maximum key
	appendEnd  int    // payload offset one past the last cell
	appendCnt  int
}

// New opens a tree with the given root page (InvalidPage for empty).
func New(pool *storage.Pool, root storage.PageID) *Tree {
	return &Tree{pool: pool, root: root}
}

// Root returns the current root page id.
func (t *Tree) Root() storage.PageID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.root
}

// node is the in-memory image of a tree page.
type node struct {
	id   storage.PageID
	leaf bool
	// Leaves: keys[i] ↦ vals[i]; next links the right sibling.
	// Internals: children[0..n], keys[0..n-1]; subtree children[i]
	// holds keys < keys[i] <= subtree children[i+1].
	keys     [][]byte
	vals     [][]byte
	children []storage.PageID
	next     storage.PageID
}

// Node encodings (within Payload()):
//
//	leaf:     nkeys(2) next(4) { klen(2) vlen(2) key val }*
//	internal: nkeys(2) child0(4) { klen(2) child(4) key }*
//
// decodeNode copies the cell region out of the page once and slices
// keys and values from that arena, rather than cloning every cell
// individually. At fan-outs of hundreds of cells per page the per-cell
// clones (two allocations each) dominated the commit path — every Put
// decodes root-to-leaf — so the arena turns ~2·cells allocations per
// node into three. The subslices have disjoint byte ranges and are
// capped, so element replacement and slice surgery on the node never
// write through into a neighbor's bytes.
func decodeNode(p *storage.Page) (*node, error) {
	n := &node{id: p.ID()}
	pl := p.Payload()
	switch p.Type() {
	case storage.TypeBTreeLeaf:
		n.leaf = true
		cnt := int(le16(pl[0:]))
		n.next = storage.PageID(le32(pl[2:]))
		end := 6
		for i := 0; i < cnt; i++ {
			end += 4 + int(le16(pl[end:])) + int(le16(pl[end+2:]))
		}
		arena := clone(pl[6:end])
		n.keys = make([][]byte, cnt)
		n.vals = make([][]byte, cnt)
		off := 0
		for i := 0; i < cnt; i++ {
			kl := int(le16(arena[off:]))
			vl := int(le16(arena[off+2:]))
			off += 4
			n.keys[i] = arena[off : off+kl : off+kl]
			off += kl
			n.vals[i] = arena[off : off+vl : off+vl]
			off += vl
		}
	case storage.TypeBTreeInternal:
		cnt := int(le16(pl[0:]))
		end := 6
		for i := 0; i < cnt; i++ {
			end += 6 + int(le16(pl[end:]))
		}
		arena := clone(pl[6:end])
		n.keys = make([][]byte, cnt)
		n.children = make([]storage.PageID, cnt+1)
		n.children[0] = storage.PageID(le32(pl[2:]))
		off := 0
		for i := 0; i < cnt; i++ {
			kl := int(le16(arena[off:]))
			n.children[i+1] = storage.PageID(le32(arena[off+2:]))
			off += 6
			n.keys[i] = arena[off : off+kl : off+kl]
			off += kl
		}
	default:
		return nil, fmt.Errorf("btree: page %d has type %d, not a tree node", p.ID(), p.Type())
	}
	return n, nil
}

func (n *node) encode(p *storage.Page) {
	pl := p.Payload()
	if n.leaf {
		p.SetType(storage.TypeBTreeLeaf)
		put16(pl[0:], uint16(len(n.keys)))
		put32(pl[2:], uint32(n.next))
		off := 6
		for i, k := range n.keys {
			put16(pl[off:], uint16(len(k)))
			put16(pl[off+2:], uint16(len(n.vals[i])))
			off += 4
			copy(pl[off:], k)
			off += len(k)
			copy(pl[off:], n.vals[i])
			off += len(n.vals[i])
		}
		return
	}
	p.SetType(storage.TypeBTreeInternal)
	put16(pl[0:], uint16(len(n.keys)))
	child0 := storage.InvalidPage
	if len(n.children) > 0 {
		child0 = n.children[0]
	}
	put32(pl[2:], uint32(child0))
	off := 6
	for i, k := range n.keys {
		put16(pl[off:], uint16(len(k)))
		put32(pl[off+2:], uint32(n.children[i+1]))
		off += 6
		copy(pl[off:], k)
		off += len(k)
	}
}

// size returns the encoded byte size of the node.
func (n *node) size() int {
	if n.leaf {
		s := 6
		for i, k := range n.keys {
			s += 4 + len(k) + len(n.vals[i])
		}
		return s
	}
	s := 6
	for _, k := range n.keys {
		s += 6 + len(k)
	}
	return s
}

// capacity thresholds: a node overflows when its encoding exceeds the
// payload, and underflows when it falls under a quarter of it.
const (
	nodeCapacity  = storage.PayloadSize
	nodeUnderflow = storage.PayloadSize / 4
)

func le16(b []byte) uint16 { return uint16(b[0]) | uint16(b[1])<<8 }
func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
func put16(b []byte, v uint16) { b[0] = byte(v); b[1] = byte(v >> 8) }
func put32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}
func clone(b []byte) []byte { return append([]byte(nil), b...) }

// load fetches and decodes a node.
func (t *Tree) load(id storage.PageID) (*node, error) {
	p, err := t.pool.Fetch(id)
	if err != nil {
		return nil, err
	}
	n, err := decodeNode(p)
	t.pool.Unpin(id, false)
	return n, err
}

// store encodes and writes a node back to its page.
func (t *Tree) store(n *node) error {
	p, err := t.pool.Fetch(n.id)
	if err != nil {
		return err
	}
	n.encode(p)
	t.pool.Unpin(n.id, true)
	return nil
}

// alloc creates a fresh node page.
func (t *Tree) alloc(leaf bool) (*node, error) {
	p, err := t.pool.NewPage()
	if err != nil {
		return nil, err
	}
	n := &node{id: p.ID(), leaf: leaf}
	n.encode(p)
	t.pool.Unpin(p.ID(), true)
	return n, nil
}

// search returns the index of the first key >= k (leaf) or the child to
// descend into (internal).
func (n *node) searchLeaf(k []byte) (int, bool) {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(n.keys[mid], k) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(n.keys) && bytes.Equal(n.keys[lo], k)
}

func (n *node) childIndex(k []byte) int {
	// descend into children[i] where keys[i-1] <= k < keys[i]
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(n.keys[mid], k) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Has reports whether key is present.
func (t *Tree) Has(key []byte) (bool, error) {
	_, err := t.Get(key)
	if errors.Is(err, ErrNotFound) {
		return false, nil
	}
	return err == nil, err
}

// Put inserts or replaces the value under key.
func (t *Tree) Put(key, value []byte) error {
	if len(key) == 0 || len(key) > MaxKeySize {
		return fmt.Errorf("btree: key size %d out of range [1,%d]", len(key), MaxKeySize)
	}
	if len(value) > MaxValueSize {
		return fmt.Errorf("btree: value size %d exceeds max %d", len(value), MaxValueSize)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.root == storage.InvalidPage {
		root, err := t.alloc(true)
		if err != nil {
			return err
		}
		t.root = root.id
	}
	// Fast paths (fastput.go): ascending insert into the cached
	// rightmost leaf, then in-place insert into whichever leaf the key
	// descends to; overflow falls through to the structural insert.
	if ok, err := t.appendPut(key, value); ok || err != nil {
		return err
	}
	if ok, err := t.fastPut(key, value); ok || err != nil {
		return err
	}
	// The structural insert splits nodes, which can move the rightmost
	// leaf's cells; forget the cached append state.
	t.invalidateAppendCache()
	sep, right, err := t.insert(t.root, key, value)
	if err != nil {
		return err
	}
	if right != storage.InvalidPage {
		// Root split: grow a new root.
		nr, err := t.alloc(false)
		if err != nil {
			return err
		}
		nr.children = []storage.PageID{t.root, right}
		nr.keys = [][]byte{sep}
		if err := t.store(nr); err != nil {
			return err
		}
		t.root = nr.id
	}
	return nil
}

// insert descends to the leaf, inserts, and propagates splits upward.
// It returns the separator key and new right-sibling page when the node
// split.
func (t *Tree) insert(id storage.PageID, key, value []byte) ([]byte, storage.PageID, error) {
	n, err := t.load(id)
	if err != nil {
		return nil, storage.InvalidPage, err
	}
	if n.leaf {
		i, found := n.searchLeaf(key)
		if found {
			n.vals[i] = clone(value)
		} else {
			n.keys = append(n.keys, nil)
			copy(n.keys[i+1:], n.keys[i:])
			n.keys[i] = clone(key)
			n.vals = append(n.vals, nil)
			copy(n.vals[i+1:], n.vals[i:])
			n.vals[i] = clone(value)
		}
		return t.finishInsert(n, !found && i == len(n.keys)-1 && n.next == storage.InvalidPage)
	}
	ci := n.childIndex(key)
	sep, right, err := t.insert(n.children[ci], key, value)
	if err != nil {
		return nil, storage.InvalidPage, err
	}
	if right == storage.InvalidPage {
		return nil, storage.InvalidPage, nil
	}
	n.keys = append(n.keys, nil)
	copy(n.keys[ci+1:], n.keys[ci:])
	n.keys[ci] = sep
	n.children = append(n.children, 0)
	copy(n.children[ci+2:], n.children[ci+1:])
	n.children[ci+1] = right
	return t.finishInsert(n, false)
}

// finishInsert stores n, splitting it first if it overflows. appended
// says the insert put a new largest key into the rightmost leaf: the
// leaf then keeps every other cell and the new key starts the right
// sibling, so ascending inserts (OIDs into the directory and cluster
// trees) leave full leaves behind instead of half-empty ones.
func (t *Tree) finishInsert(n *node, appended bool) ([]byte, storage.PageID, error) {
	if n.size() <= nodeCapacity {
		return nil, storage.InvalidPage, t.store(n)
	}
	right, err := t.alloc(n.leaf)
	if err != nil {
		return nil, storage.InvalidPage, err
	}
	var sep []byte
	if n.leaf {
		// Split at the midpoint by bytes, or before the appended key.
		half := n.size() / 2
		acc, cut := 6, 0
		for i := range n.keys {
			acc += 4 + len(n.keys[i]) + len(n.vals[i])
			if acc > half {
				cut = i + 1
				break
			}
		}
		if appended {
			cut = len(n.keys) - 1
		}
		if cut <= 0 || cut >= len(n.keys) {
			cut = len(n.keys) / 2
		}
		right.keys = append(right.keys, n.keys[cut:]...)
		right.vals = append(right.vals, n.vals[cut:]...)
		n.keys = n.keys[:cut]
		n.vals = n.vals[:cut]
		right.next = n.next
		n.next = right.id
		sep = clone(right.keys[0])
	} else {
		half := len(n.keys) / 2
		sep = n.keys[half] // moves up, not copied right
		right.keys = append(right.keys, n.keys[half+1:]...)
		right.children = append(right.children, n.children[half+1:]...)
		n.keys = n.keys[:half]
		n.children = n.children[:half+1]
	}
	if err := t.store(n); err != nil {
		return nil, storage.InvalidPage, err
	}
	if err := t.store(right); err != nil {
		return nil, storage.InvalidPage, err
	}
	return sep, right.id, nil
}
