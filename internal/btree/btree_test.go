package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"ode/internal/storage"
)

func newTestTree(t testing.TB, poolPages int) *Tree {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tree.odb")
	fs, err := storage.CreateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	pool := storage.NewPool(fs, poolPages, nil, nil)
	return New(pool, storage.InvalidPage)
}

func k(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }
func v(i int) []byte { return []byte(fmt.Sprintf("val-%d", i)) }

func TestEmptyTree(t *testing.T) {
	tr := newTestTree(t, 16)
	if _, err := tr.Get([]byte("x")); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get on empty = %v", err)
	}
	if err := tr.Delete([]byte("x")); !errors.Is(err, ErrNotFound) {
		t.Errorf("Delete on empty = %v", err)
	}
	if n, _ := tr.Len(); n != 0 {
		t.Errorf("Len = %d", n)
	}
}

func TestPutGetSingle(t *testing.T) {
	tr := newTestTree(t, 16)
	if err := tr.Put(k(1), v(1)); err != nil {
		t.Fatal(err)
	}
	got, err := tr.Get(k(1))
	if err != nil || !bytes.Equal(got, v(1)) {
		t.Fatalf("Get = %q, %v", got, err)
	}
	// Overwrite.
	if err := tr.Put(k(1), []byte("new")); err != nil {
		t.Fatal(err)
	}
	got, _ = tr.Get(k(1))
	if string(got) != "new" {
		t.Errorf("after overwrite: %q", got)
	}
	if n, _ := tr.Len(); n != 1 {
		t.Errorf("Len = %d after overwrite", n)
	}
}

func TestPutRejectsBadSizes(t *testing.T) {
	tr := newTestTree(t, 16)
	if err := tr.Put(nil, v(1)); err == nil {
		t.Error("empty key accepted")
	}
	if err := tr.Put(make([]byte, MaxKeySize+1), v(1)); err == nil {
		t.Error("oversized key accepted")
	}
	if err := tr.Put(k(1), make([]byte, MaxValueSize+1)); err == nil {
		t.Error("oversized value accepted")
	}
	if err := tr.Put(make([]byte, MaxKeySize), make([]byte, MaxValueSize)); err != nil {
		t.Errorf("max sizes rejected: %v", err)
	}
}

func TestManyInsertsSplitAndOrder(t *testing.T) {
	tr := newTestTree(t, 64)
	const n = 5000
	perm := rand.New(rand.NewSource(3)).Perm(n)
	for _, i := range perm {
		if err := tr.Put(k(i), v(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != n {
		t.Errorf("Entries = %d, want %d", st.Entries, n)
	}
	if st.Depth < 2 {
		t.Errorf("expected a multi-level tree, depth = %d", st.Depth)
	}
	// Full scan must be sorted and complete.
	var prev []byte
	count := 0
	err = tr.Scan(func(key, _ []byte) (bool, error) {
		if prev != nil && bytes.Compare(prev, key) >= 0 {
			return false, fmt.Errorf("scan out of order: %q after %q", key, prev)
		}
		prev = append(prev[:0], key...)
		count++
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Errorf("scan visited %d, want %d", count, n)
	}
	// Point lookups.
	for i := 0; i < n; i += 97 {
		got, err := tr.Get(k(i))
		if err != nil || !bytes.Equal(got, v(i)) {
			t.Fatalf("Get(%d) = %q, %v", i, got, err)
		}
	}
}

// Ascending inserts split the rightmost leaf before the new key, not at
// its midpoint: every leaf but the last is left full, so a bulk load
// takes about half the leaves a midpoint split would leave behind.
func TestAscendingInsertsFillLeaves(t *testing.T) {
	tr := newTestTree(t, 64)
	const n = 5000
	for i := 0; i < n; i++ {
		if err := tr.Put(k(i), v(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != n {
		t.Fatalf("Entries = %d, want %d", st.Entries, n)
	}
	cell := 4 + len(k(n-1)) + len(v(n-1))
	perLeaf := (nodeCapacity - 6) / cell
	if want := (n + perLeaf - 1) / perLeaf; st.Leaves > want {
		t.Errorf("%d ascending inserts fill %d leaves, want at most %d (%d cells a leaf)", n, st.Leaves, want, perLeaf)
	}
}

func TestScanRange(t *testing.T) {
	tr := newTestTree(t, 64)
	for i := 0; i < 100; i++ {
		tr.Put(k(i), v(i))
	}
	var got []string
	err := tr.ScanRange(k(10), k(20), func(key, _ []byte) (bool, error) {
		got = append(got, string(key))
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 || got[0] != string(k(10)) || got[9] != string(k(19)) {
		t.Errorf("range scan got %v", got)
	}
	// Early stop.
	n := 0
	tr.ScanRange(nil, nil, func(_, _ []byte) (bool, error) {
		n++
		return n < 5, nil
	})
	if n != 5 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestScanPrefix(t *testing.T) {
	tr := newTestTree(t, 64)
	tr.Put([]byte("a/1"), v(1))
	tr.Put([]byte("a/2"), v(2))
	tr.Put([]byte("b/1"), v(3))
	tr.Put([]byte("a0"), v(4)) // after "a/" prefix range ('0' > '/')
	var got []string
	tr.ScanPrefix([]byte("a/"), func(key, _ []byte) (bool, error) {
		got = append(got, string(key))
		return true, nil
	})
	if len(got) != 2 || got[0] != "a/1" || got[1] != "a/2" {
		t.Errorf("prefix scan got %v", got)
	}
}

func TestPrefixSuccessor(t *testing.T) {
	cases := []struct {
		in   []byte
		want []byte
	}{
		{[]byte{1, 2}, []byte{1, 3}},
		{[]byte{1, 0xFF}, []byte{2}},
		{[]byte{0xFF, 0xFF}, nil},
	}
	for _, c := range cases {
		if got := prefixSuccessor(c.in); !bytes.Equal(got, c.want) {
			t.Errorf("prefixSuccessor(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestDeleteCollapsesToEmpty(t *testing.T) {
	tr := newTestTree(t, 64)
	const n = 2000
	for i := 0; i < n; i++ {
		tr.Put(k(i), v(i))
	}
	perm := rand.New(rand.NewSource(5)).Perm(n)
	for _, i := range perm {
		if err := tr.Delete(k(i)); err != nil {
			t.Fatalf("Delete(%d): %v", i, err)
		}
	}
	if tr.Root() != storage.InvalidPage {
		t.Errorf("root = %d after deleting everything, want invalid", tr.Root())
	}
	if n, _ := tr.Len(); n != 0 {
		t.Errorf("Len = %d", n)
	}
}

func TestDeleteHalfKeepsRest(t *testing.T) {
	tr := newTestTree(t, 64)
	const n = 3000
	for i := 0; i < n; i++ {
		tr.Put(k(i), v(i))
	}
	for i := 0; i < n; i += 2 {
		if err := tr.Delete(k(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		got, err := tr.Get(k(i))
		if i%2 == 0 {
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("deleted key %d still present", i)
			}
		} else if err != nil || !bytes.Equal(got, v(i)) {
			t.Fatalf("surviving key %d: %q, %v", i, got, err)
		}
	}
}

// Deleting a contiguous run from a tree of full leaves empties a leaf
// whose neighbour is still full: the two no longer fit one page, so the
// underflowing leaf takes half its neighbour's cells instead of merging.
func TestDeleteRunRedistributesFullLeaves(t *testing.T) {
	tr := newTestTree(t, 64)
	const n = 3000
	for i := 0; i < n; i++ {
		if err := tr.Put(k(i), v(i)); err != nil {
			t.Fatal(err)
		}
	}
	gone := func(i int) bool { return i >= 1000 && i < 1300 }
	for i := 1000; i < 1300; i++ {
		if err := tr.Delete(k(i)); err != nil {
			t.Fatal(err)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("after deleting %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		got, err := tr.Get(k(i))
		if gone(i) {
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("deleted key %d still present", i)
			}
		} else if err != nil || !bytes.Equal(got, v(i)) {
			t.Fatalf("surviving key %d: %q, %v", i, got, err)
		}
	}
}

func TestLargeValuesForceLowFanout(t *testing.T) {
	// Values near MaxValueSize force ~5 cells per page, exercising deep
	// trees and the underflow paths hard.
	tr := newTestTree(t, 128)
	big := func(i int) []byte {
		b := make([]byte, MaxValueSize-8)
		binary.LittleEndian.PutUint64(b, uint64(i))
		return b
	}
	const n = 500
	for i := 0; i < n; i++ {
		if err := tr.Put(k(i), big(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st, _ := tr.Stats()
	if st.Depth < 3 {
		t.Logf("depth = %d (low-fanout tree expected deeper)", st.Depth)
	}
	for i := 0; i < n; i += 3 {
		if err := tr.Delete(k(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		got, err := tr.Get(k(i))
		if i%3 == 0 {
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("key %d should be gone", i)
			}
			continue
		}
		if err != nil || binary.LittleEndian.Uint64(got) != uint64(i) {
			t.Fatalf("key %d: %v", i, err)
		}
	}
}

// TestTreeModelCheck runs randomized operations against a map model and
// validates full equivalence plus structural invariants periodically.
func TestTreeModelCheck(t *testing.T) {
	tr := newTestTree(t, 64)
	model := map[string]string{}
	r := rand.New(rand.NewSource(11))
	randKey := func() []byte {
		return []byte(fmt.Sprintf("%04d", r.Intn(1500)))
	}
	for step := 0; step < 12000; step++ {
		switch r.Intn(10) {
		case 0, 1, 2, 3, 4: // put
			key, val := randKey(), fmt.Sprintf("v%d", step)
			if err := tr.Put(key, []byte(val)); err != nil {
				t.Fatal(err)
			}
			model[string(key)] = val
		case 5, 6: // delete
			key := randKey()
			err := tr.Delete(key)
			if _, ok := model[string(key)]; ok {
				if err != nil {
					t.Fatalf("step %d: Delete(%s) = %v", step, key, err)
				}
				delete(model, string(key))
			} else if !errors.Is(err, ErrNotFound) {
				t.Fatalf("step %d: Delete(%s) of absent key = %v", step, key, err)
			}
		default: // get
			key := randKey()
			got, err := tr.Get(key)
			want, ok := model[string(key)]
			if ok {
				if err != nil || string(got) != want {
					t.Fatalf("step %d: Get(%s) = %q, %v; want %q", step, key, got, err, want)
				}
			} else if !errors.Is(err, ErrNotFound) {
				t.Fatalf("step %d: Get(%s) of absent key = %v", step, key, err)
			}
		}
		if step%2000 == 1999 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	// Final: scan must equal sorted model.
	var wantKeys []string
	for key := range model {
		wantKeys = append(wantKeys, key)
	}
	sort.Strings(wantKeys)
	var gotKeys []string
	tr.Scan(func(key, val []byte) (bool, error) {
		gotKeys = append(gotKeys, string(key))
		if model[string(key)] != string(val) {
			t.Errorf("value mismatch at %s", key)
		}
		return true, nil
	})
	if len(gotKeys) != len(wantKeys) {
		t.Fatalf("scan has %d keys, model %d", len(gotKeys), len(wantKeys))
	}
	for i := range wantKeys {
		if gotKeys[i] != wantKeys[i] {
			t.Fatalf("key order mismatch at %d: %s vs %s", i, gotKeys[i], wantKeys[i])
		}
	}
}

// TestTreePersistsAcrossReopen verifies the tree survives a flush and
// file reopen given its root page.
func TestTreePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tree.odb")
	fs, err := storage.CreateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pool := storage.NewPool(fs, 64, nil, nil)
	tr := New(pool, storage.InvalidPage)
	for i := 0; i < 1000; i++ {
		tr.Put(k(i), v(i))
	}
	root := tr.Root()
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	fs.Close()

	fs2, err := storage.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	tr2 := New(storage.NewPool(fs2, 64, nil, nil), root)
	if err := tr2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i += 53 {
		got, err := tr2.Get(k(i))
		if err != nil || !bytes.Equal(got, v(i)) {
			t.Fatalf("after reopen Get(%d) = %q, %v", i, got, err)
		}
	}
}

// TestTreeTinyPool exercises heavy eviction pressure: the pool holds
// far fewer pages than the tree.
func TestTreeTinyPool(t *testing.T) {
	tr := newTestTree(t, 8)
	const n = 3000
	for i := 0; i < n; i++ {
		if err := tr.Put(k(i), v(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 11 {
		got, err := tr.Get(k(i))
		if err != nil || !bytes.Equal(got, v(i)) {
			t.Fatalf("Get(%d) under eviction pressure: %v", i, err)
		}
	}
}

func TestHasHelper(t *testing.T) {
	tr := newTestTree(t, 16)
	tr.Put(k(1), v(1))
	if ok, err := tr.Has(k(1)); err != nil || !ok {
		t.Errorf("Has(present) = %v, %v", ok, err)
	}
	if ok, err := tr.Has(k(2)); err != nil || ok {
		t.Errorf("Has(absent) = %v, %v", ok, err)
	}
}
