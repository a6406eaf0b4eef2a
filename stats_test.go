package ode

import (
	"errors"
	"os"
	"strings"
	"testing"

	"ode/internal/obs"
)

// TestStatsSnapshot checks that normal work shows up in every layer of
// the registry snapshot, read by canonical name.
func TestStatsSnapshot(t *testing.T) {
	db, stock := openTestDB(t, nil)
	for i := 0; i < 5; i++ {
		addItem(t, db, stock, "item", int64(i*10), 1.5)
	}
	err := db.View(func(tx *Tx) error {
		_, err := Forall(tx, stock).SuchThat(Field("qty").Ge(Int(20))).Count()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	st := db.MetricsRegistry().Snapshot()
	for _, name := range []string{
		"txn.begins", "txn.commits", "txn.lock_grants",
		"wal.appends", "wal.append_bytes", "wal.fsyncs",
		"pool.hits", "object.creates",
		"query.foralls", "query.rows_scanned", "query.rows_yielded",
	} {
		if v, ok := st[name].(uint64); !ok || v == 0 {
			t.Errorf("%s = %v, want a non-zero uint64", name, st[name])
		}
	}
	if st["query.plan_extent_scan"].(uint64)+st["query.plan_index_range"].(uint64) == 0 {
		t.Error("no forall plan counted")
	}
	for _, name := range []string{"txn.commit_ns", "wal.fsync_ns"} {
		if h, ok := st[name].(obs.HistogramSnapshot); !ok || h.Count == 0 || h.Sum <= 0 {
			t.Errorf("%s = %v, want samples with a positive sum", name, st[name])
		}
	}
	if db.Pages() == 0 {
		t.Error("Pages = 0")
	}
}

// TestAbortsCountOnlyWriteSets checks that txn.aborts counts only
// transactions that had writes to discard: a View ends read-only and
// counts in txn.read_only_ends, and a RunTx whose function fails after
// an Update is an abort.
func TestAbortsCountOnlyWriteSets(t *testing.T) {
	db, stock := openTestDB(t, nil)
	oid := addItem(t, db, stock, "item", 1, 1.0)
	txm := &db.Metrics().Txn
	aborts, ends := txm.Aborts.Load(), txm.ReadOnlyEnds.Load()
	if err := db.View(func(tx *Tx) error {
		_, err := tx.Deref(oid)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if d := txm.Aborts.Load() - aborts; d != 0 {
		t.Errorf("a View added %d to txn.aborts, want 0", d)
	}
	if d := txm.ReadOnlyEnds.Load() - ends; d != 1 {
		t.Errorf("a View added %d to txn.read_only_ends, want 1", d)
	}

	aborts, ends = txm.Aborts.Load(), txm.ReadOnlyEnds.Load()
	failed := errors.New("changed my mind")
	if err := db.RunTx(func(tx *Tx) error {
		o, err := tx.Deref(oid)
		if err != nil {
			return err
		}
		o.MustSet("qty", Int(2))
		if err := tx.Update(oid, o); err != nil {
			return err
		}
		return failed
	}); !errors.Is(err, failed) {
		t.Fatalf("RunTx = %v, want %v", err, failed)
	}
	if d := txm.Aborts.Load() - aborts; d != 1 {
		t.Errorf("a failed RunTx with one Update added %d to txn.aborts, want 1", d)
	}
	if d := txm.ReadOnlyEnds.Load() - ends; d != 0 {
		t.Errorf("a failed RunTx with one Update added %d to txn.read_only_ends, want 0", d)
	}
}

// TestPlanCountersFlipWithIndex checks that the plan-choice counters
// record the optimizer's decision: the same suchthat query counts as an
// extent scan before an index exists and as an index range scan after.
func TestPlanCountersFlipWithIndex(t *testing.T) {
	db, stock := openTestDB(t, nil)
	for i := 0; i < 10; i++ {
		addItem(t, db, stock, "item", int64(i), 1.0)
	}
	count := func() {
		t.Helper()
		err := db.View(func(tx *Tx) error {
			n, err := Forall(tx, stock).SuchThat(Field("qty").Ge(Int(5))).Count()
			if err == nil && n != 5 {
				t.Errorf("matched %d, want 5", n)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	count()
	qm := &db.Metrics().Query
	if qm.PlanExtentScan.Load() != 1 || qm.PlanIndexRange.Load() != 0 {
		t.Fatalf("before index: extent=%d index=%d, want 1/0",
			qm.PlanExtentScan.Load(), qm.PlanIndexRange.Load())
	}

	if err := db.CreateIndex(stock, "qty"); err != nil {
		t.Fatal(err)
	}
	count()
	if qm.PlanExtentScan.Load() != 1 || qm.PlanIndexRange.Load() != 1 {
		t.Fatalf("after index: extent=%d index=%d, want 1/1",
			qm.PlanExtentScan.Load(), qm.PlanIndexRange.Load())
	}
}

// TestExplainGolden pins the rendered plan strings.
func TestExplainGolden(t *testing.T) {
	db, stock := openTestDB(t, nil)
	addItem(t, db, stock, "dram", 10, 0.5)

	check := func(got, want string) {
		t.Helper()
		if got != want {
			t.Errorf("plan = %q, want %q", got, want)
		}
	}
	err := db.View(func(tx *Tx) error {
		q := Forall(tx, stock).SuchThat(Field("qty").Ge(Int(100))).By("name")
		check(Explain(q).String(),
			"extent-scan(stockitem) filter(qty >= 100) order-by(name)")
		j := Forall(tx, stock).JoinWith(Forall(tx, stock)).OnEq("qty", "qty")
		check(ExplainJoin(j).String(),
			"hash(stockitem.qty = stockitem.qty; outer extent-scan(stockitem))")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	if err := db.CreateIndex(stock, "qty"); err != nil {
		t.Fatal(err)
	}
	err = db.View(func(tx *Tx) error {
		q := Forall(tx, stock).SuchThat(Field("qty").Gt(Int(100)))
		check(Explain(q).String(),
			"index-scan(stockitem.qty in [100, +inf]) + residual filter(qty > 100)")
		j := Forall(tx, stock).JoinWith(Forall(tx, stock)).OnEq("qty", "qty")
		check(ExplainJoin(j).String(),
			"index-nested-loop(stockitem.qty = stockitem.qty; outer extent-scan(stockitem))")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestObservabilityDocComplete diffs the live registry against
// docs/OBSERVABILITY.md: every registered metric must be documented by
// its canonical name.
func TestObservabilityDocComplete(t *testing.T) {
	db, _ := openTestDB(t, nil)
	doc, err := os.ReadFile("docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(doc)
	names := db.MetricsRegistry().Names()
	if len(names) == 0 {
		t.Fatal("registry is empty")
	}
	for _, name := range names {
		if !strings.Contains(text, "`"+name+"`") {
			t.Errorf("metric %s is not documented in docs/OBSERVABILITY.md", name)
		}
	}
}

// TestMetricsRegistrySnapshot checks the generic exposition path used
// by the expvar bridge.
func TestMetricsRegistrySnapshot(t *testing.T) {
	db, stock := openTestDB(t, nil)
	addItem(t, db, stock, "x", 1, 1.0)
	snap := db.MetricsRegistry().Snapshot()
	if v, ok := snap["txn.commits"].(uint64); !ok || v == 0 {
		t.Errorf("snapshot txn.commits = %v, want non-zero uint64", snap["txn.commits"])
	}
}
