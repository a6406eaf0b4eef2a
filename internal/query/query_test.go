package query

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"ode/internal/core"
	"ode/internal/object"
	"ode/internal/storage"
	"ode/internal/txn"
	"ode/internal/wal"
)

// university builds the paper's person/student/faculty schema with
// extents and an engine (section 3.1's running example).
type university struct {
	engine  *txn.Engine
	person  *core.Class
	student *core.Class
	faculty *core.Class
}

func newUniversity(t testing.TB) *university {
	t.Helper()
	schema := core.NewSchema()
	person := core.NewClass("person").
		Field("name", core.TString).
		Field("income", core.TInt).
		Field("age", core.TInt).
		Register(schema)
	student := core.NewClass("student", person).
		Field("school", core.TString).
		Register(schema)
	faculty := core.NewClass("faculty", person).
		Field("dept", core.TString).
		Register(schema)

	dir := t.TempDir()
	fs, err := storage.CreateFile(filepath.Join(dir, "u.odb"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	pool := storage.NewPool(fs, 256, nil, nil)
	mgr, err := object.Create(schema, fs, pool)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*core.Class{person, student, faculty} {
		if err := mgr.CreateCluster(c); err != nil {
			t.Fatal(err)
		}
	}
	log, err := wal.Open(filepath.Join(dir, "u.wal"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	return &university{
		engine:  txn.NewEngine(mgr, log),
		person:  person,
		student: student,
		faculty: faculty,
	}
}

// seed populates: 10 persons (income 0..900), 5 students, 3 faculty.
func (u *university) seed(t testing.TB) map[string]core.OID {
	t.Helper()
	oids := make(map[string]core.OID)
	tx := u.engine.Begin()
	mk := func(c *core.Class, name string, income int64, extra map[string]core.Value) {
		o := core.NewObject(c)
		o.MustSet("name", core.Str(name))
		o.MustSet("income", core.Int(income))
		for k, v := range extra {
			o.MustSet(k, v)
		}
		oid, err := tx.PNew(c, o)
		if err != nil {
			t.Fatal(err)
		}
		oids[name] = oid
	}
	for i := 0; i < 10; i++ {
		mk(u.person, fmt.Sprintf("p%d", i), int64(i*100), nil)
	}
	for i := 0; i < 5; i++ {
		mk(u.student, fmt.Sprintf("s%d", i), int64(i*10), map[string]core.Value{"school": core.Str("eng")})
	}
	for i := 0; i < 3; i++ {
		mk(u.faculty, fmt.Sprintf("f%d", i), int64(5000+i), map[string]core.Value{"dept": core.Str("cs")})
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return oids
}

func TestForallExactClass(t *testing.T) {
	u := newUniversity(t)
	u.seed(t)
	tx := u.engine.Begin()
	defer tx.Abort()
	n, err := Forall(tx, u.person).Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Errorf("forall person visited %d, want 10 (not subclasses)", n)
	}
}

func TestForallHierarchy(t *testing.T) {
	u := newUniversity(t)
	u.seed(t)
	tx := u.engine.Begin()
	defer tx.Abort()
	q := Forall(tx, u.person).Subtypes()
	n, err := q.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 18 {
		t.Errorf("forall person* visited %d, want 18", n)
	}
	if !strings.Contains(q.Plan(), "extent-scan(person*)") {
		t.Errorf("plan = %q", q.Plan())
	}
}

// TestPaperIncomeQuery reproduces the section 3.1 example: average
// income of persons, students, and faculty in one pass over person*
// using `is` tests.
func TestPaperIncomeQuery(t *testing.T) {
	u := newUniversity(t)
	u.seed(t)
	tx := u.engine.Begin()
	defer tx.Abort()
	var incomeP, incomeS, incomeF int64
	var nP, nS, nF int
	err := Forall(tx, u.person).Subtypes().Do(func(it Item) (bool, error) {
		inc := it.Obj.MustGet("income").Int()
		incomeP += inc
		nP++
		switch {
		case it.Obj.Class().IsA(u.student):
			incomeS += inc
			nS++
		case it.Obj.Class().IsA(u.faculty):
			incomeF += inc
			nF++
		}
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if nP != 18 || nS != 5 || nF != 3 {
		t.Fatalf("counts: %d %d %d", nP, nS, nF)
	}
	if incomeS != 0+10+20+30+40 {
		t.Errorf("student income sum = %d", incomeS)
	}
	if incomeF != 5000+5001+5002 {
		t.Errorf("faculty income sum = %d", incomeF)
	}
}

func TestSuchThatFilter(t *testing.T) {
	u := newUniversity(t)
	u.seed(t)
	tx := u.engine.Begin()
	defer tx.Abort()
	n, err := Forall(tx, u.person).
		SuchThat(Field("income").Ge(core.Int(500))).
		Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 { // incomes 500..900
		t.Errorf("suchthat matched %d, want 5", n)
	}
	// Conjunction.
	n, _ = Forall(tx, u.person).
		SuchThat(And(Field("income").Ge(core.Int(500)), Field("income").Lt(core.Int(700)))).
		Count()
	if n != 2 {
		t.Errorf("conjunction matched %d, want 2", n)
	}
	// Or / Not / Fn.
	n, _ = Forall(tx, u.person).
		SuchThat(Or(Field("income").Eq(core.Int(0)), Field("income").Eq(core.Int(900)))).
		Count()
	if n != 2 {
		t.Errorf("disjunction matched %d, want 2", n)
	}
	n, _ = Forall(tx, u.person).SuchThat(Not(Field("income").Lt(core.Int(500)))).Count()
	if n != 5 {
		t.Errorf("negation matched %d, want 5", n)
	}
	n, _ = Forall(tx, u.person).SuchThat(Fn(func(_ core.Store, it Item) (bool, error) {
		return strings.HasSuffix(it.Obj.MustGet("name").Str(), "3"), nil
	})).Count()
	if n != 1 {
		t.Errorf("fn predicate matched %d, want 1", n)
	}
}

func TestIsPredicate(t *testing.T) {
	u := newUniversity(t)
	u.seed(t)
	tx := u.engine.Begin()
	defer tx.Abort()
	n, err := Forall(tx, u.person).Subtypes().SuchThat(Is(u.student)).Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Errorf("is-student matched %d, want 5", n)
	}
}

func TestByOrdering(t *testing.T) {
	u := newUniversity(t)
	u.seed(t)
	tx := u.engine.Begin()
	defer tx.Abort()
	var names []string
	err := Forall(tx, u.person).By("income").Desc().Do(func(it Item) (bool, error) {
		names = append(names, it.Obj.MustGet("name").Str())
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if names[0] != "p9" || names[9] != "p0" {
		t.Errorf("desc order wrong: %v", names)
	}
	// Ascending by name.
	names = nil
	Forall(tx, u.person).By("name").Do(func(it Item) (bool, error) {
		names = append(names, it.Obj.MustGet("name").Str())
		return true, nil
	})
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("asc order wrong: %v", names)
		}
	}
	// ByKey with computed key.
	var first Item
	err = Forall(tx, u.person).ByKey(func(it Item) (core.Value, error) {
		return core.Int(-it.Obj.MustGet("income").Int()), nil
	}).Do(func(it Item) (bool, error) {
		first = it
		return false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if first.Obj.MustGet("name").Str() != "p9" {
		t.Errorf("computed key order wrong: %s", first.Obj.MustGet("name").Str())
	}
}

func TestIndexedSuchThatUsesIndex(t *testing.T) {
	u := newUniversity(t)
	u.seed(t)
	if err := u.engine.Manager().CreateIndex(u.person, "income"); err != nil {
		t.Fatal(err)
	}
	tx := u.engine.Begin()
	defer tx.Abort()
	q := Forall(tx, u.person).SuchThat(Field("income").Ge(core.Int(500)))
	n, err := q.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Errorf("indexed suchthat matched %d, want 5", n)
	}
	if !strings.Contains(q.Plan(), "index-scan") {
		t.Errorf("plan = %q, want index scan", q.Plan())
	}
	// Index covers the hierarchy: students with income >= 30.
	q2 := Forall(tx, u.person).Subtypes().SuchThat(Field("income").Ge(core.Int(30)))
	n, err = q2.Count()
	if err != nil {
		t.Fatal(err)
	}
	// persons 100..900 (9) + students 30,40 (2) + faculty (3) = 14.
	if n != 14 {
		t.Errorf("hierarchy index scan matched %d, want 14", n)
	}
	// NoIndex ablation gives identical results with a scan plan.
	q3 := Forall(tx, u.person).NoIndex().SuchThat(Field("income").Ge(core.Int(500)))
	n, _ = q3.Count()
	if n != 5 {
		t.Errorf("NoIndex matched %d, want 5", n)
	}
	if !strings.Contains(q3.Plan(), "extent-scan") {
		t.Errorf("plan = %q, want extent scan", q3.Plan())
	}
}

// imageItems runs q.Images and decodes every image it hands out, so
// its rows compare with the other paths' items.
func imageItems(t *testing.T, q *Query, schema *core.Schema) []Item {
	t.Helper()
	var items []Item
	err := q.Images(func(oid core.OID, image []byte) (bool, error) {
		o, err := object.Decode(schema, image)
		items = append(items, Item{OID: oid, Obj: o})
		return err == nil, err
	})
	if err != nil {
		t.Fatal(err)
	}
	return items
}

func TestIndexScanSeesTransactionWrites(t *testing.T) {
	u := newUniversity(t)
	oids := u.seed(t)
	if err := u.engine.Manager().CreateIndex(u.person, "income"); err != nil {
		t.Fatal(err)
	}
	tx := u.engine.Begin()
	defer tx.Abort()
	// Move p0 (income 0) into the range and p9 (900) out of it, and
	// create a brand-new matching person — all uncommitted.
	p0, _ := tx.Deref(oids["p0"])
	p0.MustSet("income", core.Int(600))
	tx.Update(oids["p0"], p0)
	p9, _ := tx.Deref(oids["p9"])
	p9.MustSet("income", core.Int(1))
	tx.Update(oids["p9"], p9)
	fresh := core.NewObject(u.person)
	fresh.MustSet("name", core.Str("new"))
	fresh.MustSet("income", core.Int(550))
	tx.PNew(u.person, fresh)
	// Delete p8 (800).
	tx.PDelete(oids["p8"])

	q := Forall(tx, u.person).SuchThat(Field("income").Ge(core.Int(500)))
	collected, err := q.Collect()
	if err != nil {
		t.Fatal(err)
	}
	// Do runs the fixpoint, whose delta pass re-reads the write set;
	// Collect and Count take the snapshot path. A body that writes
	// nothing sees the same rows either way.
	var done []Item
	if err := q.Do(func(it Item) (bool, error) {
		done = append(done, it)
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	// Expected: p5, p6, p7 (committed, still in range), p0 (moved in),
	// new (created); p8 deleted, p9 moved out.
	want := []string{"p5", "p6", "p7", "p0", "new"}
	if n, err := q.Count(); err != nil || n != len(want) {
		t.Errorf("Count = %d, %v; want %d", n, err, len(want))
	}
	images := imageItems(t, q, tx.Schema())
	for path, items := range map[string][]Item{"Collect": collected, "Do": done, "Images": images} {
		got := map[string]bool{}
		for _, it := range items {
			got[it.Obj.MustGet("name").Str()] = true
		}
		if len(got) != len(want) || len(items) != len(want) {
			t.Fatalf("%s matched %v, want %v", path, got, want)
		}
		for _, n := range want {
			if !got[n] {
				t.Errorf("%s missed %s", path, n)
			}
		}
	}
}

// TestExtentScanMergesTransactionWrites: an extent scan in a
// transaction that has written yields each class's rows in OID order,
// its writes in place: an update where the row was, a new object at
// the end of its own class, a delete nowhere, and each write once.
func TestExtentScanMergesTransactionWrites(t *testing.T) {
	u := newUniversity(t)
	oids := u.seed(t)
	tx := u.engine.Begin()
	defer tx.Abort()
	for _, name := range []string{"s3", "p7", "f1", "p2"} {
		o, err := tx.Deref(oids[name])
		if err != nil {
			t.Fatal(err)
		}
		o.MustSet("income", core.Int(o.MustGet("income").Int()+1))
		if err := tx.Update(oids[name], o); err != nil {
			t.Fatal(err)
		}
	}
	fresh := core.NewObject(u.student)
	fresh.MustSet("name", core.Str("new"))
	if _, err := tx.PNew(u.student, fresh); err != nil {
		t.Fatal(err)
	}
	if err := tx.PDelete(oids["p5"]); err != nil {
		t.Fatal(err)
	}
	want := "p0 p1 p2 p3 p4 p6 p7 p8 p9 s0 s1 s2 s3 s4 new f0 f1 f2"
	q := Forall(tx, u.person).Subtypes()
	collected, err := q.Collect()
	if err != nil {
		t.Fatal(err)
	}
	var done []Item
	if err := q.Do(func(it Item) (bool, error) {
		done = append(done, it)
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	images := imageItems(t, q, tx.Schema())
	for path, items := range map[string][]Item{"Collect": collected, "Do": done, "Images": images} {
		var names []string
		for _, it := range items {
			names = append(names, it.Obj.MustGet("name").Str())
		}
		if got := strings.Join(names, " "); got != want {
			t.Errorf("%s: %s, want %s", path, got, want)
		}
	}
}

func TestFixpointClusterIteration(t *testing.T) {
	// The paper's recursive-query semantics: pnew during a forall loop
	// adds objects that the same loop then visits.
	u := newUniversity(t)
	u.seed(t)
	tx := u.engine.Begin()
	defer tx.Abort()
	visited := 0
	spawned := 0
	err := Forall(tx, u.person).Do(func(it Item) (bool, error) {
		visited++
		if spawned < 4 {
			spawned++
			o := core.NewObject(u.person)
			o.MustSet("name", core.Str(fmt.Sprintf("gen%d", spawned)))
			if _, err := tx.PNew(u.person, o); err != nil {
				return false, err
			}
		}
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if visited != 14 { // 10 seeded + 4 spawned
		t.Errorf("visited %d, want 14", visited)
	}
	// Snapshot mode ignores the insertions.
	visited = 0
	err = Forall(tx, u.person).Snapshot().Do(func(it Item) (bool, error) {
		visited++
		o := core.NewObject(u.person)
		o.MustSet("name", core.Str(fmt.Sprintf("snap%d", visited)))
		_, err := tx.PNew(u.person, o)
		return true, err
	})
	if err != nil {
		t.Fatal(err)
	}
	if visited != 14 {
		t.Errorf("snapshot visited %d, want 14", visited)
	}
}

func TestJoinStrategiesAgree(t *testing.T) {
	u := newUniversity(t)
	u.seed(t)
	// Join students to faculty on equal income mod: contrive matches by
	// adding a faculty with income 10 (matching s1).
	tx0 := u.engine.Begin()
	f := core.NewObject(u.faculty)
	f.MustSet("name", core.Str("poor-prof"))
	f.MustSet("income", core.Int(10))
	f.MustSet("dept", core.Str("phil"))
	tx0.PNew(u.faculty, f)
	tx0.Commit()

	tx := u.engine.Begin()
	defer tx.Abort()
	count := func(s JoinStrategy) int {
		j := Forall(tx, u.student).JoinWith(Forall(tx, u.faculty)).
			OnEq("income", "income").Strategy(s)
		n, err := j.Count()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	nl := count(NestedLoop)
	hj := count(HashJoin)
	if nl != 1 || hj != 1 {
		t.Fatalf("join counts: nested-loop=%d hash=%d, want 1", nl, hj)
	}
	// With an index on faculty.income, index-NL must agree, and Auto
	// must pick it.
	if err := u.engine.Manager().CreateIndex(u.faculty, "income"); err != nil {
		t.Fatal(err)
	}
	inl := count(IndexNestedLoop)
	if inl != 1 {
		t.Fatalf("index-NL join = %d", inl)
	}
	j := Forall(tx, u.student).JoinWith(Forall(tx, u.faculty)).OnEq("income", "income")
	if _, err := j.Count(); err != nil {
		t.Fatal(err)
	}
	if j.Plan() != "index-nested-loop" {
		t.Errorf("auto plan = %q", j.Plan())
	}
}

func TestThetaJoin(t *testing.T) {
	u := newUniversity(t)
	u.seed(t)
	tx := u.engine.Begin()
	defer tx.Abort()
	// Pairs (student, faculty) where faculty earns more than 100x the
	// student.
	j := Forall(tx, u.student).JoinWith(Forall(tx, u.faculty)).
		OnTheta(func(a, b Item) (bool, error) {
			return b.Obj.MustGet("income").Int() > 100*a.Obj.MustGet("income").Int(), nil
		})
	n, err := j.Count()
	if err != nil {
		t.Fatal(err)
	}
	// student incomes 0,10,20,30,40; faculty 5000,5001,5002.
	// 100x: 0->all (3), 10->all(3), 20->all(3), 30->all(3), 40->all(3) = 15;
	// for income 50*100=5000 not > 5000... all students < 50 so 15.
	if n != 15 {
		t.Errorf("theta join = %d, want 15", n)
	}
}

func TestJoinWithFilters(t *testing.T) {
	u := newUniversity(t)
	u.seed(t)
	tx := u.engine.Begin()
	defer tx.Abort()
	// Students named s1 joined to faculty with the same school/dept
	// combination is empty; use income join with a filter on the left.
	tx2 := u.engine.Begin()
	f := core.NewObject(u.faculty)
	f.MustSet("name", core.Str("x"))
	f.MustSet("income", core.Int(10))
	tx2.PNew(u.faculty, f)
	tx2.Commit()

	j := Forall(tx, u.student).SuchThat(Field("name").Eq(core.Str("s1"))).
		JoinWith(Forall(tx, u.faculty)).
		OnEq("income", "income")
	n, err := j.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("filtered join = %d, want 1", n)
	}
}

func TestWorklistTransitiveClosure(t *testing.T) {
	// Successors on a small DAG: 1 -> {2,3}, 2 -> {4}, 3 -> {4}, 4 -> {}.
	succ := func(v core.Value) ([]core.Value, error) {
		switch v.Int() {
		case 1:
			return []core.Value{core.Int(2), core.Int(3)}, nil
		case 2, 3:
			return []core.Value{core.Int(4)}, nil
		}
		return nil, nil
	}
	for name, f := range map[string]func([]core.Value, SuccFunc) (*core.Set, error){
		"worklist":  TransitiveClosure,
		"naive":     NaiveTransitiveClosure,
		"seminaive": SemiNaiveTransitiveClosure,
	} {
		got, err := f([]core.Value{core.Int(1)}, succ)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Len() != 4 {
			t.Errorf("%s: closure size %d, want 4", name, got.Len())
		}
		for i := int64(1); i <= 4; i++ {
			if !got.Contains(core.Int(i)) {
				t.Errorf("%s: missing %d", name, i)
			}
		}
	}
}

func TestTransitiveClosureOnCycle(t *testing.T) {
	// 1 -> 2 -> 3 -> 1: all strategies must terminate with {1,2,3}.
	succ := func(v core.Value) ([]core.Value, error) {
		return []core.Value{core.Int(v.Int()%3 + 1)}, nil
	}
	for name, f := range map[string]func([]core.Value, SuccFunc) (*core.Set, error){
		"worklist":  TransitiveClosure,
		"naive":     NaiveTransitiveClosure,
		"seminaive": SemiNaiveTransitiveClosure,
	} {
		got, err := f([]core.Value{core.Int(1)}, succ)
		if err != nil || got.Len() != 3 {
			t.Errorf("%s on cycle: len=%v err=%v", name, got.Len(), err)
		}
	}
}

func TestReachableOIDs(t *testing.T) {
	u := newUniversity(t)
	// Build a parts-ish graph with person objects pointing via an
	// income-encoded... simpler: use a dedicated class with a set of refs.
	schema := u.engine.Manager().Schema()
	part := core.NewClass("part").
		Field("label", core.TString).
		Field("subparts", core.SetOfType(core.RefTo("part"))).
		Register(schema)
	if err := u.engine.Manager().CreateCluster(part); err != nil {
		t.Fatal(err)
	}
	tx := u.engine.Begin()
	mk := func(label string) core.OID {
		o := core.NewObject(part)
		o.MustSet("label", core.Str(label))
		oid, err := tx.PNew(part, o)
		if err != nil {
			t.Fatal(err)
		}
		return oid
	}
	link := func(parent, child core.OID) {
		o, _ := tx.Deref(parent)
		o.MustGet("subparts").Set().Insert(core.Ref(child))
		if err := tx.Update(parent, o); err != nil {
			t.Fatal(err)
		}
	}
	root := mk("root")
	a, b, c, d := mk("a"), mk("b"), mk("c"), mk("d")
	link(root, a)
	link(root, b)
	link(a, c)
	link(b, c)
	link(c, d)
	_ = tx.Commit()

	tx2 := u.engine.Begin()
	defer tx2.Abort()
	reach, err := ReachableOIDs(tx2, []core.OID{root}, func(o *core.Object) ([]core.OID, error) {
		var out []core.OID
		for _, v := range o.MustGet("subparts").Set().Elems() {
			oid, _ := v.AnyOID()
			out = append(out, oid)
		}
		return out, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(reach) != 5 {
		t.Errorf("reachable = %d oids, want 5", len(reach))
	}
	for _, oid := range []core.OID{root, a, b, c, d} {
		if !reach[oid] {
			t.Errorf("missing @%d", oid)
		}
	}
}

func TestForallValues(t *testing.T) {
	s := core.NewSet(core.Int(1), core.Int(2), core.Int(3))
	var got []int64
	err := ForallValues(s,
		func(v core.Value) (bool, error) { return v.Int()%2 == 1, nil },
		false,
		func(v core.Value) (bool, error) {
			got = append(got, v.Int())
			return true, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("filtered set iteration = %v", got)
	}
	// Fixpoint mode visits inserted elements.
	var n int
	ForallValues(s, nil, true, func(v core.Value) (bool, error) {
		n++
		if v.Int() < 6 {
			s.Insert(core.Int(v.Int() + 3))
		}
		return true, nil
	})
	if n != 8 { // 1,2,3 then 4,5,6 then 7,8
		t.Errorf("fixpoint visited %d, want 8", n)
	}
}

func TestCollectAndEmptyExtent(t *testing.T) {
	u := newUniversity(t)
	tx := u.engine.Begin()
	defer tx.Abort()
	items, err := Forall(tx, u.person).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 0 {
		t.Errorf("empty extent returned %d items", len(items))
	}
}
