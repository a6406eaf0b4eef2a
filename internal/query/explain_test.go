package query

import (
	"strings"
	"testing"

	"ode/internal/core"
)

// Explain reports, without running the loop, the access path Do then
// takes, and renders the whole suchthat tree and the by clause.
func TestExplainMatchesRun(t *testing.T) {
	u := newUniversity(t)
	u.seed(t)
	tx := u.engine.Begin()
	defer tx.Abort()

	q := Forall(tx, u.person).Subtypes().
		SuchThat(Or(Field("income").Lt(core.Int(100)), Not(Is(u.faculty)))).
		SuchThat(Fn(func(core.Store, Item) (bool, error) { return true, nil })).
		By("income").Desc()
	want := "extent-scan(person*) filter(((income < 100 || !(is faculty)) && <fn>)) order-by(income desc)"
	if got := q.Explain().String(); got != want {
		t.Errorf("Explain = %q, want %q", got, want)
	}
	if err := u.engine.Manager().CreateIndex(u.person, "income"); err != nil {
		t.Fatal(err)
	}
	ranged := Forall(tx, u.person).SuchThat(Field("income").Ge(core.Int(500)))
	p := ranged.Explain()
	if want := "index-scan(person.income in [500, +inf]) filter(income >= 500)"; p.String() != want {
		t.Errorf("Explain = %q, want %q", p, want)
	}
	if n, err := ranged.Count(); err != nil || n != 5 {
		t.Fatalf("count = %d, %v; want 5", n, err)
	}
	if got, want := ranged.Plan(), "index-scan(person.income in [500, "; !strings.HasPrefix(got, want) {
		t.Errorf("Plan after the run = %q, want the explained index scan", got)
	}
	if got := Forall(tx, u.person).SuchThat(Field("income").Gt(core.Int(500))).Explain(); !got.Residual {
		t.Errorf("a > bound explains as %q, want a residual check", got)
	}
}

// A join explains its strategy and its outer side: index-nested-loop
// over an indexed inner field, hash otherwise, nested loop for theta.
func TestJoinExplain(t *testing.T) {
	u := newUniversity(t)
	u.seed(t)
	tx := u.engine.Begin()
	defer tx.Abort()

	join := func() *Join {
		return Forall(tx, u.student).JoinWith(Forall(tx, u.faculty)).OnEq("income", "income")
	}
	if got, want := join().Explain().String(), "hash(student.income = faculty.income; outer extent-scan(student))"; got != want {
		t.Errorf("Explain = %q, want %q", got, want)
	}
	theta := Forall(tx, u.student).JoinWith(Forall(tx, u.faculty)).
		OnTheta(func(a, b Item) (bool, error) { return true, nil })
	if got, want := theta.Explain().String(), "nested-loop(theta; outer extent-scan(student), inner extent-scan(faculty))"; got != want {
		t.Errorf("Explain = %q, want %q", got, want)
	}
	if err := u.engine.Manager().CreateIndex(u.faculty, "income"); err != nil {
		t.Fatal(err)
	}
	if got, want := join().Explain().Strategy, IndexNestedLoop; got != want {
		t.Errorf("strategy with an inner index = %s, want %s", got, want)
	}
}

// A worklist accumulates its seeds and every element a visit adds,
// each once, in insertion order.
func TestWorklistAccumulates(t *testing.T) {
	w := NewWorklist(core.Int(1))
	err := w.Run(func(v core.Value, add func(core.Value) bool) error {
		if n := v.Int(); n < 4 {
			add(core.Int(n + 1))
			add(core.Int(1)) // already present: not visited again
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != 4 || !w.Contains(core.Int(4)) || w.Contains(core.Int(5)) {
		t.Fatalf("worklist holds %v", w.Elems())
	}
	for i, v := range w.Elems() {
		if v.Int() != int64(i+1) {
			t.Fatalf("element %d is %v, want %d", i, v, i+1)
		}
	}
}
