package query

import (
	"fmt"

	"ode/internal/core"
)

// JoinStrategy selects the physical join algorithm.
type JoinStrategy uint8

// Join strategies. Auto picks index-nested-loop when the right side has
// a usable index on the join field, hash join otherwise (for
// equi-joins); theta joins always run as nested loops.
const (
	Auto JoinStrategy = iota
	NestedLoop
	IndexNestedLoop
	HashJoin
)

func (s JoinStrategy) String() string {
	switch s {
	case NestedLoop:
		return "nested-loop"
	case IndexNestedLoop:
		return "index-nested-loop"
	case HashJoin:
		return "hash"
	}
	return "auto"
}

// Join is a two-variable forall loop:
//
//	forall x in C1, forall y in C2 suchthat (x.f == y.g) { body }
//
// (the paper's answer to the "arbitrary join queries" criticism of
// object databases, section 3.1).
type Join struct {
	left, right *Query
	leftField   string
	rightField  string
	theta       func(a, b Item) (bool, error)
	strategy    JoinStrategy
	plan        string
}

// JoinWith pairs two forall loops.
func (q *Query) JoinWith(r *Query) *Join {
	return &Join{left: q, right: r, strategy: Auto}
}

// OnEq sets an equi-join condition left.leftField == right.rightField.
func (j *Join) OnEq(leftField, rightField string) *Join {
	j.leftField, j.rightField = leftField, rightField
	return j
}

// OnTheta sets an arbitrary join condition (forces nested loop).
func (j *Join) OnTheta(fn func(a, b Item) (bool, error)) *Join {
	j.theta = fn
	return j
}

// Strategy forces a physical strategy (ablation benchmarks).
func (j *Join) Strategy(s JoinStrategy) *Join {
	j.strategy = s
	return j
}

// Plan describes the strategy chosen by the last run.
func (j *Join) Plan() string { return j.plan }

// Do runs the join, invoking fn for every matching pair. Join loops use
// snapshot semantics on both sides.
func (j *Join) Do(fn func(a, b Item) (bool, error)) error {
	// The sides run as internal subqueries: they do the scanning work
	// (rows_scanned/rows_yielded) but only the join itself counts as a
	// plan choice.
	met := &j.left.tx.Metrics().Query
	met.Joins.Inc()
	leftInt, rightInt := j.left.internal, j.right.internal
	j.left.internal, j.right.internal = true, true
	defer func() { j.left.internal, j.right.internal = leftInt, rightInt }()
	if j.theta != nil {
		j.plan = "nested-loop(theta)"
		met.PlanJoinNestedLoop.Inc()
		return j.nestedLoopTheta(fn)
	}
	if j.leftField == "" || j.rightField == "" {
		return fmt.Errorf("query: join requires OnEq or OnTheta")
	}
	s := j.resolveStrategy()
	j.plan = s.String()
	switch s {
	case NestedLoop:
		met.PlanJoinNestedLoop.Inc()
		return j.nestedLoopEq(fn)
	case IndexNestedLoop:
		met.PlanJoinIndexNL.Inc()
		return j.indexNestedLoop(fn)
	case HashJoin:
		met.PlanJoinHash.Inc()
		return j.hashJoin(fn)
	}
	return fmt.Errorf("query: unknown join strategy %d", s)
}

// Count runs the join and counts pairs.
func (j *Join) Count() (int, error) {
	n := 0
	err := j.Do(func(_, _ Item) (bool, error) {
		n++
		return true, nil
	})
	return n, err
}

func (j *Join) nestedLoopTheta(fn func(a, b Item) (bool, error)) error {
	rights, err := j.right.Snapshot().Collect()
	if err != nil {
		return err
	}
	return j.left.Snapshot().Do(func(a Item) (bool, error) {
		for _, b := range rights {
			ok, err := j.theta(a, b)
			if err != nil {
				return false, err
			}
			if ok {
				cont, err := fn(a, b)
				if err != nil || !cont {
					return false, err
				}
			}
		}
		return true, nil
	})
}

func (j *Join) nestedLoopEq(fn func(a, b Item) (bool, error)) error {
	rights, err := j.right.Snapshot().Collect()
	if err != nil {
		return err
	}
	return j.left.Snapshot().Do(func(a Item) (bool, error) {
		av, err := a.Obj.Get(j.leftField)
		if err != nil {
			return false, err
		}
		for _, b := range rights {
			bv, err := b.Obj.Get(j.rightField)
			if err != nil {
				return false, err
			}
			if av.Equal(bv) {
				cont, err := fn(a, b)
				if err != nil || !cont {
					return false, err
				}
			}
		}
		return true, nil
	})
}

// indexNestedLoop probes the right side's index once per left binding.
func (j *Join) indexNestedLoop(fn func(a, b Item) (bool, error)) error {
	return j.left.Snapshot().Do(func(a Item) (bool, error) {
		av, err := a.Obj.Get(j.leftField)
		if err != nil {
			return false, err
		}
		// Clone the right query per probe so plans don't interfere.
		probe := *j.right
		probe.internal = true
		probe.pred = nil
		if j.right.pred != nil {
			probe.pred = j.right.pred
		}
		probe = *probe.SuchThat(Field(j.rightField).Eq(av))
		items, err := probe.Snapshot().Collect()
		if err != nil {
			return false, err
		}
		for _, b := range items {
			cont, err := fn(a, b)
			if err != nil || !cont {
				return false, err
			}
		}
		return true, nil
	})
}

// hashJoin builds a hash table over the right side keyed by the join
// field value, then probes it with each left binding.
func (j *Join) hashJoin(fn func(a, b Item) (bool, error)) error {
	table := make(map[uint64][]Item)
	err := j.right.Snapshot().Do(func(b Item) (bool, error) {
		bv, err := b.Obj.Get(j.rightField)
		if err != nil {
			return false, err
		}
		h := bv.Hash()
		table[h] = append(table[h], b)
		return true, nil
	})
	if err != nil {
		return err
	}
	return j.left.Snapshot().Do(func(a Item) (bool, error) {
		av, err := a.Obj.Get(j.leftField)
		if err != nil {
			return false, err
		}
		for _, b := range table[av.Hash()] {
			bv, err := b.Obj.Get(j.rightField)
			if err != nil {
				return false, err
			}
			if av.Equal(bv) {
				cont, err := fn(a, b)
				if err != nil || !cont {
					return false, err
				}
			}
		}
		return true, nil
	})
}

// ForallValues iterates a set value with optional suchthat and by,
// mirroring set loops (`forall x in s suchthat ... by ...`). With
// fixpoint true, elements inserted during iteration are visited.
func ForallValues(s *core.Set, pred func(core.Value) (bool, error), fixpoint bool, fn func(core.Value) (bool, error)) error {
	var outerErr error
	visit := func(v core.Value) bool {
		if pred != nil {
			ok, err := pred(v)
			if err != nil {
				outerErr = err
				return false
			}
			if !ok {
				return true
			}
		}
		cont, err := fn(v)
		if err != nil {
			outerErr = err
			return false
		}
		return cont
	}
	if fixpoint {
		s.Iter(visit)
	} else {
		s.IterSnapshot(visit)
	}
	return outerErr
}
