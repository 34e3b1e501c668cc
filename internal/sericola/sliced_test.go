package sericola

import (
	"math"
	"testing"

	"github.com/performability/csrl/internal/mrm"
	"github.com/performability/csrl/internal/runenv"
	"github.com/performability/csrl/internal/sparse"
)

// fourState builds a small irreducible-ish MRM with three distinct rewards
// (three occupation bands) so the recursion exercises both sweeps.
func fourState(t *testing.T) *mrm.MRM {
	t.Helper()
	b := mrm.NewBuilder(4)
	b.Rate(0, 1, 1.5).Rate(0, 2, 0.5)
	b.Rate(1, 2, 2).Rate(1, 3, 0.25)
	b.Rate(2, 0, 1).Rate(2, 3, 0.75)
	b.Reward(0, 0)
	b.Reward(1, 1)
	b.Reward(2, 2)
	b.Reward(3, 2)
	b.InitialState(0)
	m, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return m
}

func bitwiseEqual(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", label, len(got), len(want))
	}
	for s := range got {
		if math.Float64bits(got[s]) != math.Float64bits(want[s]) {
			t.Errorf("%s: state %d: %v vs %v not bitwise equal", label, s, got[s], want[s])
		}
	}
}

// TestDegenerateGoalFullWidth covers g = n: with every state in the goal
// set, the sliced recursion carries all n columns, which must coincide
// bitwise with the explicit FullWidth path (there the final sum also runs
// over all columns, in the same ascending order).
func TestDegenerateGoalFullWidth(t *testing.T) {
	m := fourState(t)
	all := mrm.NewStateSet(m.N()).Complement()
	const tb, rb = 1.5, 1.25
	sliced, err := ReachProbAll(m, all, tb, rb, Options{Epsilon: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	full, err := ReachProbAll(m, all, tb, rb, Options{Epsilon: 1e-10, FullWidth: true})
	if err != nil {
		t.Fatal(err)
	}
	if sliced.N != full.N {
		t.Fatalf("truncation N differs: %d vs %d", sliced.N, full.N)
	}
	bitwiseEqual(t, "g=n", sliced.Values, full.Values)
}

// TestSlicedMatchesFullWidthSingleColumn covers the opposite extreme,
// g = 1 (which takes the specialised single-column row product).
func TestSlicedMatchesFullWidthSingleColumn(t *testing.T) {
	m := fourState(t)
	goal := mrm.NewStateSetOf(m.N(), 3)
	for _, rb := range []float64{0.4, 1.25, 2.6} {
		sliced, err := ReachProbAll(m, goal, 1.5, rb, Options{Epsilon: 1e-10})
		if err != nil {
			t.Fatalf("r=%v: %v", rb, err)
		}
		full, err := ReachProbAll(m, goal, 1.5, rb, Options{Epsilon: 1e-10, FullWidth: true})
		if err != nil {
			t.Fatalf("r=%v: %v", rb, err)
		}
		bitwiseEqual(t, "g=1", sliced.Values, full.Values)
	}
}

// TestPoolReuseIsBitwiseStable runs the same computation three times
// through one pool: recycled slabs must not leak state between runs, and
// pooled results must match the unpooled ones bit for bit.
func TestPoolReuseIsBitwiseStable(t *testing.T) {
	m := fourState(t)
	goal := mrm.NewStateSetOf(m.N(), 2, 3)
	const tb, rb = 1.5, 1.25
	plain, err := ReachProbAll(m, goal, tb, rb, Options{Epsilon: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	pool := sparse.NewVecPool()
	for rep := 0; rep < 3; rep++ {
		pooled, err := ReachProbAll(m, goal, tb, rb, Options{Epsilon: 1e-10, Env: runenv.Env{Pool: pool}})
		if err != nil {
			t.Fatalf("rep %d: %v", rep, err)
		}
		bitwiseEqual(t, "pooled", pooled.Values, plain.Values)
	}
}
