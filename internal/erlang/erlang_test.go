package erlang

import (
	"fmt"
	"math"
	"testing"

	"github.com/performability/csrl/internal/mrm"
	"github.com/performability/csrl/internal/parallel"
	"github.com/performability/csrl/internal/transient"
)

func singleJump(t *testing.T, mu float64) *mrm.MRM {
	t.Helper()
	b := mrm.NewBuilder(2)
	b.Rate(0, 1, mu)
	b.Reward(0, 1)
	b.Label(1, "goal")
	m, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return m
}

func TestExpandShape(t *testing.T) {
	m := singleJump(t, 2)
	e, err := Expand(m, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if e.Model.N() != 2*3+1 {
		t.Fatalf("expansion has %d states, want 7", e.Model.N())
	}
	if e.Barrier != 6 {
		t.Errorf("barrier index %d", e.Barrier)
	}
	// Phase-advance rate is ρ(s)·k/r = 1·3/4.
	idx00 := e.StateIndex(0, 0)
	if got := e.Model.Rates().At(idx00, e.StateIndex(0, 1)); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("phase rate = %v, want 0.75", got)
	}
	// Last phase feeds the barrier.
	if got := e.Model.Rates().At(e.StateIndex(0, 2), e.Barrier); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("barrier rate = %v, want 0.75", got)
	}
	// CTMC transitions stay within the phase.
	if got := e.Model.Rates().At(e.StateIndex(0, 1), e.StateIndex(1, 1)); got != 2 {
		t.Errorf("intra-phase rate = %v, want 2", got)
	}
	// Zero-reward states have no phase transitions.
	if got := e.Model.ExitRate(e.StateIndex(1, 0)); got != 0 {
		t.Errorf("absorbing zero-reward state has exit rate %v", got)
	}
	// The barrier is absorbing.
	if !e.Model.IsAbsorbing(e.Barrier) {
		t.Error("barrier must be absorbing")
	}
	// Phase i of state s is named after s.
	if got, want := e.Model.Name(e.StateIndex(1, 2)), fmt.Sprintf("%s#%d", m.Name(1), 2); got != want {
		t.Errorf("phase name %q, want %q", got, want)
	}
}

func TestExpandValidation(t *testing.T) {
	m := singleJump(t, 1)
	if _, err := Expand(m, 1, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Expand(m, 0, 4); err == nil {
		t.Error("r=0 accepted")
	}
	if _, err := ReachProbAll(m, m.Label("goal"), 1, math.NaN(), Options{K: 4}); err == nil {
		t.Error("r=NaN accepted")
	}
	if _, err := ReachProbAll(m, mrm.NewStateSet(3), 1, 1, Options{K: 2}); err == nil {
		t.Error("universe mismatch accepted")
	}
}

func TestGoalSetLift(t *testing.T) {
	m := singleJump(t, 1)
	e, err := Expand(m, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	lifted := e.GoalSet(m.Label("goal"))
	if lifted.Len() != 2 {
		t.Errorf("lifted goal has %d states, want 2 (one per phase)", lifted.Len())
	}
	if lifted.Contains(e.Barrier) {
		t.Error("barrier must not be a goal state")
	}
}

// K=1 admits a closed form: the bound is Exp(1/r) and the barrier races the
// jump. Pr{Y ≤ bound at t, X_t = goal} for the single-jump model: the jump
// happens at T ~ Exp(mu), the barrier fires at B ~ Exp(1/r) while in state
// 0 (reward 1). Success = {T ≤ min(B, t)}:
// Pr = mu/(mu+1/r)·(1 − e^{-(mu+1/r)t}).
func TestK1ClosedForm(t *testing.T) {
	const (
		mu = 1.5
		r  = 2.0
		tb = 3.0
	)
	m := singleJump(t, mu)
	v, err := ReachProb(m, m.Label("goal"), tb, r, Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	beta := 1 / r
	want := mu / (mu + beta) * (1 - math.Exp(-(mu+beta)*tb))
	if math.Abs(v-want) > 1e-10 {
		t.Errorf("k=1: got %v, want %v", v, want)
	}
}

func TestConvergenceInK(t *testing.T) {
	// As k grows the approximation approaches the exact 1 − e^{-mu r}
	// (for t ≫ r the time bound is inactive).
	const (
		mu = 1.0
		r  = 1.0
		tb = 50.0
	)
	m := singleJump(t, mu)
	exact := 1 - math.Exp(-mu*r)
	prevErr := math.Inf(1)
	for _, k := range []int{1, 4, 16, 64, 256} {
		v, err := ReachProb(m, m.Label("goal"), tb, r, Options{K: k})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		e := math.Abs(v - exact)
		if e > prevErr+1e-12 {
			t.Errorf("error increased at k=%d: %v > %v", k, e, prevErr)
		}
		prevErr = e
	}
	if prevErr > 2e-3 {
		t.Errorf("k=256 error %v too large", prevErr)
	}
}

func TestDefaultKApplied(t *testing.T) {
	m := singleJump(t, 1)
	if _, err := ReachProbAll(m, m.Label("goal"), 1, 1, Options{}); err != nil {
		t.Fatalf("zero-value options must work: %v", err)
	}
}

// ringModel builds an n-state ring with rewards {0, 1, 2} and every
// fourth state in the goal set.
func ringModel(t *testing.T, n int) *mrm.MRM {
	t.Helper()
	b := mrm.NewBuilder(n)
	for s := 0; s < n; s++ {
		b.Rate(s, (s+1)%n, 2.0+0.01*float64(s%7))
		b.Rate(s, (s+n-1)%n, 0.5)
		b.Reward(s, float64(s%3))
		if s%4 == 0 {
			b.Label(s, "goal")
		}
	}
	m, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return m
}

func TestReachProbAllParallelEquivalence(t *testing.T) {
	// The k = 256 expansion of a 60-state ring has 15 361 states and
	// ≈ 62k stored entries, most of them in shift-invariant runs: above
	// the sparse kernels' grain even with run entries discounted, so the
	// sweep fans out at Workers ≥ 2.
	m := ringModel(t, 60)
	goal := m.Label("goal")
	const tb, rb = 1.0, 256.0
	opts := func(workers int) Options {
		return Options{K: 256, Transient: transient.Options{Epsilon: 1e-12, Workers: workers}}
	}
	seq, err := ReachProbAll(m, goal, tb, rb, opts(1))
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	for _, workers := range []int{0, 2, 4} {
		var par []float64
		before := parallel.ChunkCount()
		par, err = ReachProbAll(m, goal, tb, rb, opts(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if parallel.Resolve(workers) > 1 && parallel.ChunkCount() == before {
			t.Fatalf("workers=%d: the sweep never fanned out", workers)
		}
		for s := range par {
			// The backward sweep is row-partitioned and bitwise-stable.
			if math.Float64bits(par[s]) != math.Float64bits(seq[s]) {
				t.Fatalf("workers=%d: state %d: %g != sequential %g", workers, s, par[s], seq[s])
			}
		}
	}
}
