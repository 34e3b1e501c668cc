package sericola

import (
	"errors"
	"math"
	"slices"
	"testing"

	"github.com/performability/csrl/internal/mrm"
	"github.com/performability/csrl/internal/runenv"
	"github.com/performability/csrl/internal/sparse"
)

// singleJump is the analytically solvable model used to verify the C(h,n,k)
// recursion coefficients: state 0 with reward 1 jumps at rate mu to the
// absorbing zero-reward state 1. The accumulated reward is Y_t = min(T, t)
// with T ~ Exp(mu), so
//
//	Pr{Y_t ≤ r, X_t = 1} = Pr{T ≤ r}           (r < t)
//	Pr{Y_t ≤ r, X_t = 0} = 0                   (r < t; staying means Y=t>r)
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

func TestSingleJumpAnalytic(t *testing.T) {
	const mu = 1.3
	m := singleJump(t, mu)
	goal := m.Label("goal")
	for _, tc := range []struct{ tb, rb float64 }{
		{2, 0.5}, {2, 1}, {2, 1.9}, {5, 0.1}, {0.7, 0.3},
	} {
		res, err := ReachProbAll(m, goal, tc.tb, tc.rb, Options{Epsilon: 1e-12})
		if err != nil {
			t.Fatalf("t=%v r=%v: %v", tc.tb, tc.rb, err)
		}
		want := 1 - math.Exp(-mu*tc.rb)
		if math.Abs(res.Values[0]-want) > 1e-9 {
			t.Errorf("t=%v r=%v: got %v, want %v", tc.tb, tc.rb, res.Values[0], want)
		}
	}
}

func TestSingleJumpGoalIsRewardedState(t *testing.T) {
	// Pr{Y_t ≤ r, X_t = 0} = 0 for r < t because staying in state 0 until
	// time t accumulates exactly t.
	m := singleJump(t, 2)
	zeroGoal := mrm.NewStateSetOf(2, 0)
	res, err := ReachProbAll(m, zeroGoal, 3, 1, Options{Epsilon: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Values[0]) > 1e-9 {
		t.Errorf("got %v, want 0", res.Values[0])
	}
	// And for r ≥ t it is the survival probability e^{-mu t}.
	res, err = ReachProbAll(m, zeroGoal, 3, 5, Options{Epsilon: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	want := math.Exp(-2 * 3.0)
	if math.Abs(res.Values[0]-want) > 1e-9 {
		t.Errorf("got %v, want %v", res.Values[0], want)
	}
}

func TestZeroTime(t *testing.T) {
	m := singleJump(t, 1)
	res, err := ReachProbAll(m, m.Label("goal"), 0, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// At t=0 the chain is still in state 0 ∉ goal.
	if res.Values[0] != 0 || res.Values[1] != 1 {
		t.Errorf("t=0 values = %v", res.Values)
	}
}

func TestNegativeBoundsRejected(t *testing.T) {
	m := singleJump(t, 1)
	if _, err := ReachProbAll(m, m.Label("goal"), -1, 1, Options{}); err == nil {
		t.Error("negative time accepted")
	}
	if _, err := ReachProbAll(m, m.Label("goal"), 1, -1, Options{}); err == nil {
		t.Error("negative reward accepted")
	}
	// Every comparison with NaN is false: unchecked, a NaN bound slips past
	// the band classification and comes back as a NaN "probability".
	if _, err := ReachProbAll(m, m.Label("goal"), math.NaN(), 1, Options{}); err == nil {
		t.Error("NaN time accepted")
	}
	if _, err := ReachProbBatch(m, m.Label("goal"), 1, []float64{1, math.NaN()}, Options{}); err == nil {
		t.Error("NaN reward accepted")
	}
	if _, err := ReachProbAll(m, mrm.NewStateSet(5), 1, 1, Options{}); err == nil {
		t.Error("universe mismatch accepted")
	}
}

func TestRewardShiftInvariance(t *testing.T) {
	// Adding a constant c to every reward shifts Y_t by c·t exactly:
	// P{Y ≤ r} on the shifted model with bound r + c·t must match.
	build := func(shift float64) *mrm.MRM {
		b := mrm.NewBuilder(3)
		b.Rate(0, 1, 2).Rate(1, 0, 1).Rate(0, 2, 0.5).Rate(1, 2, 0.5)
		b.Reward(0, 1+shift).Reward(1, 3+shift).Reward(2, shift)
		b.Label(2, "goal")
		m, err := b.Build()
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		return m
	}
	tb, rb := 1.5, 2.0
	base, err := ReachProbAll(build(0), build(0).Label("goal"), tb, rb, Options{Epsilon: 1e-11})
	if err != nil {
		t.Fatal(err)
	}
	const c = 2.0
	shifted, err := ReachProbAll(build(c), build(c).Label("goal"), tb, rb+c*tb, Options{Epsilon: 1e-11})
	if err != nil {
		t.Fatal(err)
	}
	for s := range base.Values {
		if math.Abs(base.Values[s]-shifted.Values[s]) > 1e-8 {
			t.Errorf("state %d: %v vs shifted %v", s, base.Values[s], shifted.Values[s])
		}
	}
}

func TestMonotonicityInBounds(t *testing.T) {
	// The reachability probability is nondecreasing in r.
	b := mrm.NewBuilder(3)
	b.Rate(0, 1, 2).Rate(1, 2, 1).Rate(1, 0, 1)
	b.Reward(0, 1).Reward(1, 2)
	b.Label(2, "goal")
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	goal := m.Label("goal")
	prev := -1.0
	for _, rb := range []float64{0.1, 0.5, 1, 2, 4, 8} {
		res, err := ReachProbAll(m, goal, 3, rb, Options{Epsilon: 1e-10})
		if err != nil {
			t.Fatal(err)
		}
		v := res.Values[0]
		if v < prev-1e-10 {
			t.Errorf("probability decreased at r=%v: %v < %v", rb, v, prev)
		}
		if v < 0 || v > 1 {
			t.Errorf("r=%v: value %v outside [0,1]", rb, v)
		}
		prev = v
	}
}

func TestUniformisationRateInvariance(t *testing.T) {
	// The result must not depend on the chosen uniformisation rate λ.
	m := singleJump(t, 1.7)
	goal := m.Label("goal")
	ref, err := ReachProbAll(m, goal, 2, 1, Options{Epsilon: 1e-11})
	if err != nil {
		t.Fatal(err)
	}
	for _, lambda := range []float64{1.7, 2.5, 10} {
		res, err := ReachProbAll(m, goal, 2, 1, Options{Epsilon: 1e-11, Lambda: lambda})
		if err != nil {
			t.Fatalf("λ=%v: %v", lambda, err)
		}
		if math.Abs(res.Values[0]-ref.Values[0]) > 1e-8 {
			t.Errorf("λ=%v: %v vs %v", lambda, res.Values[0], ref.Values[0])
		}
	}
}

func TestNIncreasesWithAccuracy(t *testing.T) {
	m := singleJump(t, 3)
	goal := m.Label("goal")
	prevN := 0
	for _, eps := range []float64{1e-2, 1e-4, 1e-6, 1e-8} {
		res, err := ReachProbAll(m, goal, 5, 2, Options{Epsilon: eps})
		if err != nil {
			t.Fatal(err)
		}
		if res.N < prevN {
			t.Errorf("N decreased with tighter eps: %d < %d", res.N, prevN)
		}
		prevN = res.N
	}
}

func TestReachProbUsesInitialDistribution(t *testing.T) {
	b := mrm.NewBuilder(2)
	b.Rate(0, 1, 1)
	b.Reward(0, 1)
	b.Label(1, "goal")
	b.InitialProb(0, 0.5).InitialProb(1, 0.5)
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := ReachProb(m, m.Label("goal"), 1, 0.5, Options{Epsilon: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	want := 0.5*(1-math.Exp(-0.5)) + 0.5*1
	if math.Abs(v-want) > 1e-8 {
		t.Errorf("mixed-initial value %v, want %v", v, want)
	}
}

// TestOversizedRecursionRefused pins the size caps: a recursion whose
// tensors exceed maxHeld, or whose work exceeds maxWork, fails with
// ErrTooLarge before anything is checked out of the pool — the vacuous
// bound in each batch shows that the transient leg does not run either.
func TestOversizedRecursionRefused(t *testing.T) {
	const n = 200
	b := mrm.NewBuilder(n)
	for s := 0; s < n; s++ {
		b.Rate(s, (s+1)%n, 1)
		b.Reward(s, float64(s))
	}
	ring, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	jump := singleJump(t, 1)
	for _, tc := range []struct {
		name string
		m    *mrm.MRM
		goal *mrm.StateSet
		t    float64
		rs   []float64
	}{
		// 199 bands × 2·(N+1) = 72 levels of 200×200 cells: 5.7e8 held.
		{"held", ring, mrm.NewStateSet(n).Complement(), 10, []float64{5, 1e6}},
		// One band, one column, N ≈ 3.1e5 levels: 1.2e6 held, 2.9e11 work.
		{"work", jump, jump.Label("goal"), 3e5, []float64{1e5, 1e6}},
	} {
		pool := sparse.NewVecPool()
		_, err := ReachProbBatch(tc.m, tc.goal, tc.t, tc.rs, Options{Epsilon: 1e-9, Env: runenv.Env{Pool: pool}})
		if !errors.Is(err, ErrTooLarge) {
			t.Errorf("%s: err %v, want ErrTooLarge", tc.name, err)
		}
		if gets := pool.Stats().Gets; gets != 0 {
			t.Errorf("%s: %d pool checkouts before the refusal, want 0", tc.name, gets)
		}
	}
}

// TestRunSizeCountsPooledCells pins runSize's held count to what run
// actually checks out of a fresh pool, so the cap cannot drift from the
// layout it bounds.
func TestRunSizeCountsPooledCells(t *testing.T) {
	m := fourState(t)
	goal := mrm.NewStateSetOf(m.N(), 1, 3)
	rs := []float64{0.4, 2.2, 0.9}
	for _, fullWidth := range []bool{false, true} {
		pool := sparse.NewVecPool()
		res, err := ReachProbBatch(m, goal, 1.5, rs, Options{Epsilon: 1e-10, FullWidth: fullWidth, Env: runenv.Env{Pool: pool}})
		if err != nil {
			t.Fatal(err)
		}
		g := goal.Len()
		if fullWidth {
			g = m.N()
		}
		held, _ := runSize(m.N(), g, len(m.DistinctRewards())-1, res[0].N, len(rs), m.Rates().NNZ())
		if got := pool.Stats().AllocBytes; float64(got) != 8*held {
			t.Errorf("fullWidth=%v: pooled %d bytes, runSize counts %v cells (%v bytes)", fullWidth, got, held, 8*held)
		}
	}
}

// TestLiveRows pins the dead-row predicate the recursion skips by: a
// zero-reward 2-cycle and the absorbing goal are dead, and a zero-reward
// state with an edge to a positive-reward state is live, as is every
// state that reaches one.
func TestLiveRows(t *testing.T) {
	// 0 (reward 2) → 1 (reward 0) → 2 (reward 1); 3 ⇄ 4 both reward 0;
	// 2 → 3 and 2 → 5, the absorbing zero-reward goal.
	b := mrm.NewBuilder(6)
	b.Rate(0, 1, 1).Rate(1, 2, 1).Rate(2, 3, 1).Rate(2, 5, 1)
	b.Rate(3, 4, 1).Rate(4, 3, 2)
	b.Reward(0, 2).Reward(2, 1)
	b.Label(5, "goal")
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	got := liveRows(m, m.Rewards())
	if want := []int{0, 1, 2}; !slices.Equal(got, want) {
		t.Errorf("live rows %v, want %v", got, want)
	}
}
