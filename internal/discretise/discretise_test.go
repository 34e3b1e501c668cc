package discretise

import (
	"errors"
	"math"
	"testing"

	"github.com/performability/csrl/internal/mrm"
	"github.com/performability/csrl/internal/sparse"
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

func TestSingleJumpAnalytic(t *testing.T) {
	const mu = 1.25
	m := singleJump(t, mu)
	goal := m.Label("goal")
	// Pr{Y ≤ r, X_t = goal} = 1 − e^{-mu r} for r < t.
	tb, rb := 2.0, 1.0
	want := 1 - math.Exp(-mu*rb)
	prevErr := math.Inf(1)
	for _, d := range []float64{1.0 / 16, 1.0 / 64, 1.0 / 256} {
		got, err := ReachProb(m, goal, tb, rb, 0, Options{D: d})
		if err != nil {
			t.Fatalf("d=%v: %v", d, err)
		}
		e := math.Abs(got - want)
		if e > prevErr*0.75 && prevErr < math.Inf(1) {
			t.Errorf("error not shrinking fast enough at d=%v: %v vs %v", d, e, prevErr)
		}
		prevErr = e
	}
	if prevErr > 1e-2 {
		t.Errorf("finest step error %v too large", prevErr)
	}
}

func TestFirstOrderConvergence(t *testing.T) {
	// Halving d should roughly halve the error (the scheme is first order).
	const mu = 2.0
	m := singleJump(t, mu)
	goal := m.Label("goal")
	tb, rb := 1.0, 0.5
	want := 1 - math.Exp(-mu*rb)
	e1, err := ReachProb(m, goal, tb, rb, 0, Options{D: 1.0 / 32})
	if err != nil {
		t.Fatal(err)
	}
	e2, err := ReachProb(m, goal, tb, rb, 0, Options{D: 1.0 / 64})
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := math.Abs(e1-want), math.Abs(e2-want)
	ratio := r1 / r2
	if ratio < 1.5 || ratio > 3 {
		t.Errorf("error ratio %v not ≈ 2 (errors %v, %v)", ratio, r1, r2)
	}
}

func TestValidation(t *testing.T) {
	m := singleJump(t, 3)
	goal := m.Label("goal")
	if _, err := ReachProb(m, goal, 1, 1, 0, Options{D: 0}); !errors.Is(err, ErrStep) {
		t.Errorf("d=0: %v", err)
	}
	if _, err := ReachProb(m, goal, 1, 1, 0, Options{D: 0.5}); !errors.Is(err, ErrStep) {
		t.Errorf("d too coarse: %v", err)
	}
	if _, err := ReachProb(m, goal, 1, 1, 0, Options{D: 0.5, AllowCoarse: true}); err != nil {
		t.Errorf("AllowCoarse should permit the step: %v", err)
	}
	if _, err := ReachProb(m, goal, 1.03, 1, 0, Options{D: 0.125}); !errors.Is(err, ErrStep) {
		t.Errorf("non-multiple t: %v", err)
	}
	if _, err := ReachProb(m, goal, 1, 1, 5, Options{D: 0.125}); err == nil {
		t.Error("bad initial state accepted")
	}
	if _, err := ReachProb(m, goal, -1, 1, 0, Options{D: 0.125}); err == nil {
		t.Error("negative bound accepted")
	}
}

func TestNonNaturalRewardsRejected(t *testing.T) {
	b := mrm.NewBuilder(2)
	b.Rate(0, 1, 1)
	b.Reward(0, 1.5)
	b.Label(1, "goal")
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReachProb(m, m.Label("goal"), 1, 1, 0, Options{D: 0.125}); !errors.Is(err, ErrRewards) {
		t.Errorf("fractional reward: %v", err)
	}
	// Scaling by 2 makes them natural.
	scaled, rb, err := ScaleRewards(m, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rb != 2 || scaled.Reward(0) != 3 {
		t.Errorf("scaled: rb=%v ρ(0)=%v", rb, scaled.Reward(0))
	}
	if _, err := ReachProb(scaled, scaled.Label("goal"), 1, rb, 0, Options{D: 0.125}); err != nil {
		t.Errorf("scaled model rejected: %v", err)
	}
	if _, _, err := ScaleRewards(m, 1, -1); err == nil {
		t.Error("negative scale accepted")
	}
}

func TestScalingInvariance(t *testing.T) {
	// P{Y ≤ r} is invariant under joint scaling of rewards and bound.
	b := mrm.NewBuilder(3)
	b.Rate(0, 1, 2).Rate(1, 2, 1).Rate(1, 0, 2)
	b.Reward(0, 1).Reward(1, 2)
	b.Label(2, "goal")
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	goal := m.Label("goal")
	v1, err := ReachProb(m, goal, 2, 3, 0, Options{D: 1.0 / 64})
	if err != nil {
		t.Fatal(err)
	}
	scaled, rb, err := ScaleRewards(m, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := ReachProb(scaled, goal, 2, rb, 0, Options{D: 1.0 / 64})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v1-v2) > 1e-12 {
		t.Errorf("scaling changed the value: %v vs %v", v1, v2)
	}
}

func TestImpulseRewards(t *testing.T) {
	// Extension: an impulse of 3 on the only transition. With state
	// rewards zero, Y at the jump is exactly 3, so the bound decides
	// success sharply: r=2 → 0, r=3 → CDF of the jump by time t.
	b := mrm.NewBuilder(2)
	b.Rate(0, 1, 2)
	b.Label(1, "goal")
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	goal := m.Label("goal")
	imp, err := sparse.NewFromTriplets(2, []sparse.Triplet{{Row: 0, Col: 1, Val: 3}})
	if err != nil {
		t.Fatal(err)
	}
	tb := 1.0
	got, err := ReachProb(m, goal, tb, 2, 0, Options{D: 1.0 / 64, Impulses: imp})
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("r below impulse: got %v, want 0", got)
	}
	got, err = ReachProb(m, goal, tb, 3, 0, Options{D: 1.0 / 64, Impulses: imp})
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - math.Exp(-2*tb)
	if math.Abs(got-want) > 0.02 {
		t.Errorf("r at impulse: got %v, want ≈ %v", got, want)
	}
	// Impulses that are not multiples of d are rejected.
	impBad, err := sparse.NewFromTriplets(2, []sparse.Triplet{{Row: 0, Col: 1, Val: 0.01}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReachProb(m, goal, tb, 3, 0, Options{D: 1.0 / 64, Impulses: impBad}); !errors.Is(err, ErrRewards) {
		t.Errorf("non-grid impulse: %v", err)
	}
	// A fractional impulse that IS a multiple of d is fine.
	impOK, err := sparse.NewFromTriplets(2, []sparse.Triplet{{Row: 0, Col: 1, Val: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReachProb(m, goal, tb, 3, 0, Options{D: 1.0 / 64, Impulses: impOK}); err != nil {
		t.Errorf("grid-aligned impulse rejected: %v", err)
	}
}

func TestReachProbAllConsistent(t *testing.T) {
	m := singleJump(t, 1)
	goal := m.Label("goal")
	all, err := ReachProbAll(m, goal, 1, 1, Options{D: 1.0 / 32})
	if err != nil {
		t.Fatal(err)
	}
	one, err := ReachProb(m, goal, 1, 1, 0, Options{D: 1.0 / 32})
	if err != nil {
		t.Fatal(err)
	}
	if all[0] != one {
		t.Errorf("ReachProbAll[0] = %v, ReachProb = %v", all[0], one)
	}
	// From the absorbing goal state the probability is 1 (zero reward).
	if math.Abs(all[1]-1) > 1e-9 {
		t.Errorf("from goal state: %v, want 1", all[1])
	}
}

// TestNonFiniteAndHugeGridsRejected pins prepare's guards: non-finite
// bounds and steps are errors (NaN or ±Inf used to convert to a wrapped
// int, panicking in makeslice or silently returning 0), and grids beyond
// maxGridCells or work beyond maxWork fail with ErrGrid before anything is
// allocated. The last two cases sit under the earlier single-grid cap of
// 2²⁸ cells and 2²⁸ steps: 4e8 cells held, and 2e11 cell updates.
func TestNonFiniteAndHugeGridsRejected(t *testing.T) {
	m := singleJump(t, 3)
	goal := m.Label("goal")
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		t, r float64
		d    float64
		want error // nil: any error
	}{
		{"t NaN", nan, 1, 0.125, nil},
		{"t +Inf", inf, 1, 0.125, nil},
		{"r NaN", 1, nan, 0.125, nil},
		{"r +Inf", 1, inf, 0.125, nil},
		{"d NaN", 1, 1, nan, ErrStep},
		{"d +Inf", 1, 1, inf, ErrStep},
		{"d tiny", 1, 1, 1e-300, ErrGrid},
		{"r huge", 1, 1e12, 0.125, ErrGrid},
		{"t huge", 1e12, 1, 0.125, ErrGrid},
		{"grid pair over memory cap", 1, 1.25e7, 0.125, ErrGrid},
		{"work over cap", 1.25e7, 125, 0.125, ErrGrid},
	} {
		_, err := ReachProb(m, goal, tc.t, tc.r, 0, Options{D: tc.d})
		if err == nil {
			t.Errorf("%s: ReachProb accepted", tc.name)
		} else if tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("%s: ReachProb err %v, want %v", tc.name, err, tc.want)
		}
		if _, err := ReachProbAll(m, goal, tc.t, tc.r, Options{D: tc.d}); err == nil {
			t.Errorf("%s: ReachProbAll accepted", tc.name)
		}
	}
}

// TestGridCapCountsRunsInFlight pins that the memory cap charges one grid
// pair per run in flight: a grid ReachProb may hold once is refused when
// ReachProbAll would hold it in two fan-out workers at a time. prepare
// allocates no grid, so accepting here costs nothing.
func TestGridCapCountsRunsInFlight(t *testing.T) {
	m := singleJump(t, 3)
	goal := m.Label("goal")
	// 2·(r/d+1) = 5e7 cells per grid: 1e8 for one pair, 2e8 for two,
	// either side of maxGridCells ≈ 1.34e8.
	const tb, rb, d = 1, 3.125e6, 0.125
	if _, err := prepare(m, goal, tb, rb, Options{D: d}, 1, 1); err != nil {
		t.Fatalf("one run in flight: %v", err)
	}
	if _, err := prepare(m, goal, tb, rb, Options{D: d}, 2, 2); !errors.Is(err, ErrGrid) {
		t.Errorf("two runs in flight: err %v, want ErrGrid", err)
	}
	if _, err := ReachProbAll(m, goal, tb, rb, Options{D: d, Workers: 2}); !errors.Is(err, ErrGrid) {
		t.Errorf("ReachProbAll with two workers: err %v, want ErrGrid", err)
	}
}
