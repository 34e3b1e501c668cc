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

// TestScalingInvariance: P{Y ≤ r} is invariant under joint scaling of the
// rewards and the bound — impulse rewards included, which ScaleRewards
// used to drop.
func TestScalingInvariance(t *testing.T) {
	for _, impulses := range []bool{false, true} {
		b := mrm.NewBuilder(3)
		b.Rate(0, 1, 2).Rate(1, 2, 1).Rate(1, 0, 2)
		b.Reward(0, 1).Reward(1, 2)
		if impulses {
			b.Impulse(0, 1, 0.5).Impulse(1, 2, 1)
		}
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
		if got, want := scaled.Impulse(0, 1), 4*m.Impulse(0, 1); got != want {
			t.Errorf("impulses=%v: scaled ι(0,1) = %v, want %v", impulses, got, want)
		}
		v2, err := ReachProb(scaled, goal, 2, rb, 0, Options{D: 1.0 / 64})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(v1-v2) > 1e-12 {
			t.Errorf("impulses=%v: scaling changed the value: %v vs %v", impulses, v1, v2)
		}
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

// TestHugeRewardsLeaveTheGrid: a state or impulse reward beyond the reward
// bound moves mass past the grid in one step, whatever its size. A reward
// of 1e300 used to convert to a negative index shift and panic; it must
// give bit for bit what the smallest such reward, R+1, gives.
func TestHugeRewardsLeaveTheGrid(t *testing.T) {
	build := func(rho, imp float64) *mrm.MRM {
		b := mrm.NewBuilder(3)
		b.Rate(0, 1, 1).Rate(1, 0, 1).Rate(0, 2, 1)
		b.Reward(0, 1).Reward(1, rho)
		b.Impulse(0, 2, imp)
		b.Label(1, "goal").Label(2, "goal")
		m, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	const tb, rb, d = 1, 1, 1.0 / 8 // R = 8
	small, huge := build(9, 9*d), build(1e300, 1e300)
	want, err := ReachProbAll(small, small.Label("goal"), tb, rb, Options{D: d})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReachProbAll(huge, huge.Label("goal"), tb, rb, Options{D: d})
	if err != nil {
		t.Fatal(err)
	}
	for s := range want {
		if math.Float64bits(got[s]) != math.Float64bits(want[s]) {
			t.Errorf("source %d: huge rewards %v, R+1 %v", s, got[s], want[s])
		}
	}
	if !(want[0] > 0) {
		t.Errorf("source 0: %v, want the mass that reaches state 1 in the last step", want[0])
	}
}

// TestGridCapCountsRunsInFlight pins that the memory cap charges one grid
// pair per run in flight: a grid ReachProb may hold once is refused when
// ReachProbAll would hold it in two fan-out workers at a time. Both states
// of the model are live sources (an absorbing source is answered in closed
// form and holds no grid), so two workers do run two at a time. prepare
// allocates no grid, so accepting here costs nothing.
func TestGridCapCountsRunsInFlight(t *testing.T) {
	b := mrm.NewBuilder(2)
	b.Rate(0, 1, 3).Rate(1, 0, 3)
	b.Reward(0, 1)
	b.Label(1, "goal")
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
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

// TestAbsorbingSourceClosedForm pins the closed form an absorbing source
// gets instead of a run: its point mass 1/d stays put (stay factor exactly
// 1) and moves up ρ per step, so the value is exactly (1/d)·d for a goal
// source with T·ρ ≤ R, and 0 otherwise — what the recursion itself gives.
func TestAbsorbingSourceClosedForm(t *testing.T) {
	b := mrm.NewBuilder(5)
	b.Rate(0, 1, 0.5).Rate(0, 2, 0.5).Rate(0, 3, 0.5).Rate(0, 4, 0.5)
	b.Reward(0, 1).Reward(2, 2).Reward(3, 3)
	b.Label(1, "goal").Label(2, "goal").Label(3, "goal")
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	goal := m.Label("goal")
	const tb, rb, d = 1.0, 2.0, 1.0 / 3 // T = 3, R = 6
	one := 1 / d
	one *= d
	want := map[int]float64{
		1: one, // goal, ρ = 0
		2: one, // goal, T·ρ = 6 = R
		3: 0,   // goal, T·ρ = 9 > R
		4: 0,   // not goal
	}
	all, err := ReachProbAll(m, goal, tb, rb, Options{D: d})
	if err != nil {
		t.Fatal(err)
	}
	p, err := prepare(m, goal, tb, rb, Options{D: d}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for s, w := range want {
		v, err := ReachProb(m, goal, tb, rb, s, Options{D: d})
		if err != nil {
			t.Fatal(err)
		}
		run := p.reachProb(s, p.newScratch(nil))
		for _, got := range []float64{v, all[s], run} {
			if math.Float64bits(got) != math.Float64bits(w) {
				t.Errorf("source %d: ReachProb %v, ReachProbAll %v, recursion %v, want %v", s, v, all[s], run, w)
				break
			}
		}
	}
}

// TestScratchReuseBitwise runs every source through one reused scratch and
// through a fresh scratch each: the bands a run leaves behind must be
// cleared so that reuse changes no bit.
func TestScratchReuseBitwise(t *testing.T) {
	b := mrm.NewBuilder(4)
	b.Rate(0, 1, 3).Rate(1, 0, 1.5).Rate(1, 2, 2).Rate(0, 3, 0.5).Rate(2, 0, 1)
	b.Reward(0, 1).Reward(2, 2)
	b.Impulse(0, 1, 0.25).Impulse(1, 2, 0.5)
	b.Label(2, "goal").Label(3, "goal")
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := prepare(m, m.Label("goal"), 2, 1.5, Options{D: 1.0 / 64, Workers: 1}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	pool := sparse.NewVecPool()
	reused := p.newScratch(pool)
	defer reused.release(pool)
	// Sources in an order whose bands differ from one run to the next.
	for _, s := range []int{2, 0, 1, 2, 1, 0} {
		fresh := p.newScratch(nil)
		want := p.reachProb(s, fresh)
		if got := p.reachProb(s, reused); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("source %d: reused scratch %v, fresh %v", s, got, want)
		}
	}
}
