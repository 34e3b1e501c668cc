package transient

import (
	"errors"
	"math"
	"strings"
	"testing"

	"github.com/performability/csrl/internal/mrm"
	"github.com/performability/csrl/internal/numeric"
)

// twoState builds 0 --λ--> 1 --μ--> 0.
func twoState(t *testing.T, lambda, mu float64) *mrm.MRM {
	t.Helper()
	b := mrm.NewBuilder(2)
	b.Rate(0, 1, lambda).Rate(1, 0, mu)
	b.Label(1, "one")
	b.InitialState(0)
	m, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return m
}

// Analytic transient solution of the two-state chain starting in 0:
// π_1(t) = λ/(λ+μ)·(1 − e^{−(λ+μ)t}).
func analyticPi1(lambda, mu, t float64) float64 {
	s := lambda + mu
	return lambda / s * (1 - math.Exp(-s*t))
}

func TestDistributionTwoState(t *testing.T) {
	for _, tc := range []struct{ lambda, mu, t float64 }{
		{1, 2, 0.5},
		{1, 2, 3},
		{10, 0.1, 1},
		{100, 100, 0.01},
	} {
		m := twoState(t, tc.lambda, tc.mu)
		pi, err := Distribution(m, tc.t, DefaultOptions())
		if err != nil {
			t.Fatalf("Distribution: %v", err)
		}
		want := analyticPi1(tc.lambda, tc.mu, tc.t)
		if math.Abs(pi[1]-want) > 1e-10 {
			t.Errorf("λ=%v μ=%v t=%v: π₁ = %v, want %v", tc.lambda, tc.mu, tc.t, pi[1], want)
		}
		if math.Abs(pi[0]+pi[1]-1) > 1e-10 {
			t.Errorf("distribution does not sum to 1: %v", pi)
		}
	}
}

func TestDistributionZeroTime(t *testing.T) {
	m := twoState(t, 1, 1)
	pi, err := Distribution(m, 0, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if pi[0] != 1 || pi[1] != 0 {
		t.Errorf("π(0) = %v, want point mass on 0", pi)
	}
}

func TestDistributionRejectsBadInput(t *testing.T) {
	m := twoState(t, 1, 1)
	if _, err := Distribution(m, -1, DefaultOptions()); err == nil {
		t.Error("negative time accepted")
	}
	if _, err := DistributionFrom(m, []float64{1}, 1, DefaultOptions()); err == nil {
		t.Error("wrong-length initial vector accepted")
	}
}

// TestBackwardWeightedRejectsBadTime covers the time checks of the shared
// sweep body on the backward entry point: a negative bound is refused by
// name, and an infinite one is an accuracy error instead of a panic in the
// Fox–Glynn window allocation.
func TestBackwardWeightedRejectsBadTime(t *testing.T) {
	m := twoState(t, 1, 1)
	v := []float64{0, 1}
	if _, err := BackwardWeighted(m, v, -1, DefaultOptions()); err == nil || !strings.Contains(err.Error(), "negative time bound") {
		t.Errorf("t=-1: err = %v, want the negative time bound error", err)
	}
	if _, err := BackwardWeighted(m, v, math.Inf(1), DefaultOptions()); !errors.Is(err, numeric.ErrAccuracy) {
		t.Errorf("t=+Inf: err = %v, want numeric.ErrAccuracy", err)
	}
}

func TestReachProbAllMatchesForward(t *testing.T) {
	// Backward sweep from each state must equal the forward transient
	// probability of the goal set.
	m := twoState(t, 1.5, 0.5)
	goal := m.Label("one")
	tHorizon := 0.8
	back, err := ReachProbAll(m, goal, tHorizon, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < m.N(); s++ {
		init := make([]float64, m.N())
		init[s] = 1
		pi, err := DistributionFrom(m, init, tHorizon, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(back[s]-pi[1]) > 1e-10 {
			t.Errorf("state %d: backward %v vs forward %v", s, back[s], pi[1])
		}
	}
}

func TestTimeBoundedUntilAbsorbing(t *testing.T) {
	// 3-state chain 0→1→2 with rates 2 and 3; a U{<=t} c has the
	// hypoexponential CDF.
	b := mrm.NewBuilder(3)
	b.Rate(0, 1, 2).Rate(1, 2, 3)
	b.Label(0, "a").Label(1, "a").Label(2, "c")
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	phi := m.Label("a")
	psi := m.Label("c")
	for _, horizon := range []float64{0.1, 1, 5} {
		vals, err := TimeBoundedUntil(m, phi, psi, horizon, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		want := 1 - 3*math.Exp(-2*horizon) + 2*math.Exp(-3*horizon)
		if math.Abs(vals[0]-want) > 1e-10 {
			t.Errorf("t=%v: got %v, want %v", horizon, vals[0], want)
		}
		if math.Abs(vals[2]-1) > 1e-12 {
			t.Errorf("Ψ-state value %v, want 1", vals[2])
		}
	}
}

func TestTimeBoundedUntilBlockedPath(t *testing.T) {
	// 0→1→2 where 1 ∉ Φ: the until can only be satisfied if 0 ∈ Ψ, so the
	// probability from 0 is 0.
	b := mrm.NewBuilder(3)
	b.Rate(0, 1, 2).Rate(1, 2, 3)
	b.Label(0, "a").Label(2, "c")
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	vals, err := TimeBoundedUntil(m, m.Label("a"), m.Label("c"), 10, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != 0 {
		t.Errorf("blocked path: got %v, want 0", vals[0])
	}
}

func TestBackwardWeightedZeroTime(t *testing.T) {
	m := twoState(t, 1, 1)
	v := []float64{0.25, 0.75}
	got, err := BackwardWeighted(m, v, 0, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0.25 || got[1] != 0.75 {
		t.Errorf("t=0 should be identity: %v", got)
	}
}

func TestAllAbsorbingModel(t *testing.T) {
	// A model with no transitions at all: distribution stays put.
	b := mrm.NewBuilder(2)
	b.Label(0, "x")
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pi, err := Distribution(m, 5, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pi[0]-1) > 1e-12 || pi[1] != 0 {
		t.Errorf("π = %v, want point mass on 0", pi)
	}
}
