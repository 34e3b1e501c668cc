package mrm

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"github.com/performability/csrl/internal/sparse"
)

func buildTiny(t *testing.T) *MRM {
	t.Helper()
	b := NewBuilder(3)
	b.Rate(0, 1, 2).Rate(0, 2, 1).Rate(1, 2, 3)
	b.Reward(0, 5).Reward(1, 1)
	b.Label(0, "start").Label(1, "mid").Label(2, "end").Label(0, "odd").Label(2, "odd")
	b.Name(0, "s").Name(1, "m").Name(2, "e")
	b.InitialState(0)
	m, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return m
}

func TestBuilderBasics(t *testing.T) {
	m := buildTiny(t)
	if m.N() != 3 {
		t.Fatalf("N = %d", m.N())
	}
	if got := m.ExitRate(0); got != 3 {
		t.Errorf("E(0) = %v, want 3", got)
	}
	if !m.IsAbsorbing(2) {
		t.Error("state 2 should be absorbing")
	}
	if m.Reward(0) != 5 || m.Reward(2) != 0 {
		t.Errorf("rewards wrong: %v", m.Rewards())
	}
	if m.MaxReward() != 5 {
		t.Errorf("MaxReward = %v", m.MaxReward())
	}
	if got := m.DistinctRewards(); !reflect.DeepEqual(got, []float64{0, 1, 5}) {
		t.Errorf("DistinctRewards = %v", got)
	}
	if m.InitialState() != 0 {
		t.Errorf("InitialState = %d", m.InitialState())
	}
	if m.Name(1) != "m" {
		t.Errorf("Name(1) = %q", m.Name(1))
	}
	if m.StateIndex("e") != 2 || m.StateIndex("zz") != -1 {
		t.Error("StateIndex lookup broken")
	}
	if got := m.Labels(); !reflect.DeepEqual(got, []string{"end", "mid", "odd", "start"}) {
		t.Errorf("Labels = %v", got)
	}
	if !m.HasLabel(0, "odd") || m.HasLabel(1, "odd") {
		t.Error("HasLabel wrong")
	}
}

func TestBuilderValidation(t *testing.T) {
	cases := []struct {
		name string
		prep func(*Builder)
	}{
		{"negative rate", func(b *Builder) { b.Rate(0, 1, -1) }},
		{"self loop", func(b *Builder) { b.Rate(0, 0, 1) }},
		{"state out of range", func(b *Builder) { b.Rate(0, 9, 1) }},
		{"negative reward", func(b *Builder) { b.Reward(0, -2) }},
		{"NaN reward", func(b *Builder) { b.Reward(0, math.NaN()) }},
		{"empty label", func(b *Builder) { b.Label(0, "") }},
		{"bad initial prob", func(b *Builder) { b.InitialProb(0, 1.5) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder(2)
			b.Rate(0, 1, 1)
			tc.prep(b)
			if _, err := b.Build(); err == nil {
				t.Errorf("%s not rejected", tc.name)
			}
		})
	}
	t.Run("initial distribution must sum to 1", func(t *testing.T) {
		b := NewBuilder(2)
		b.Rate(0, 1, 1)
		b.InitialProb(0, 0.3)
		if _, err := b.Build(); err == nil {
			t.Error("partial distribution accepted")
		}
	})
	t.Run("zero states", func(t *testing.T) {
		if _, err := NewBuilder(0).Build(); err == nil {
			t.Error("empty model accepted")
		}
	})
}

func TestDefaultInitialDistribution(t *testing.T) {
	b := NewBuilder(2)
	b.Rate(0, 1, 1)
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if m.InitialState() != 0 {
		t.Errorf("default initial state = %d, want 0", m.InitialState())
	}
}

func TestUniformised(t *testing.T) {
	m := buildTiny(t)
	lambda := m.UniformisationRate()
	if lambda < 3 {
		t.Fatalf("uniformisation rate %v below max exit rate 3", lambda)
	}
	p, err := m.Uniformised(lambda)
	if err != nil {
		t.Fatalf("Uniformised: %v", err)
	}
	// Rows must be stochastic.
	for i := 0; i < 3; i++ {
		if got := p.RowSum(i); math.Abs(got-1) > 1e-12 {
			t.Errorf("row %d sums to %v", i, got)
		}
	}
	if _, err := m.Uniformised(1); err == nil {
		t.Error("rate below max exit accepted")
	}
	if _, err := m.Uniformised(0); err == nil {
		t.Error("zero rate accepted")
	}
}

func TestMakeAbsorbing(t *testing.T) {
	m := buildTiny(t)
	abs, err := m.MakeAbsorbing(NewStateSetOf(3, 0), true)
	if err != nil {
		t.Fatal(err)
	}
	if !abs.IsAbsorbing(0) {
		t.Error("state 0 not absorbing")
	}
	if abs.Reward(0) != 0 {
		t.Error("reward not zeroed")
	}
	if abs.IsAbsorbing(1) {
		t.Error("state 1 wrongly absorbing")
	}
	// Original untouched.
	if m.IsAbsorbing(0) || m.Reward(0) != 5 {
		t.Error("MakeAbsorbing mutated the original model")
	}
	// Universe mismatch.
	if _, err := m.MakeAbsorbing(NewStateSet(5), false); err == nil {
		t.Error("universe mismatch accepted")
	}
}

func TestReduceForUntil(t *testing.T) {
	m := buildTiny(t)
	phi := NewStateSetOf(3, 0, 1)
	psi := NewStateSetOf(3, 2)
	red, err := ReduceForUntil(m, phi, psi)
	if err != nil {
		t.Fatal(err)
	}
	// 2 transient + goal; no fail states (all states in Φ∨Ψ).
	if red.Model.N() != 3 {
		t.Fatalf("reduced N = %d, want 3", red.Model.N())
	}
	if red.Fail != -1 {
		t.Errorf("Fail = %d, want -1", red.Fail)
	}
	if !red.Model.IsAbsorbing(red.Goal) || red.Model.Reward(red.Goal) != 0 {
		t.Error("goal must be absorbing with zero reward")
	}
	if red.StateMap[2] != red.Goal {
		t.Error("Ψ-state not mapped to goal")
	}
	// Rates into goal merge the two original transitions of state 0? No:
	// state 0 had rates to 1 (transient) and 2 (goal).
	if got := red.Model.Rates().At(red.StateMap[0], red.Goal); got != 1 {
		t.Errorf("rate(0→goal) = %v, want 1", got)
	}
	if got := red.Model.Rates().At(red.StateMap[0], red.StateMap[1]); got != 2 {
		t.Errorf("rate(0→1) = %v, want 2", got)
	}
}

func TestReduceForUntilWithFail(t *testing.T) {
	m := buildTiny(t)
	phi := NewStateSetOf(3, 0)
	psi := NewStateSetOf(3, 2)
	red, err := ReduceForUntil(m, phi, psi)
	if err != nil {
		t.Fatal(err)
	}
	// transient {0}, goal {2}, fail {1}.
	if red.Model.N() != 3 || red.Fail < 0 {
		t.Fatalf("unexpected shape: N=%d fail=%d", red.Model.N(), red.Fail)
	}
	if red.StateMap[1] != red.Fail {
		t.Error("state 1 should map to fail")
	}
	if got := red.Model.Rates().At(red.StateMap[0], red.Fail); got != 2 {
		t.Errorf("rate(0→fail) = %v, want 2", got)
	}
}

func TestLabelReturnsCopy(t *testing.T) {
	m := buildTiny(t)
	l := m.Label("start")
	l.Add(2)
	if m.Label("start").Contains(2) {
		t.Error("Label leaked internal state")
	}
}

// TestBuildWithRates checks that a rate matrix given whole assembles the
// same model as the equivalent Rate calls, and that BuildWithRates refuses
// what Rate refuses.
func TestBuildWithRates(t *testing.T) {
	m := buildTiny(t)
	rowBuilt := func(rates *sparse.CSR) (*MRM, error) {
		b := NewBuilder(3)
		b.Reward(0, 5).Reward(1, 1)
		b.Label(0, "start").Label(1, "mid").Label(2, "end").Label(0, "odd").Label(2, "odd")
		b.Name(0, "s").Name(1, "m").Name(2, "e")
		b.InitialState(0)
		return b.BuildWithRates(rates)
	}
	got, err := rowBuilt(m.Rates())
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != m.Fingerprint() {
		t.Error("BuildWithRates model differs from Build's")
	}
	for name, rows := range map[string][][2]float64{
		"self-loop": {{0, 1}},
		"zero rate": {{1, 0}},
		"negative":  {{1, -1}},
		"infinite":  {{1, math.Inf(1)}},
	} {
		rb := sparse.NewRowBuilder(3, 1)
		for _, e := range rows {
			rb.Add(int(e[0]), e[1])
		}
		rb.EndRow()
		rb.EndRow()
		rb.EndRow()
		rates, err := rb.Build()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rowBuilt(rates); !errors.Is(err, ErrModel) {
			t.Errorf("%s: err = %v, want ErrModel", name, err)
		}
	}
	if _, err := NewBuilder(3).Rate(0, 1, 1).BuildWithRates(m.Rates()); !errors.Is(err, ErrModel) {
		t.Errorf("rates given twice: err = %v, want ErrModel", err)
	}
	if _, err := NewBuilder(2).BuildWithRates(m.Rates()); !errors.Is(err, ErrModel) {
		t.Errorf("3×3 rates for 2 states: err = %v, want ErrModel", err)
	}
}

// TestReduceForUntilKeepsUnnamedStatesUnnamed checks that the reduction
// copies a transient state's name only when it has one.
func TestReduceForUntilKeepsUnnamedStatesUnnamed(t *testing.T) {
	b := NewBuilder(3)
	b.Rate(0, 1, 2).Rate(1, 2, 3).Name(1, "m")
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	red, err := ReduceForUntil(m, NewStateSetOf(3, 0, 1), NewStateSetOf(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if red.Model.HasName(red.StateMap[0]) {
		t.Errorf("unnamed state 0 reduced to named %q", red.Model.Name(red.StateMap[0]))
	}
	if got := red.Model.Name(red.StateMap[1]); got != "m" {
		t.Errorf("state 1 reduced to name %q, want m", got)
	}
}
