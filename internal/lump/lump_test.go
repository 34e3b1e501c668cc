package lump_test

import (
	"errors"
	"math"
	"testing"

	"github.com/performability/csrl/internal/core"
	"github.com/performability/csrl/internal/logic"
	"github.com/performability/csrl/internal/lump"
	"github.com/performability/csrl/internal/mrm"
	"github.com/performability/csrl/internal/srn"
	"github.com/performability/csrl/internal/transient"
)

// symmetricModel has two interchangeable middle states: 0 → {1, 2} → 3,
// where 1 and 2 carry identical labels, rewards and rates.
func symmetricModel(t *testing.T) *mrm.MRM {
	t.Helper()
	b := mrm.NewBuilder(4)
	b.Rate(0, 1, 1).Rate(0, 2, 1)
	b.Rate(1, 3, 2).Rate(2, 3, 2)
	b.Reward(0, 1).Reward(1, 5).Reward(2, 5)
	b.Label(0, "start").Label(1, "mid").Label(2, "mid").Label(3, "end")
	m, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return m
}

func TestQuotientMergesSymmetricStates(t *testing.T) {
	m := symmetricModel(t)
	res, err := lump.Quotient(m)
	if err != nil {
		t.Fatalf("Quotient: %v", err)
	}
	if res.Model.N() != 3 {
		t.Fatalf("quotient has %d states, want 3", res.Model.N())
	}
	if res.BlockOf[1] != res.BlockOf[2] {
		t.Error("symmetric states not merged")
	}
	if res.BlockOf[0] == res.BlockOf[1] {
		t.Error("distinct states merged")
	}
	// Aggregate rate from the start block into the merged block is 2.
	q := res.Model
	if got := q.Rates().At(res.BlockOf[0], res.BlockOf[1]); got != 2 {
		t.Errorf("aggregate rate = %v, want 2", got)
	}
	// Labels and rewards survive.
	if !q.HasLabel(res.BlockOf[1], "mid") || q.Reward(res.BlockOf[1]) != 5 {
		t.Error("block signature lost")
	}
}

// asymmetricModel is symmetricModel's shape with the same labels on the
// middle states but different rates out of them.
func asymmetricModel(t *testing.T) *mrm.MRM {
	t.Helper()
	b := mrm.NewBuilder(4)
	b.Rate(0, 1, 1).Rate(0, 2, 1)
	b.Rate(1, 3, 2).Rate(2, 3, 7) // asymmetric
	b.Label(1, "mid").Label(2, "mid")
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestQuotientRefinesOnRates(t *testing.T) {
	// Same labels/rewards, but different aggregate rates: must NOT merge.
	m := asymmetricModel(t)
	res, err := lump.Quotient(m)
	if err != nil {
		t.Fatal(err)
	}
	if res.BlockOf[1] == res.BlockOf[2] {
		t.Error("states with different rate signatures merged")
	}
}

// TestQuotientNamesOnlyNamedBlocks checks that a block carries its
// representative's name when that state has one, and no name otherwise.
func TestQuotientNamesOnlyNamedBlocks(t *testing.T) {
	b := mrm.NewBuilder(4)
	b.Rate(0, 1, 1).Rate(0, 2, 1).Rate(1, 3, 2).Rate(2, 3, 2)
	b.Name(0, "start")
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := lump.QuotientRespecting(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	for blk, members := range res.Blocks {
		if got, want := res.Model.HasName(blk), m.HasName(members[0]); got != want {
			t.Errorf("block %d (states %v): named %v, representative named %v", blk, members, got, want)
		}
	}
	if got := res.Model.Name(res.BlockOf[0]); got != "start" {
		t.Errorf("block of state 0 named %q, want start", got)
	}
}

func TestQuotientPreservesTransientProbabilities(t *testing.T) {
	m := symmetricModel(t)
	res, err := lump.Quotient(m)
	if err != nil {
		t.Fatal(err)
	}
	goal := m.Label("end")
	want, err := transient.ReachProbAll(m, goal, 0.8, transient.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	qGoal := res.Model.Label("end")
	got, err := transient.ReachProbAll(res.Model, qGoal, 0.8, transient.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	lifted := res.Lift(got)
	for s := range want {
		if math.Abs(lifted[s]-want[s]) > 1e-12 {
			t.Errorf("state %d: lumped %v vs original %v", s, lifted[s], want[s])
		}
	}
}

// TestQuotientPreservesCSRLOnCluster lumps the left/right-symmetric
// workstation cluster and checks that a doubly-bounded until evaluates to
// the same probabilities on the quotient.
func TestQuotientPreservesCSRLOnCluster(t *testing.T) {
	m := clusterModel(t, 4)
	// Formula-dependent lumping: respect only the atoms the formula uses;
	// the place-derived labels (lu, ld, …) would otherwise break the
	// left/right symmetry.
	res, err := lump.QuotientRespecting(m, []string{"qos", "pristine"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Model.N() >= m.N() {
		t.Fatalf("no reduction: %d -> %d", m.N(), res.Model.N())
	}
	t.Logf("cluster lumped %d -> %d states", m.N(), res.Model.N())

	formula := logic.MustParse("P=? [ qos U{t<=24, r<=20} pristine ]")
	opts := core.DefaultOptions()
	opts.Epsilon = 1e-9
	orig, err := core.New(m, opts).Values(formula)
	if err != nil {
		t.Fatal(err)
	}
	lumped, err := core.New(res.Model, opts).Values(formula)
	if err != nil {
		t.Fatal(err)
	}
	lifted := res.Lift(lumped)
	for s := range orig {
		if math.Abs(lifted[s]-orig[s]) > 1e-7 {
			t.Errorf("state %d (%s): lumped %v vs original %v", s, m.Name(s), lifted[s], orig[s])
		}
	}
}

// clusterModel builds a small left/right-symmetric cluster (no impulses so
// every procedure applies).
func clusterModel(t *testing.T, perSide int) *mrm.MRM {
	t.Helper()
	arc := func(p int) []srn.Arc { return []srn.Arc{{Place: p, Weight: 1}} }
	net := &srn.Net{
		Places: []string{"lu", "ld", "ru", "rd"},
		Transitions: []srn.Transition{
			{Name: "fl", In: arc(0), Out: arc(1), RateFn: func(m srn.Marking) float64 { return 0.1 * float64(m[0]) }},
			{Name: "fr", In: arc(2), Out: arc(3), RateFn: func(m srn.Marking) float64 { return 0.1 * float64(m[2]) }},
			{Name: "rl", In: arc(1), Out: arc(0), Rate: 2},
			{Name: "rr", In: arc(3), Out: arc(2), Rate: 2},
		},
	}
	init := srn.Marking{perSide, 0, perSide, 0}
	m, _, err := net.BuildMRM(init, srn.Options{
		Reward: func(mk srn.Marking) float64 { return float64(mk[1] + mk[3]) },
		Labels: func(mk srn.Marking) []string {
			var ls []string
			if mk[0]+mk[2] >= perSide {
				ls = append(ls, "qos")
			}
			if mk[1]+mk[3] == 0 {
				ls = append(ls, "pristine")
			}
			return ls
		},
	})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	return m
}

func TestQuotientRejectsImpulses(t *testing.T) {
	b := mrm.NewBuilder(2)
	b.Rate(0, 1, 1)
	b.Impulse(0, 1, 1)
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lump.Quotient(m); !errors.Is(err, mrm.ErrImpulsesUnsupported) {
		t.Errorf("err = %v", err)
	}
}

func TestQuotientKeepsInitialDistribution(t *testing.T) {
	m := symmetricModel(t)
	res, err := lump.Quotient(m)
	if err != nil {
		t.Fatal(err)
	}
	init := res.Model.Init()
	if init[res.BlockOf[0]] != 1 {
		t.Errorf("initial mass = %v", init)
	}
}
