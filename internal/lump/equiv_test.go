package lump_test

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"github.com/performability/csrl/internal/cluster"
	"github.com/performability/csrl/internal/lump"
	"github.com/performability/csrl/internal/mrm"
)

// sameQuotient fails t unless got is exactly the oracle's result: the same
// block map, the same block lists and a quotient with the same
// fingerprint.
func sameQuotient(t *testing.T, got, want *lump.Result) {
	t.Helper()
	if !slices.Equal(got.BlockOf, want.BlockOf) {
		t.Fatalf("BlockOf differs from the oracle's")
	}
	if !slices.EqualFunc(got.Blocks, want.Blocks, slices.Equal[[]int]) {
		t.Fatalf("Blocks differ from the oracle's")
	}
	if g, w := got.Model.Fingerprint(), want.Model.Fingerprint(); g != w {
		t.Fatalf("quotient fingerprint %s, oracle %s", g, w)
	}
}

// checkAgainstOracle compares QuotientLimited with the oracle at one cap
// and returns the oracle's result (nil when it declined) and round count.
func checkAgainstOracle(t *testing.T, m *mrm.MRM, atoms []string, maxRounds int) (*lump.Result, int) {
	t.Helper()
	want, rounds, wantErr := lump.OracleQuotient(m, atoms, maxRounds)
	got, gotErr := lump.QuotientLimited(m, atoms, maxRounds)
	if !errors.Is(gotErr, wantErr) {
		t.Fatalf("cap %d: error %v, oracle %v", maxRounds, gotErr, wantErr)
	}
	if wantErr == nil {
		sameQuotient(t, got, want)
	}
	return want, rounds
}

// clusterAtomSets are the respected proposition sets of the cluster
// fixtures: one per kind of label, a pair, and none at all.
var clusterAtomSets = [][]string{{"down"}, {"qos", "pristine"}, {"degraded"}, nil}

// TestQuotientMatchesOracleOnCluster pins the dirty-block refinement to
// the round-by-round oracle on the cluster family and the small fixtures.
func TestQuotientMatchesOracleOnCluster(t *testing.T) {
	for _, n := range []int{1, 3, 10, 60} {
		p, err := cluster.Default(n)
		if err != nil {
			t.Fatal(err)
		}
		m, err := p.Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, atoms := range clusterAtomSets {
			t.Run(fmt.Sprintf("cluster:%d/%v", n, atoms), func(t *testing.T) {
				checkAgainstOracle(t, m, atoms, 0)
			})
		}
	}
	for name, m := range map[string]*mrm.MRM{
		"symmetric":  symmetricModel(t),
		"asymmetric": asymmetricModel(t),
		"cluster4":   clusterModel(t, 4),
	} {
		t.Run(name, func(t *testing.T) {
			checkAgainstOracle(t, m, m.Labels(), 0)
			checkAgainstOracle(t, m, nil, 0)
		})
	}
}

// randomMRM draws a small model whose few distinct rates, rewards and
// labels make many states bisimilar, so refinement both splits blocks and
// leaves large ones merged.
func randomMRM(t *testing.T, rng *rand.Rand) *mrm.MRM {
	t.Helper()
	n := 2 + rng.IntN(39)
	b := mrm.NewBuilder(n)
	rates := []float64{0.5, 1, 2}
	for s := 0; s < n; s++ {
		for e := rng.IntN(4); e > 0; e-- {
			if to := rng.IntN(n); to != s {
				b.Rate(s, to, rates[rng.IntN(len(rates))])
			}
		}
		b.Reward(s, float64(rng.IntN(3)))
		if rng.IntN(3) == 0 {
			b.Label(s, "a")
		}
		if rng.IntN(4) == 0 {
			b.Label(s, "b")
		}
	}
	if rng.IntN(2) == 0 {
		b.InitialProb(0, 0.5).InitialProb(n-1, 0.5)
	}
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestQuotientMatchesOracleOnRandomModels runs the oracle comparison over
// a seeded family of random models and respected-label sets, and checks
// the family really exercises merging and multi-round splitting.
func TestQuotientMatchesOracleOnRandomModels(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 2003))
	merged, deep := 0, 0
	for i := 0; i < 300; i++ {
		m := randomMRM(t, rng)
		for _, atoms := range [][]string{{"a", "b"}, {"a"}, nil} {
			res, rounds := checkAgainstOracle(t, m, atoms, 0)
			if res.Model.N() < m.N() {
				merged++
			}
			if rounds > 2 {
				deep++
			}
		}
	}
	if merged < 100 || deep < 100 {
		t.Errorf("weak fixture family: %d quotients merged states, %d needed more than two rounds", merged, deep)
	}
}

// TestRoundCapMatchesOracle pins ErrRoundsExceeded to the oracle's caps:
// every cap from 1 to one past the oracle's fixpoint round must decline
// or succeed exactly as the oracle does, with the same quotient.
func TestRoundCapMatchesOracle(t *testing.T) {
	p, err := cluster.Default(10)
	if err != nil {
		t.Fatal(err)
	}
	c10, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(7, 64))
	var deepRandom *mrm.MRM
	for deepRandom == nil {
		m := randomMRM(t, rng)
		if _, rounds, err := lump.OracleQuotient(m, nil, 0); err == nil && rounds >= 4 {
			deepRandom = m
		}
	}
	for _, tc := range []struct {
		name  string
		m     *mrm.MRM
		atoms []string
	}{
		{"cluster:10/down", c10, []string{"down"}},
		{"cluster:10/qos,pristine", c10, []string{"qos", "pristine"}},
		{"cluster4", clusterModel(t, 4), nil},
		{"random", deepRandom, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, rounds, err := lump.OracleQuotient(tc.m, tc.atoms, 0)
			if err != nil {
				t.Fatal(err)
			}
			if rounds < 3 {
				t.Fatalf("fixture refines in %d rounds; the cap sweep needs at least 3", rounds)
			}
			for limit := 1; limit <= rounds+1; limit++ {
				checkAgainstOracle(t, tc.m, tc.atoms, limit)
			}
			if _, err := lump.QuotientLimited(tc.m, tc.atoms, rounds-1); !errors.Is(err, lump.ErrRoundsExceeded) {
				t.Errorf("cap %d (one short of the fixpoint round): err = %v, want ErrRoundsExceeded", rounds-1, err)
			}
		})
	}
}
