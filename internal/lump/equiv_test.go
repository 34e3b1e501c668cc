package lump_test

import (
	"errors"
	"fmt"
	"math"
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

// checkViewAgainstCopy pins QuotientAbsorbing to QuotientLimited on the
// MakeAbsorbing copy with zero rewards in the set, respecting the target's
// label: the same block map, the same block lists and quotients with the
// same rate arrays (value bits included), rewards and initial masses.
func checkViewAgainstCopy(t *testing.T, m *mrm.MRM, absorb *mrm.StateSet, target string) {
	t.Helper()
	got, err := lump.QuotientAbsorbing(m, absorb, m.Label(target), 0)
	if err != nil {
		t.Fatal(err)
	}
	abs, err := m.MakeAbsorbing(absorb, true)
	if err != nil {
		t.Fatal(err)
	}
	want, err := lump.QuotientLimited(abs, []string{target}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.BlockOf, want.BlockOf) {
		t.Fatalf("BlockOf differs from the copy's")
	}
	if !slices.EqualFunc(got.Blocks, want.Blocks, slices.Equal[[]int]) {
		t.Fatalf("Blocks differ from the copy's")
	}
	g, w := got.Model, want.Model
	for b := 0; b < g.N(); b++ {
		gc, gv := g.Rates().RowRange(b)
		wc, wv := w.Rates().RowRange(b)
		if !slices.Equal(gc, wc) || !slices.EqualFunc(gv, wv, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
			t.Fatalf("block %d: row %v %v, copy's %v %v", b, gc, gv, wc, wv)
		}
		if math.Float64bits(g.Reward(b)) != math.Float64bits(w.Reward(b)) {
			t.Fatalf("block %d: reward %v, copy's %v", b, g.Reward(b), w.Reward(b))
		}
	}
	if !slices.Equal(g.InitView(), w.InitView()) {
		t.Fatalf("initial masses differ from the copy's")
	}
}

// TestAbsorbingViewMatchesCopy checks the absorbing view block for block
// against lumping a MakeAbsorbing copy, on the Theorem-1 views of untils
// over the cluster family and the random models.
func TestAbsorbingViewMatchesCopy(t *testing.T) {
	for _, n := range []int{1, 3, 10, 20} {
		p, err := cluster.Default(n)
		if err != nil {
			t.Fatal(err)
		}
		m, err := p.Build()
		if err != nil {
			t.Fatal(err)
		}
		down, qos := m.Label("down"), m.Label("qos")
		t.Run(fmt.Sprintf("cluster:%d/!down U down", n), func(t *testing.T) {
			checkViewAgainstCopy(t, m, down, "down")
		})
		t.Run(fmt.Sprintf("cluster:%d/qos U down", n), func(t *testing.T) {
			checkViewAgainstCopy(t, m, qos.Complement().Union(down), "down")
		})
	}
	rng := rand.New(rand.NewPCG(3, 2007))
	merged := 0
	for i := 0; i < 300; i++ {
		m := randomMRM(t, rng)
		a, b := m.Label("a"), m.Label("b")
		// The views of a U b and true U b.
		for _, absorb := range []*mrm.StateSet{a.Complement().Union(b), b} {
			checkViewAgainstCopy(t, m, absorb, "b")
			if res, err := lump.QuotientAbsorbing(m, absorb, b, 0); err == nil && res.Model.N() < m.N() {
				merged++
			}
		}
	}
	if merged < 300 {
		t.Errorf("weak fixture family: only %d of 600 views merged states", merged)
	}
}
