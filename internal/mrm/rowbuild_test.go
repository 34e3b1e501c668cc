package mrm_test

import (
	"math"
	"testing"

	"github.com/performability/csrl/internal/adhoc"
	"github.com/performability/csrl/internal/cluster"
	"github.com/performability/csrl/internal/mrm"
	"github.com/performability/csrl/internal/sparse"
)

// The triplet routes below are the construction Uniformised and
// MakeAbsorbing used before they built their matrices row by row; they
// stay here as the oracle the row-wise arrays must reproduce exactly.

func uniformisedTriplets(m *mrm.MRM, lambda float64) (*sparse.CSR, error) {
	b := sparse.NewBuilder(m.N())
	for s := 0; s < m.N(); s++ {
		diag := 1 - m.ExitRate(s)/lambda
		if diag < 0 {
			diag = 0
		}
		b.Add(s, s, diag)
		m.Rates().Row(s, func(t int, v float64) {
			if v != 0 {
				b.Add(s, t, v/lambda)
			}
		})
	}
	return b.Build()
}

func withoutRowsTriplets(a *sparse.CSR, set *mrm.StateSet) (*sparse.CSR, error) {
	b := sparse.NewBuilder(a.Dim())
	a.Each(func(i, j int, v float64) {
		if v != 0 && !set.Contains(i) {
			b.Add(i, j, v)
		}
	})
	return b.Build()
}

// sameArrays fails unless a and b store the same rows, columns and value
// bits — the rowPtr/col/val arrays of a CSR, read through its row views.
func sameArrays(t *testing.T, what string, a, b *sparse.CSR) {
	t.Helper()
	if a.Dim() != b.Dim() || a.NNZ() != b.NNZ() {
		t.Fatalf("%s: %d×%d with %d entries, oracle %d×%d with %d", what, a.Dim(), a.Dim(), a.NNZ(), b.Dim(), b.Dim(), b.NNZ())
	}
	for i := 0; i < a.Dim(); i++ {
		ac, av := a.RowRange(i)
		bc, bv := b.RowRange(i)
		if len(ac) != len(bc) {
			t.Fatalf("%s: row %d holds %d entries, oracle %d", what, i, len(ac), len(bc))
		}
		for k := range ac {
			if ac[k] != bc[k] || math.Float64bits(av[k]) != math.Float64bits(bv[k]) {
				t.Fatalf("%s: row %d entry %d is (%d, %v), oracle (%d, %v)", what, i, k, ac[k], av[k], bc[k], bv[k])
			}
		}
	}
}

func TestRowWiseBuildMatchesTriplets(t *testing.T) {
	station, err := adhoc.Model()
	if err != nil {
		t.Fatal(err)
	}
	cp, err := cluster.Default(60)
	if err != nil {
		t.Fatal(err)
	}
	c60, err := cp.Build()
	if err != nil {
		t.Fatal(err)
	}
	// A small model with impulses; its self-loop variant stores R(1,1) and
	// an explicit zero R(0,2), which the Builder would reject or drop.
	tb := mrm.NewBuilder(3)
	tb.Rate(0, 1, 2).Rate(1, 0, 0.5).Rate(1, 2, 1).Rate(2, 0, 4).Impulse(2, 0, 3).Impulse(0, 1, 1)
	tiny, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	loops, err := sparse.NewFromTriplets(3, []sparse.Triplet{
		{Row: 0, Col: 1, Val: 2},
		{Row: 0, Col: 2, Val: 0},
		{Row: 1, Col: 0, Val: 0.5},
		{Row: 1, Col: 1, Val: 1.5},
		{Row: 1, Col: 2, Val: 1},
		{Row: 2, Col: 0, Val: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	selfLoop := mrm.WithRates(tiny, loops)

	cases := []struct {
		name   string
		m      *mrm.MRM
		lambda float64
		absorb *mrm.StateSet
	}{
		{"station", station, station.UniformisationRate(), station.Label(station.Labels()[0])},
		{"cluster60", c60, c60.UniformisationRate(), c60.Label("down")},
		{"self-loop", selfLoop, selfLoop.UniformisationRate(), mrm.NewStateSet(3)},
		// λ just under the largest exit rate, inside the check's 1e-12
		// tolerance: that state's diagonal clamps to an explicit 0.
		{"clamped", tiny, 4 / (1 + 1e-13), mrm.NewStateSetOf(3, 1)},
	}
	for _, tc := range cases {
		got, err := tc.m.Uniformised(tc.lambda)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, err := uniformisedTriplets(tc.m, tc.lambda)
		if err != nil {
			t.Fatal(err)
		}
		sameArrays(t, tc.name+" Uniformised", got, want)

		abs, err := tc.m.MakeAbsorbing(tc.absorb, false)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, err = withoutRowsTriplets(tc.m.Rates(), tc.absorb)
		if err != nil {
			t.Fatal(err)
		}
		sameArrays(t, tc.name+" MakeAbsorbing rates", abs.Rates(), want)
		if tc.m.Impulses() == nil {
			continue
		}
		want, err = withoutRowsTriplets(tc.m.Impulses(), tc.absorb)
		if err != nil {
			t.Fatal(err)
		}
		if abs.Impulses() == nil {
			t.Fatalf("%s: MakeAbsorbing dropped every impulse, oracle keeps %d", tc.name, want.NNZ())
		}
		sameArrays(t, tc.name+" MakeAbsorbing impulses", abs.Impulses(), want)
	}
	// Absorbing every impulse source leaves no impulse matrix at all.
	abs, err := tiny.MakeAbsorbing(mrm.NewStateSetOf(3, 0, 2), false)
	if err != nil {
		t.Fatal(err)
	}
	if abs.Impulses() != nil {
		t.Fatalf("impulses %v survive with both sources absorbing", abs.Impulses())
	}
}
