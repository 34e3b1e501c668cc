package core

import (
	"math"
	"testing"

	"github.com/performability/csrl/internal/cluster"
	"github.com/performability/csrl/internal/logic"
	"github.com/performability/csrl/internal/mrm"
	"github.com/performability/csrl/internal/obs"
)

// lumpTestModel is a small left/right-symmetric workstation cluster with
// rates hot enough that every probability in the crosscheck is far from 0
// and 1: the automatic pre-pass merges the mirror-image states whenever
// the formula's atoms cannot tell left from right.
func lumpTestModel(t *testing.T) *mrm.MRM {
	t.Helper()
	m, err := cluster.Params{N: 2, WorkFail: 0.5, WorkRepair: 1.0, BackFail: 0.2, BackRepair: 2.0}.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSatLumpCrosscheck is the Sat-level acceptance test of the automatic
// lumping pre-pass: for each formula class (P1 transient, steady-state,
// and the reward-bounded P3 class under all three procedures), verdict
// sets and per-state probabilities must agree between a lump-off and a
// lump-on checker to 1e-12.
func TestSatLumpCrosscheck(t *testing.T) {
	m := lumpTestModel(t)
	cases := []struct {
		name    string
		bounded string
		query   string
		algs    []Algorithm
	}{
		{"P1 until", "P>=0.2 [ !down U{t<=2} down ]", "P=? [ !down U{t<=2} down ]", nil},
		{"P1 eventually", "P<0.99 [ F{t<=1} degraded ]", "P=? [ F{t<=1} degraded ]", nil},
		{"steady", "S>=0.3 [ qos ]", "S=? [ qos ]", nil},
		{"P3 rectangle", "P>0.05 [ qos U{t<=2, r<=3} down ]", "P=? [ qos U{t<=2, r<=3} down ]",
			[]Algorithm{AlgSericola, AlgErlang, AlgDiscretise}},
	}
	for _, tc := range cases {
		algs := tc.algs
		if algs == nil {
			algs = []Algorithm{AlgSericola}
		}
		for _, alg := range algs {
			t.Run(tc.name, func(t *testing.T) {
				offOpts := DefaultOptions()
				offOpts.Lump = LumpOff
				offOpts.P3 = alg
				offOpts.ErlangK = 64
				off := New(m, offOpts)

				onOpts := offOpts
				onOpts.Lump = LumpAuto
				onOpts.Obs = obs.New()
				on := New(m, onOpts)

				bounded := logic.MustParse(tc.bounded)
				query := logic.MustParse(tc.query)

				satOff, err := off.Sat(bounded)
				if err != nil {
					t.Fatal(err)
				}
				satOn, err := on.Sat(bounded)
				if err != nil {
					t.Fatal(err)
				}
				for s := 0; s < m.N(); s++ {
					if satOff.Contains(s) != satOn.Contains(s) {
						t.Errorf("state %d: lump-off sat=%v, lump-on sat=%v", s, satOff.Contains(s), satOn.Contains(s))
					}
				}

				holdsOff, err := off.Check(bounded)
				if err != nil {
					t.Fatal(err)
				}
				holdsOn, err := on.Check(bounded)
				if err != nil {
					t.Fatal(err)
				}
				if holdsOff != holdsOn {
					t.Errorf("Check: lump-off %v, lump-on %v", holdsOff, holdsOn)
				}

				valsOff, err := off.Values(query)
				if err != nil {
					t.Fatal(err)
				}
				valsOn, err := on.Values(query)
				if err != nil {
					t.Fatal(err)
				}
				for s := range valsOff {
					if d := math.Abs(valsOff[s] - valsOn[s]); d > 1e-12 {
						t.Errorf("state %d: |%.15g - %.15g| = %.3g > 1e-12", s, valsOff[s], valsOn[s], d)
					}
				}

				// The pre-pass must have really engaged: fewer blocks than
				// states for these left/right-blind atom sets.
				rep := on.NumericsReport()
				if blocks, states := rep.Gauges["lump.blocks"], rep.Gauges["lump.states"]; !(blocks > 0 && blocks < states) {
					t.Errorf("quotient did not engage: blocks=%g states=%g", blocks, states)
				}
			})
		}
	}
}

// TestSatLumpIdentityQuotient uses a formula whose atoms name every place,
// forcing the identity partition: the pre-pass must decline (recording
// lump.trivial) and the checker must fall back to the unlumped model with
// identical results.
func TestSatLumpIdentityQuotient(t *testing.T) {
	m := lumpTestModel(t)
	// left_up/left_down (and the right/backbone pairs) take three token
	// patterns each across N=2, so these atoms split every state apart.
	f := logic.MustParse("P>=0.0 [ (left_up | left_down) U{t<=1} (right_up & right_down & backbone_up) ]")
	q := logic.MustParse("P=? [ (left_up | left_down) U{t<=1} (right_up & right_down & backbone_up) ]")

	offOpts := DefaultOptions()
	offOpts.Lump = LumpOff
	off := New(m, offOpts)
	onOpts := DefaultOptions()
	onOpts.Obs = obs.New()
	on := New(m, onOpts)

	satOff, err := off.Sat(f)
	if err != nil {
		t.Fatal(err)
	}
	satOn, err := on.Sat(f)
	if err != nil {
		t.Fatal(err)
	}
	if satOff.Len() != satOn.Len() {
		t.Errorf("sat sizes differ: %d vs %d", satOff.Len(), satOn.Len())
	}
	valsOff, err := off.Values(q)
	if err != nil {
		t.Fatal(err)
	}
	valsOn, err := on.Values(q)
	if err != nil {
		t.Fatal(err)
	}
	for s := range valsOff {
		if d := math.Abs(valsOff[s] - valsOn[s]); d > 1e-12 {
			t.Errorf("state %d differs by %.3g", s, d)
		}
	}
	rep := on.NumericsReport()
	if rep.Counters["lump.trivial"] == 0 {
		t.Errorf("expected the identity quotient to be declined as trivial; counters: %v", rep.Counters)
	}
}

// TestLumpPrePassMemoised checks that repeated formulas over the same atom
// set build the quotient once: the second Sat must hit the lump memo.
func TestLumpPrePassMemoised(t *testing.T) {
	m := lumpTestModel(t)
	opts := DefaultOptions()
	opts.Obs = obs.New()
	c := New(m, opts)
	for i := 0; i < 3; i++ {
		if _, err := c.Sat(logic.MustParse("P>=0.2 [ !down U{t<=2} down ]")); err != nil {
			t.Fatal(err)
		}
	}
	rep := c.NumericsReport()
	if span, ok := rep.Spans["core.lump"]; !ok || span.Count != 1 {
		t.Errorf("expected exactly one quotient build, spans: %v", rep.Spans)
	}
}

// TestLumpKeyDeduplicatesAtoms checks that UntilProbBatch, whose two sides
// of `!down U down` both name down, reuses the quotient PathProb built for
// the same until instead of keying a second one on the repeated atom.
func TestLumpKeyDeduplicatesAtoms(t *testing.T) {
	m := lumpTestModel(t)
	opts := DefaultOptions()
	opts.Obs = obs.New()
	c := New(m, opts)
	p := logic.MustParse("P=? [ !down U{t<=2, r<=3} down ]").(logic.Prob)
	single, err := c.PathProb(p.Path)
	if err != nil {
		t.Fatal(err)
	}
	u := p.Path.(logic.Until)
	batch, err := c.UntilProbBatch(u.Left, u.Right, 2, []float64{3})
	if err != nil {
		t.Fatal(err)
	}
	for s := range single {
		if math.Float64bits(batch[0][s]) != math.Float64bits(single[s]) {
			t.Fatalf("state %d: batch %g vs single %g", s, batch[0][s], single[s])
		}
	}
	rep := c.NumericsReport()
	if span, ok := rep.Spans["core.lump"]; !ok || span.Count != 1 {
		t.Errorf("expected exactly one quotient build, spans: %v", rep.Spans)
	}
}
