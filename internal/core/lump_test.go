package core

import (
	"math"
	"testing"

	"github.com/performability/csrl/internal/adhoc"
	"github.com/performability/csrl/internal/cluster"
	"github.com/performability/csrl/internal/logic"
	"github.com/performability/csrl/internal/lump"
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

// TestSatLumpCrosscheck is the Sat-level acceptance test of automatic
// lumping: for each formula class (P1 transient, steady-state, the
// reward-bounded P3 class under all three procedures, interval until and
// the P3 rectangle), verdict sets and per-state probabilities must agree
// between a lump-off and a lump-on checker to 1e-12. The top-level untils
// lump their Theorem-1 view, the steady-state formula its atoms; the
// interval untils run phase two on the view and phase one on the model,
// with disjoint and with overlapping operands.
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
		{"interval until", "P>=0.05 [ !down U{t in [0.5,2]} down ]", "P=? [ !down U{t in [0.5,2]} down ]", nil},
		{"interval until overlapping", "P>=0.3 [ true U{t in [0.5,2]} degraded ]", "P=? [ true U{t in [0.5,2]} degraded ]", nil},
		{"P1 restricted until", "P>=0.01 [ qos U{t<=2} down ]", "P=? [ qos U{t<=2} down ]", nil},
		{"P3 corners", "P>0.01 [ !down U{t in [0.5,2], r in [1,3]} down ]", "P=? [ !down U{t in [0.5,2], r in [1,3]} down ]",
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
// identical results. The bounded formula nests its P in a conjunction, so
// it takes the atom-keyed pre-pass; the top-level query lumps the until's
// Theorem-1 view, which merges the absorbing states.
func TestSatLumpIdentityQuotient(t *testing.T) {
	m := lumpTestModel(t)
	// left_up/left_down (and the right/backbone pairs) take three token
	// patterns each across N=2, so these atoms split every state apart.
	f := logic.MustParse("true & P>=0.0 [ (left_up | left_down) U{t<=1} (right_up & right_down & backbone_up) ]")
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

// TestLumpKeyDeduplicatesAtoms checks that UntilProbBatch reuses the
// quotient PathProb built for the same until. The quotient of an until's
// Theorem-1 view is keyed by the pair (Sat(Φ), Sat(Ψ)), so a proposition
// named on both sides of `!down U down`, operands written differently but
// denoting the same sets, and another bound all hit the same entry.
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
	same := logic.MustParse("P=? [ (!down | false) U{t<=1, r<=2} (down & true) ]").(logic.Prob).Path.(logic.Until)
	if _, err := c.UntilProbBatch(same.Left, same.Right, 1, []float64{2, 4}); err != nil {
		t.Fatal(err)
	}
	rep := c.NumericsReport()
	if span, ok := rep.Spans["core.lump"]; !ok || span.Count != 1 {
		t.Errorf("expected exactly one quotient build, spans: %v", rep.Spans)
	}
}

// TestCheckLumpsTheoremOneViewOnce checks that a top-level dense Check of
// a time-bounded until on cluster:N partitions the model once — the until's
// Theorem-1 view, not the atoms and then the view — and agrees with the
// unlumped verdict.
func TestCheckLumpsTheoremOneViewOnce(t *testing.T) {
	p, err := cluster.Default(10)
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	view, err := lump.QuotientAbsorbing(m, m.Label("down"), m.Label("down"), lumpMaxRounds)
	if err != nil {
		t.Fatal(err)
	}
	f := logic.MustParse("P<=0.001 [ !down U{t<=24} down ]")
	offOpts := DefaultOptions()
	offOpts.Lump = LumpOff
	want, err := New(m, offOpts).Check(f)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Obs = obs.New()
	c := New(m, opts)
	got, err := c.Check(f)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("lumped verdict %v, unlumped %v", got, want)
	}
	rep := c.NumericsReport()
	if span := rep.Spans["core.lump"]; span.Count != 1 {
		t.Errorf("core.lump spans: %d, want 1", span.Count)
	}
	if blocks := rep.Gauges["lump.blocks"]; int(blocks) != view.Model.N() || view.Model.N() >= m.N() {
		t.Errorf("lumped %g blocks; the view has %d of %d states", blocks, view.Model.N(), m.N())
	}
}

// TestTheoremOneViewDeclinedWhenNoSmaller checks that the view of Q3 on the
// station model, whose quotient merges only the absorbing states the
// Theorem 1 reduction amalgamates anyway, is declined as trivial, and that
// the check then runs the unlumped route bit for bit.
func TestTheoremOneViewDeclinedWhenNoSmaller(t *testing.T) {
	m, err := adhoc.Model()
	if err != nil {
		t.Fatal(err)
	}
	q := logic.MustParse("P=? [ (call_idle | doze) U{t<=24, r<=550} call_initiated ]")
	offOpts := DefaultOptions()
	offOpts.Lump = LumpOff
	want, err := New(m, offOpts).Values(q)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Obs = obs.New()
	c := New(m, opts)
	got, err := c.Values(q)
	if err != nil {
		t.Fatal(err)
	}
	for s := range want {
		if math.Float64bits(got[s]) != math.Float64bits(want[s]) {
			t.Errorf("state %d: %v, unlumped %v", s, got[s], want[s])
		}
	}
	if n := c.NumericsReport().Counters["lump.trivial"]; n != 1 {
		t.Errorf("lump.trivial = %d, want 1", n)
	}
}
