package core

import (
	"math"
	"strings"
	"testing"

	"github.com/performability/csrl/internal/cluster"
	"github.com/performability/csrl/internal/logic"
	"github.com/performability/csrl/internal/obs"
)

// TestCheckTruncatedAgreesWithDense pins the semantics of the truncated
// Check fast path: for every formula shape — whether it qualifies for the
// forward single-state sweep or falls back to the dense Sat-based check —
// the verdict must match a truncation-free checker, with the lump pre-pass
// off and in the default configuration. The window gauge separates the
// two routes: the forward sweep sets it whenever it runs, so its
// presence proves the fast path engaged exactly for the eligible
// time-bounded until formulas.
func TestCheckTruncatedAgreesWithDense(t *testing.T) {
	m := lumpTestModel(t)
	cases := []struct {
		name    string
		formula string
		fast    bool // expected to take the forward-sweep route
	}{
		{"until holds", "P<=0.9 [ !down U{t<=2} down ]", true},
		{"until fails", "P>=0.99 [ !down U{t<=2} down ]", true},
		{"eventually", "P>0.01 [ F{t<=1} degraded ]", true},
		{"strict upper", "P<1.0 [ !down U{t<=2} down ]", true},
		{"nested operand", "P<=0.9 [ P>0.5 [ F{t<=1} degraded ] U{t<=2} down ]", true},
		{"reward-bounded falls back", "P>0.001 [ qos U{t<=2, r<=3} down ]", false},
		{"interval time falls back", "P>=0.0 [ !down U{t in [1,2]} down ]", false},
		{"steady falls back", "S>=0.0 [ qos ]", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := logic.MustParse(tc.formula)
			for _, mode := range []LumpMode{LumpOff, LumpAuto} {
				denseOpts := DefaultOptions()
				denseOpts.Lump = mode
				dense, err := New(m, denseOpts).Check(f)
				if err != nil {
					t.Fatal(err)
				}

				truncOpts := denseOpts
				truncOpts.Truncate = 1e-13
				truncOpts.Obs = obs.New()
				trunc := New(m, truncOpts)
				got, err := trunc.Check(f)
				if err != nil {
					t.Fatal(err)
				}
				if got != dense {
					t.Errorf("lump mode %d: truncated verdict %v, dense %v", mode, got, dense)
				}
				rep := trunc.NumericsReport()
				_, swept := rep.Gauges["truncation.active-window"]
				if swept != tc.fast {
					t.Errorf("lump mode %d: forward sweep ran = %v, want %v; gauges: %v", mode, swept, tc.fast, rep.Gauges)
				}
				if !rep.BudgetOK {
					t.Errorf("lump mode %d: budget %g exceeds epsilon", mode, rep.BudgetTotal)
				}
			}
		})
	}
}

// TestTruncatedFastPathSkipsFullSpace pins what the truncated fast path
// over propositional operands does not do on a fresh checker: no lump
// pre-pass (no core.lump span, no lump.* signal) and no absorbing model or
// uniformised matrix in the memo — its sweeps read the window's rows from
// the model directly. A fast-path formula with a nested P operand still
// lumps, since its operand's Sat is a sweep over every state.
func TestTruncatedFastPathSkipsFullSpace(t *testing.T) {
	m := lumpTestModel(t)
	fresh := func() *Checker {
		opts := DefaultOptions()
		opts.Truncate = 1e-13
		opts.Obs = obs.New()
		return New(m, opts)
	}
	noFullSpace := func(t *testing.T, c *Checker) {
		t.Helper()
		rep := c.NumericsReport()
		if _, ok := rep.Spans["core.lump"]; ok {
			t.Errorf("core.lump span recorded: %v", rep.Spans)
		}
		for name := range rep.Gauges {
			if strings.HasPrefix(name, "lump.") {
				t.Errorf("lump gauge %s recorded", name)
			}
		}
		for name := range rep.Counters {
			if strings.HasPrefix(name, "lump.") {
				t.Errorf("lump counter %s recorded", name)
			}
		}
		if n := c.memo.uniformised.len(); n != 0 {
			t.Errorf("%d uniformised memo entries", n)
		}
		if n := c.memo.absorbing.len(); n != 0 {
			t.Errorf("%d absorbing memo entries", n)
		}
		if _, ok := rep.Gauges["truncation.active-window"]; !ok {
			t.Errorf("truncated sweep did not run; gauges: %v", rep.Gauges)
		}
	}

	c := fresh()
	if _, err := c.Check(logic.MustParse("P<=0.9 [ !down U{t<=2} down ]")); err != nil {
		t.Fatal(err)
	}
	noFullSpace(t, c)

	c = fresh()
	if _, ok, err := c.QueryInitial(logic.MustParse("P=? [ (qos | !down) U{t<=2} down ]")); err != nil || !ok {
		t.Fatalf("QueryInitial: ok=%v err=%v", ok, err)
	}
	noFullSpace(t, c)

	c = fresh()
	if _, err := c.Check(logic.MustParse("P<=0.9 [ P>0.5 [ F{t<=1} degraded ] U{t<=2} down ]")); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.NumericsReport().Spans["core.lump"]; !ok {
		t.Errorf("nested P operand skipped the lump pre-pass")
	}
}

// TestTruncateNotPositiveIsOff pins the one definition of "truncation
// armed", Truncate > 0: a NaN or negative threshold leaves the fast path
// off — Check takes the Sat route and QueryInitial declines — instead of
// taking it and then running an untruncated forward sweep per initial
// state.
func TestTruncateNotPositiveIsOff(t *testing.T) {
	m := lumpTestModel(t)
	f := logic.MustParse("P<=0.9 [ !down U{t<=2} down ]")
	for _, thr := range []float64{math.NaN(), -1} {
		opts := DefaultOptions()
		opts.Truncate = thr
		opts.Obs = obs.New()
		c := New(m, opts)
		if _, err := c.Check(f); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.NumericsReport().Spans["core.sat"]; !ok {
			t.Errorf("Truncate=%v: Check took the fast path", thr)
		}
		if _, ok, err := c.QueryInitial(f); ok || err != nil {
			t.Errorf("Truncate=%v: QueryInitial ok=%v err=%v, want the fast path declined", thr, ok, err)
		}
	}
}

// TestTruncationBudgetLiveOnCluster re-proves the truncated forward route
// on a mid-sized family member, cluster.Default(60) (7 442 states): with
// lumping off on both sides, the truncated check must reach the dense
// verdict, its ledger must keep the state-drop mass inside ε, and the
// initial-state probability must match the dense sweep to within 1e-6
// (both carry ≤ ε error, so a larger gap is a defect, not rounding).
func TestTruncationBudgetLiveOnCluster(t *testing.T) {
	p, err := cluster.Default(60)
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	if m.N() != 7442 {
		t.Fatalf("cluster:60 has %d states, want 7442", m.N())
	}
	bounded := logic.MustParse("P<=0.021 [ !down U{t<=96} down ]")
	query := logic.MustParse("P=? [ !down U{t<=96} down ]")

	denseOpts := DefaultOptions()
	denseOpts.Epsilon = 1e-8
	denseOpts.Lump = LumpOff
	dense := New(m, denseOpts)
	denseHolds, err := dense.Check(bounded)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := dense.Values(query)
	if err != nil {
		t.Fatal(err)
	}
	denseProb := vals[m.InitialState()]

	truncOpts := denseOpts
	truncOpts.Truncate = 1e-14
	truncOpts.Obs = obs.New()
	trunc := New(m, truncOpts)
	truncHolds, err := trunc.Check(bounded)
	if err != nil {
		t.Fatal(err)
	}
	if truncHolds != denseHolds {
		t.Errorf("verdicts disagree: dense %v, truncated %v", denseHolds, truncHolds)
	}
	rep := trunc.NumericsReport()
	if !rep.BudgetOK {
		t.Errorf("truncation budget %g exceeds eps %g:\n%s", rep.BudgetTotal, truncOpts.Epsilon, rep.Format())
	}
	// The truncated route must really have run: a silent fall-back to the
	// dense sweep would pass every check above with nothing dropped.
	if rep.Counters["truncation.dropped-states"] == 0 {
		t.Errorf("no states dropped, the truncated route did not run: %v", rep.Counters)
	}
	var charged bool
	for _, c := range rep.Budget {
		if c.Component == "truncation" && c.Term == "state-drop" && c.Amount > 0 {
			charged = true
		}
	}
	if !charged {
		t.Errorf("no positive truncation/state-drop ledger entry; budget: %v", rep.Budget)
	}
	truncProb, ok, err := trunc.QueryInitial(query)
	if err != nil || !ok {
		t.Fatalf("truncated fast path: ok=%v err=%v", ok, err)
	}
	if d := math.Abs(denseProb - truncProb); d > 1e-6 {
		t.Errorf("|dense − truncated| = %g (dense %.12f, truncated %.12f), want ≤ 1e-6", d, denseProb, truncProb)
	}
}
