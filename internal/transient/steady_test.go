package transient

import (
	"math"
	"testing"

	"github.com/performability/csrl/internal/mrm"
	"github.com/performability/csrl/internal/numeric"
	"github.com/performability/csrl/internal/sparse"
)

// absorbingFunnel builds 0 --2--> 1 --3--> 2 with state 2 absorbing: every
// path ends in the absorbing BSCC {2}, so the backward iterate converges to
// the indicator's fixed point long before a long Fox–Glynn window closes.
func absorbingFunnel(t *testing.T) *mrm.MRM {
	t.Helper()
	b := mrm.NewBuilder(3)
	b.Rate(0, 1, 2).Rate(1, 2, 3)
	b.Label(2, "sink")
	b.InitialState(0)
	m, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return m
}

// TestSteadyDetectStopsEarly drives the sweep directly: with detection on,
// the absorbing-BSCC model must bail out well before the Fox–Glynn right
// truncation point, and the charged tail must keep the result within ε of
// the full summation.
func TestSteadyDetectStopsEarly(t *testing.T) {
	m := absorbingFunnel(t)
	const tb, eps = 50.0, 1e-10
	lambda := m.UniformisationRate()
	q := lambda * tb
	p, err := m.Uniformised(lambda)
	if err != nil {
		t.Fatal(err)
	}
	w, err := numeric.FoxGlynn(q, eps)
	if err != nil {
		t.Fatal(err)
	}
	v := m.Label("sink").Indicator()

	offs, prodOff := sweep(p, [][]float64{v}, w, q, Options{Epsilon: eps, Workers: 1, SteadyDetect: SteadyOff})
	off := offs[0]
	if prodOff != w.Right {
		t.Fatalf("detection off applied %d products, want the full window %d", prodOff, w.Right)
	}
	ons, prodOn := sweep(p, [][]float64{v}, w, q, Options{Epsilon: eps, Workers: 1})
	on := ons[0]
	if prodOn >= prodOff {
		t.Fatalf("steady-state detection did not stop early: %d products vs %d", prodOn, prodOff)
	}
	// At t = 50 with rates 2 and 3 the chain is absorbed almost surely
	// within the first few mean holding times; expect convergence far
	// before the ≈ q-sized window.
	if prodOn > w.Right/2 {
		t.Errorf("early exit after %d of %d products — later than the absorbing structure warrants", prodOn, w.Right)
	}
	if d := sparse.MaxDiff(on, off); d > eps {
		t.Errorf("steady-detect result differs from full summation by %g > ε=%g", d, eps)
	}
	for s, x := range on {
		if x < -eps || x > 1+eps {
			t.Errorf("state %d: result %v outside [0,1]", s, x)
		}
	}
}

// TestSteadyModeZeroValueIsOn pins the knob's default: a zero Options
// literal must run with detection enabled and agree with the detection-off
// reference within ε on the public API.
func TestSteadyModeZeroValueIsOn(t *testing.T) {
	if !SteadyAuto.enabled() {
		t.Fatal("SteadyAuto must enable detection")
	}
	if SteadyOff.enabled() {
		t.Fatal("SteadyOff must disable detection")
	}
	m := absorbingFunnel(t)
	goal := m.Label("sink")
	const tb, eps = 50.0, 1e-12
	ref, err := ReachProbAll(m, goal, tb, Options{Epsilon: eps, SteadyDetect: SteadyOff})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReachProbAll(m, goal, tb, Options{Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	for s := range got {
		if d := math.Abs(got[s] - ref[s]); d > eps {
			t.Errorf("state %d: differs from full summation by %g", s, d)
		}
	}
}

// TestSweepPoolRoundTrip checks the ownership contract: the two scratch
// vectors go back to the pool before sweep returns, the accumulator stays
// checked out, and pooled and unpooled sweeps agree bitwise.
func TestSweepPoolRoundTrip(t *testing.T) {
	m := absorbingFunnel(t)
	goal := m.Label("sink")
	const tb, eps = 5.0, 1e-12
	plain, err := ReachProbAll(m, goal, tb, Options{Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	pool := sparse.NewVecPool()
	pooled, err := ReachProbAll(m, goal, tb, Options{Epsilon: eps, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	for s := range pooled {
		if math.Float64bits(pooled[s]) != math.Float64bits(plain[s]) {
			t.Errorf("state %d: pooled %v vs plain %v not bitwise equal", s, pooled[s], plain[s])
		}
	}
	// cur and next went back: two free buffers of the state size.
	if got := pool.Len(m.N()); got != 2 {
		t.Errorf("pool holds %d free buffers of size %d, want 2 (cur and next)", got, m.N())
	}
}
