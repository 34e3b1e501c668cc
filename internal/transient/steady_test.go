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

	off, prodOff := sweep(p, v, w, q, Options{Epsilon: eps, Workers: 1, SteadyDetect: SteadyOff})
	if prodOff != w.Right {
		t.Fatalf("detection off applied %d products, want the full window %d", prodOff, w.Right)
	}
	on, prodOn := sweep(p, v, w, q, Options{Epsilon: eps, Workers: 1})
	if prodOn >= prodOff {
		t.Fatalf("steady-state detection did not stop early: %d products vs %d", prodOn, prodOff)
	}
	// At t = 50 with rates 2 and 3 the chain is absorbed almost surely
	// within the first few mean holding times; expect convergence far
	// before the ≈ q-sized window.
	if prodOn > w.Right/2 {
		t.Errorf("early exit after %d of %d products — later than the absorbing structure warrants", prodOn, w.Right)
	}
	if d := maxDiff(on, off); d > eps {
		t.Errorf("steady-detect result differs from full summation by %g > ε=%g", d, eps)
	}
	for s, x := range on {
		if x < -eps || x > 1+eps {
			t.Errorf("state %d: result %v outside [0,1]", s, x)
		}
	}
}

// ringModel builds a CTMC large enough that the uniformised matrix clears
// the parallel kernels' grain, with an absorbing tail: states 0..n-3 hop
// forward along a ring with a drift towards the two absorbing sinks n-2
// and n-1.
func ringModel(t *testing.T, n int) *mrm.MRM {
	t.Helper()
	b := mrm.NewBuilder(n)
	for i := 0; i < n-2; i++ {
		b.Rate(i, (i+1)%(n-2), 1.0+float64(i%5))
		b.Rate(i, (i+7)%(n-2), 0.5+float64(i%3))
		b.Rate(i, (i+13)%(n-2), 0.25)
		b.Rate(i, n-2, 0.1+0.01*float64(i%7))
		b.Rate(i, n-1, 0.05)
	}
	b.Label(n-2, "sinkA")
	b.Label(n-1, "sinkB")
	b.InitialState(0)
	m, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return m
}

// TestSteadyDetectFixedPoint pins detection on vectors the sweep starts
// at: a constant vector is a fixed point of the stochastic P, so with
// detection on its sweep stops after a handful of passes, against the
// full Fox–Glynn window with detection off, and the charged tail keeps
// the result within ε of the full summation.
func TestSteadyDetectFixedPoint(t *testing.T) {
	m := ringModel(t, 300)
	n := m.N()
	const tb, eps = 60.0, 1e-10
	lambda := m.UniformisationRate()
	q := lambda * tb
	p, err := m.Uniformised(lambda)
	if err != nil {
		t.Fatal(err)
	}
	on := Options{Epsilon: eps, Workers: 1}
	off := Options{Epsilon: eps, Workers: 1, SteadyDetect: SteadyOff}
	fgEps, _, _ := on.budgetSplit(false)
	w, err := on.poissonWeights(q, fgEps)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []float64{1, 0.25} {
		v := make([]float64, n)
		for i := range v {
			v[i] = c
		}
		accOn, prodOn := sweep(p, v, w, q, on)
		accOff, prodOff := sweep(p, v, w, q, off)
		if prodOff != w.Right {
			t.Fatalf("v=%g: detection off applied %d passes, want the full window %d", c, prodOff, w.Right)
		}
		if prodOn >= prodOff/10 {
			t.Fatalf("v=%g: fixed-point sweep still applied %d of %d passes", c, prodOn, prodOff)
		}
		if d := maxDiff(accOn, accOff); d > eps {
			t.Errorf("v=%g: steady-detect differs from full summation by %g > ε", c, d)
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

// maxDiff returns max_i |x[i] − y[i]|.
func maxDiff(x, y []float64) float64 {
	var m float64
	for i, v := range x {
		if d := math.Abs(v - y[i]); d > m {
			m = d
		}
	}
	return m
}
