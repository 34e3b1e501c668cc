package crosscheck

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"github.com/performability/csrl/internal/adhoc"
	"github.com/performability/csrl/internal/erlang"
	"github.com/performability/csrl/internal/sericola"
	"github.com/performability/csrl/internal/sparse"
	"github.com/performability/csrl/internal/transient"
)

// TestSlicedSericolaBitwiseEqualsFullWidth is the PR's exactness gate: on
// the paper's ad-hoc model (Q3's Theorem 1 reduction), the goal-column
// sliced recursion must reproduce the full-width n×n path bit for bit at
// every tested ε. Slicing is a restriction of the same arithmetic — the
// band sweeps are row-local and the P·C products column-wise — so any
// deviation at all, even in the last ulp, means the slicing touched the
// operation order and the test fails.
func TestSlicedSericolaBitwiseEqualsFullWidth(t *testing.T) {
	red, err := adhoc.Q3Reduced()
	if err != nil {
		t.Fatal(err)
	}
	m := red.Model
	goal := m.Label("goal")
	tb, rb := adhoc.Q3TimeBound, adhoc.Q3PaperRewardBound

	for _, eps := range []float64{1e-2, 1e-4, 1e-6, 1e-8} {
		sliced, err := sericola.ReachProbAll(m, goal, tb, rb, sericola.Options{Epsilon: eps})
		if err != nil {
			t.Fatalf("eps=%g sliced: %v", eps, err)
		}
		full, err := sericola.ReachProbAll(m, goal, tb, rb, sericola.Options{Epsilon: eps, FullWidth: true})
		if err != nil {
			t.Fatalf("eps=%g full-width: %v", eps, err)
		}
		if sliced.N != full.N {
			t.Fatalf("eps=%g: truncation N=%d sliced vs %d full-width", eps, sliced.N, full.N)
		}
		for s := range sliced.Values {
			if math.Float64bits(sliced.Values[s]) != math.Float64bits(full.Values[s]) {
				t.Errorf("eps=%g state %d: sliced %v vs full-width %v not bitwise equal",
					eps, s, sliced.Values[s], full.Values[s])
			}
		}
	}
}

// TestSteadyDetectAgreesOnAdhoc pins the steady-state-aware summation to
// the exact full-window results on the ad-hoc model at tight ε: the charged
// Poisson tail may only move a value by the ε the detection threshold was
// derived from.
func TestSteadyDetectAgreesOnAdhoc(t *testing.T) {
	red, err := adhoc.Q3Reduced()
	if err != nil {
		t.Fatal(err)
	}
	m := red.Model
	goal := m.Label("goal")
	tb, rb := adhoc.Q3TimeBound, adhoc.Q3PaperRewardBound
	const eps = 1e-12

	t.Run("transient", func(t *testing.T) {
		off, err := transient.ReachProbAll(m, goal, tb, transient.Options{Epsilon: eps, SteadyDetect: transient.SteadyOff})
		if err != nil {
			t.Fatal(err)
		}
		on, err := transient.ReachProbAll(m, goal, tb, transient.Options{Epsilon: eps})
		if err != nil {
			t.Fatal(err)
		}
		for s := range on {
			if d := math.Abs(on[s] - off[s]); d > 10*eps {
				t.Errorf("state %d: steady on/off differ by %g > %g", s, d, 10*eps)
			}
		}
	})

	t.Run("erlang", func(t *testing.T) {
		offOpts := erlang.Options{K: 256, Transient: transient.Options{Epsilon: eps, SteadyDetect: transient.SteadyOff}}
		off, err := erlang.ReachProbAll(m, goal, tb, rb, offOpts)
		if err != nil {
			t.Fatal(err)
		}
		onOpts := erlang.Options{K: 256, Transient: transient.Options{Epsilon: eps}}
		on, err := erlang.ReachProbAll(m, goal, tb, rb, onOpts)
		if err != nil {
			t.Fatal(err)
		}
		for s := range on {
			if d := math.Abs(on[s] - off[s]); d > 10*eps {
				t.Errorf("state %d: steady on/off differ by %g > %g", s, d, 10*eps)
			}
		}
	})
}

// TestSharedPoolUnderConcurrency exercises the allocation-free hot path the
// way core.Checker drives it: one VecPool shared by concurrent Sericola and
// transient runs at Workers = NumCPU. It runs under -race in CI; the
// results must stay bitwise equal to unpooled Workers = 1 references, so a
// buffer recycled into the wrong hands shows up as a value diff even when
// the schedule happens to avoid a detectable race.
func TestSharedPoolUnderConcurrency(t *testing.T) {
	red, err := adhoc.Q3Reduced()
	if err != nil {
		t.Fatal(err)
	}
	m := red.Model
	goal := m.Label("goal")
	tb, rb := adhoc.Q3TimeBound, adhoc.Q3PaperRewardBound
	const eps = 1e-8

	refSer, err := sericola.ReachProbAll(m, goal, tb, rb, sericola.Options{Epsilon: eps, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	refTr, err := transient.ReachProbAll(m, goal, tb, transient.Options{Epsilon: eps, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	pool := sparse.NewVecPool()
	workers := runtime.NumCPU()
	const reps = 4
	serOut := make([]*sericola.Result, reps)
	trOut := make([][]float64, reps)
	errs := make([]error, 2*reps)
	var wg sync.WaitGroup
	for i := 0; i < reps; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			serOut[i], errs[i] = sericola.ReachProbAll(m, goal, tb, rb,
				sericola.Options{Epsilon: eps, Workers: workers, Pool: pool})
		}()
		go func() {
			defer wg.Done()
			trOut[i], errs[reps+i] = transient.ReachProbAll(m, goal, tb,
				transient.Options{Epsilon: eps, Workers: workers, Pool: pool})
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < reps; i++ {
		for s := range serOut[i].Values {
			if math.Float64bits(serOut[i].Values[s]) != math.Float64bits(refSer.Values[s]) {
				t.Errorf("sericola rep %d state %d: pooled %v vs reference %v",
					i, s, serOut[i].Values[s], refSer.Values[s])
			}
		}
		for s := range trOut[i] {
			if math.Float64bits(trOut[i][s]) != math.Float64bits(refTr[s]) {
				t.Errorf("transient rep %d state %d: pooled %v vs reference %v",
					i, s, trOut[i][s], refTr[s])
			}
		}
	}
}
