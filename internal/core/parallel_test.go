package core

import (
	"math"
	"strings"
	"sync"
	"testing"

	"github.com/performability/csrl/internal/logic"
	"github.com/performability/csrl/internal/mrm"
)

// TestDeriveStepNonDyadicBounds is the satellite regression test: bounds
// like t=0.3 have no power-of-two step that divides them, so the old
// derivation (d = 2^-m regardless of t and r) made AlgDiscretise fail
// with "t/d must be a positive integer". The rewritten derivation must
// produce a valid commensurable step instead.
func TestDeriveStepNonDyadicBounds(t *testing.T) {
	m := tinyModel(t) // max E = 3 → ceiling 1/24
	for _, tc := range []struct{ t, r float64 }{
		{0.3, 0.7},
		{0.3, 0.3},
		{0.1, 0.25},
		{1.0, 1.0},
		{2.5, 0.5},
		{0.7, 2.1},
	} {
		d, err := deriveStep(m, tc.t, tc.r)
		if err != nil {
			t.Errorf("t=%v r=%v: %v", tc.t, tc.r, err)
			continue
		}
		tq, rq := tc.t/d, tc.r/d
		if math.Abs(tq-math.Round(tq)) > 1e-9*(1+tq) || math.Round(tq) < 1 {
			t.Errorf("t=%v r=%v: d=%v does not divide t (t/d=%v)", tc.t, tc.r, d, tq)
		}
		if math.Abs(rq-math.Round(rq)) > 1e-9*(1+rq) || math.Round(rq) < 1 {
			t.Errorf("t=%v r=%v: d=%v does not divide r (r/d=%v)", tc.t, tc.r, d, rq)
		}
		if d > 1.0/24+1e-15 {
			t.Errorf("t=%v r=%v: d=%v exceeds stability ceiling", tc.t, tc.r, d)
		}
	}
}

// TestDeriveStepIncommensurable: an irrational ratio r/t must surface the
// explicit error rather than silently picking a near-miss grid.
func TestDeriveStepIncommensurable(t *testing.T) {
	m := tinyModel(t)
	_, err := deriveStep(m, 1.0, math.Sqrt2)
	if err == nil {
		t.Fatal("deriveStep(1, √2) succeeded; want an error")
	}
	if !strings.Contains(err.Error(), "DiscretiseStep") {
		t.Errorf("error %q should point at Options.DiscretiseStep", err)
	}
}

// TestDiscretiseNonDyadicEndToEnd drives the fixed derivation through the
// public checker API — this call errored before the fix.
func TestDiscretiseNonDyadicEndToEnd(t *testing.T) {
	opts := DefaultOptions()
	opts.P3 = AlgDiscretise
	c := New(tinyModel(t), opts)
	f := logic.MustParse("P>=0.0 [ ab U{t<=0.3, r<=0.7} c ]")
	if _, err := c.Check(f); err != nil {
		t.Fatalf("non-dyadic bounds t=0.3 r=0.7: %v", err)
	}
}

func TestMemoConcurrentAccess(t *testing.T) {
	m := tinyModel(t)
	memo := newMemo(0)
	phi := mrm.NewStateSetOf(3, 0, 1)
	psi := mrm.NewStateSetOf(3, 2)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := memo.Reduction(m, phi, psi); err != nil {
					t.Errorf("Reduction: %v", err)
					return
				}
				if _, err := memo.Uniformised(m, m.UniformisationRate()); err != nil {
					t.Errorf("Uniformised: %v", err)
					return
				}
				if _, err := memo.Poisson(2.5+float64(i%4), 1e-9); err != nil {
					t.Errorf("Poisson: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestMemoNilReceiver(t *testing.T) {
	var memo *memo
	m := tinyModel(t)
	if _, err := memo.Uniformised(m, m.UniformisationRate()); err != nil {
		t.Errorf("nil memo Uniformised: %v", err)
	}
	if _, err := memo.Poisson(3, 1e-9); err != nil {
		t.Errorf("nil memo Poisson: %v", err)
	}
	if _, err := memo.Reduction(m, mrm.NewStateSetOf(3, 0), mrm.NewStateSetOf(3, 2)); err != nil {
		t.Errorf("nil memo Reduction: %v", err)
	}
	// A zero Checker literal (no memo) must still evaluate formulas.
	c := &Checker{m: m, opts: DefaultOptions()}
	if _, err := c.Sat(logic.MustParse("P>=0.1 [ a U{t<=1, r<=1} c ]")); err != nil {
		t.Errorf("zero-literal checker: %v", err)
	}
}

// TestMemoReusedAcrossCornerEvaluations checks that rectangle-until (which
// evaluates up to four corners) gives the same result with and without a
// shared memo — i.e. memoisation changes cost, never values.
func TestMemoReusedAcrossCornerEvaluations(t *testing.T) {
	m := tinyModel(t)
	f := logic.MustParse("P=? [ a U{t in [0.1,0.8], r in [0.05,1.5]} c ]")
	cached := New(m, DefaultOptions())
	got, err := cached.Values(f)
	if err != nil {
		t.Fatal(err)
	}
	plain := &Checker{m: m, opts: cached.opts} // nil memo: uncached
	want, err := plain.Values(f)
	if err != nil {
		t.Fatal(err)
	}
	for s := range got {
		if got[s] != want[s] {
			t.Errorf("state %d: cached %g != uncached %g", s, got[s], want[s])
		}
	}
	if cached.memo.reductions.len() == 0 {
		t.Error("memo saw no reductions; cache is not wired in")
	}
	if cached.memo.uniformised.len() == 0 {
		t.Error("memo saw no uniformised matrices; cache is not wired in")
	}
}

func TestCheckerWorkersEquivalence(t *testing.T) {
	m := tinyModel(t)
	f := logic.MustParse("P=? [ ab U{t<=1, r<=2} c ]")
	for _, alg := range []Algorithm{AlgSericola, AlgErlang, AlgDiscretise} {
		opts := DefaultOptions()
		opts.P3 = alg
		opts.Workers = 1
		seq, err := New(m, opts).Values(f)
		if err != nil {
			t.Fatalf("%v sequential: %v", alg, err)
		}
		opts.Workers = 0
		par, err := New(m, opts).Values(f)
		if err != nil {
			t.Fatalf("%v parallel: %v", alg, err)
		}
		for s := range par {
			if math.Abs(par[s]-seq[s]) > 1e-12 {
				t.Errorf("%v: state %d: parallel %g vs sequential %g", alg, s, par[s], seq[s])
			}
		}
	}
}

// TestDeriveStepImpulses: the derived step must also make every impulse
// reward a whole number of steps. On this model the bounds alone give
// d = 1/16, against which ι(0,1) = 0.3 is 4.8 steps, and the check used to
// fail with discretise.ErrRewards although d = 0.1/32 works.
func TestDeriveStepImpulses(t *testing.T) {
	b := mrm.NewBuilder(3)
	b.Rate(0, 1, 2).Rate(1, 2, 1)
	b.Reward(0, 1).Reward(1, 1)
	b.Impulse(0, 1, 0.3)
	b.Label(0, "a").Label(1, "a").Label(2, "goal")
	b.InitialState(0)
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	d, err := deriveStep(m, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if q := 0.3 / d; math.Abs(q-math.Round(q)) > 1e-9*(1+q) {
		t.Errorf("d=%v: ι/d = %v is not an integer", d, q)
	}
	f := logic.MustParse("P=? [ a U{t<=1, r<=2} goal ]")
	opts := DefaultOptions()
	opts.P3 = AlgDiscretise
	got, err := New(m, opts).Values(f)
	if err != nil {
		t.Fatalf("derived step: %v", err)
	}
	opts.DiscretiseStep = 0.1 / 32
	want, err := New(m, opts).Values(f)
	if err != nil {
		t.Fatalf("explicit step: %v", err)
	}
	// Both are first-order approximations of the same probability.
	if math.Abs(got[0]-want[0]) > 0.02 {
		t.Errorf("derived step d=%v: %v, explicit d=%v: %v", d, got[0], opts.DiscretiseStep, want[0])
	}
}
