package discretise

import (
	"math"
	"runtime"
	"testing"

	"github.com/performability/csrl/internal/mrm"
	"github.com/performability/csrl/internal/runenv"
)

// referenceF1 is an independent straight-line implementation of the
// recursion under the F¹-initialisation convention documented in
// ReachProb: point mass at reward index ρ(from) followed by T−1 steps.
// It exists so TestConventionPinned can detect any change to either the
// initial reward index or the step count.
func referenceF1(m *mrm.MRM, goal *mrm.StateSet, t, r float64, from int, d float64) float64 {
	n := m.N()
	T := int(math.Round(t / d))
	R := int(math.Round(r / d))
	rho := make([]int, n)
	for s := 0; s < n; s++ {
		rho[s] = int(math.Round(m.Reward(s)))
	}
	rt := m.Rates().Transpose()
	cur := make([][]float64, n)
	next := make([][]float64, n)
	for s := 0; s < n; s++ {
		cur[s] = make([]float64, R+1)
		next[s] = make([]float64, R+1)
	}
	if rho[from] <= R {
		cur[from][rho[from]] = 1 / d
	}
	for j := 1; j < T; j++ {
		for s := 0; s < n; s++ {
			fs := next[s]
			for k := 0; k <= R; k++ {
				var v float64
				if k >= rho[s] {
					v = cur[s][k-rho[s]] * (1 - m.ExitRate(s)*d)
				}
				fs[k] = v
			}
			rt.Row(s, func(src int, rate float64) {
				w := rate * d
				for k := rho[src]; k <= R; k++ {
					fs[k] += cur[src][k-rho[src]] * w
				}
			})
		}
		cur, next = next, cur
	}
	var sum float64
	goal.Each(func(s int) {
		for k := 0; k <= R; k++ {
			sum += cur[s][k]
		}
	})
	return sum * d
}

func twoStateChain(t *testing.T) *mrm.MRM {
	t.Helper()
	b := mrm.NewBuilder(3)
	b.Rate(0, 1, 2.0).Rate(1, 0, 1.0).Rate(1, 2, 0.5)
	b.Reward(0, 1).Reward(1, 2)
	b.Label(2, "goal")
	m, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return m
}

// TestConventionPinned pins the F¹-initialisation convention (initial mass
// at reward index ρ(from), T−1 recursion steps — see the proof comment in
// ReachProb). The reward bound is chosen loose enough that the competing
// conventions (F⁰ init and/or T steps) differ from F¹ by far more than
// floating-point noise, so any change to the initial index or the loop
// bound makes this test fail.
func TestConventionPinned(t *testing.T) {
	m := twoStateChain(t)
	goal := m.Label("goal")
	// r = 3 > t·maxρ = 0.5·2: no path can exhaust the reward bound, the
	// regime where the init/step conventions do NOT coincide.
	tb, rb, d := 0.5, 3.0, 1.0/64
	got, err := ReachProb(m, goal, tb, rb, 0, Options{D: d})
	if err != nil {
		t.Fatal(err)
	}
	want := referenceF1(m, goal, tb, rb, 0, d)
	if got != want {
		t.Fatalf("ReachProb = %.15g, F1 reference = %.15g: the initialisation convention changed", got, want)
	}
	// Sanity: the loose bound makes the reward constraint vacuous, so the
	// value must approach the plain transient reachability; mostly this
	// guards the reference itself.
	if got <= 0 || got >= 1 {
		t.Fatalf("implausible probability %v", got)
	}
}

// TestClosedFormHalvingConvergence is the satellite regression test: on a
// 2-state model with known closed form, halving d must converge to the
// exact value at first order.
func TestClosedFormHalvingConvergence(t *testing.T) {
	const mu = 1.25
	m := singleJump(t, mu)
	goal := m.Label("goal")
	tb, rb := 2.0, 1.0
	want := 1 - math.Exp(-mu*rb) // Pr{Y ≤ r, X_t = goal}, r < t
	var prev float64
	for i, d := range []float64{1.0 / 16, 1.0 / 32, 1.0 / 64, 1.0 / 128, 1.0 / 256} {
		got, err := ReachProb(m, goal, tb, rb, 0, Options{D: d})
		if err != nil {
			t.Fatalf("d=%v: %v", d, err)
		}
		e := math.Abs(got - want)
		if i > 0 {
			ratio := prev / e
			if ratio < 1.6 || ratio > 2.6 {
				t.Errorf("d=%v: halving ratio %.3f not ≈ 2 (errors %g → %g)", d, ratio, prev, e)
			}
		}
		prev = e
	}
	// First-order scheme: the d = 1/256 error is ≈ 5e-4 and halves with d.
	if prev > 1e-3 {
		t.Errorf("finest-step error %g too large", prev)
	}
}

func TestReachProbAllParallelEquivalence(t *testing.T) {
	m := twoStateChain(t)
	goal := m.Label("goal")
	tb, rb, d := 0.5, 1.0, 1.0/256
	seq, err := ReachProbAll(m, goal, tb, rb, Options{D: d, Env: runenv.Env{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, runtime.NumCPU()} {
		par, err := ReachProbAll(m, goal, tb, rb, Options{D: d, Env: runenv.Env{Workers: workers}})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for s := range par {
			if par[s] != seq[s] {
				t.Fatalf("workers=%d: state %d: %g != sequential %g", workers, s, par[s], seq[s])
			}
		}
	}
}

// TestInnerLoopParallelEquivalence exercises the per-state parallel inner
// loop (needs n·(R+1) ≥ recursionGrain) and checks bitwise agreement with
// the sequential path. The chain's last state is absorbing with zero
// reward, so its in-place row is computed by whichever worker owns it.
func TestInnerLoopParallelEquivalence(t *testing.T) {
	const n = 40
	b := mrm.NewBuilder(n)
	for s := 0; s < n-1; s++ {
		b.Rate(s, s+1, 1.0+0.05*float64(s%4))
		if s > 0 {
			b.Rate(s, s-1, 0.4)
		}
		b.Reward(s, float64(1+s%2))
	}
	b.Label(n-1, "goal")
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	goal := m.Label("goal")
	tb, rb, d := 1.0, 2.0, 1.0/128 // n·(R+1) = 40·257 ≫ grain
	seq, err := ReachProb(m, goal, tb, rb, 0, Options{D: d, Env: runenv.Env{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 4, 5} {
		par, err := ReachProb(m, goal, tb, rb, 0, Options{D: d, Env: runenv.Env{Workers: workers}})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if par != seq {
			t.Fatalf("workers=%d: %g != sequential %g", workers, par, seq)
		}
	}
}
