package transient

import (
	"math"
	"testing"

	"github.com/performability/csrl/internal/mrm"
	"github.com/performability/csrl/internal/numeric"
	"github.com/performability/csrl/internal/obs"
)

// birthDeath builds an n-state chain 0 ⇄ 1 ⇄ … ⇄ n−1 with birth rate up
// and death rate down; the last state carries the "goal" label. Started in
// state 0 with down > up, the transient mass hugs the low states — the
// shape where window truncation actually bites.
func birthDeath(t *testing.T, n int, up, down float64) *mrm.MRM {
	t.Helper()
	b := mrm.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.Rate(i, i+1, up)
		b.Rate(i+1, i, down)
	}
	b.Label(n-1, "goal")
	b.InitialState(0)
	m, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return m
}

// TestTruncatedSweepBitwiseDense is the no-regression contract of the
// truncated kernel: with a threshold too small to ever drop an entry, its
// accumulator must equal the dense forward sweep bit for bit on the same
// matrix and Poisson table. Steady detection is off so both kernels sum
// the identical weight window.
func TestTruncatedSweepBitwiseDense(t *testing.T) {
	m := birthDeath(t, 30, 1.0, 0.5)
	lambda := m.UniformisationRate()
	p, err := m.Uniformised(lambda)
	if err != nil {
		t.Fatal(err)
	}
	q := lambda * 2.5
	w, err := numeric.FoxGlynn(q, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	v := make([]float64, m.N())
	v[0] = 1
	opts := Options{Epsilon: 1e-9, SteadyDetect: SteadyOff}
	denses, _ := sweep(p, [][]float64{v}, w, q, opts, true)
	dense := denses[0]
	opts.Truncate = 1e-300
	got, dropped, _ := sweepForwardTruncated(p, v, w, q, opts)
	if dropped != 0 {
		t.Fatalf("threshold 1e-300 dropped mass %g", dropped)
	}
	for s := range dense {
		if got[s] != dense[s] {
			t.Errorf("state %d: truncated %v != dense %v (bitwise)", s, got[s], dense[s])
		}
	}
}

// TestTruncatedSweepSoundBound drives an aggressive threshold and checks
// the two halves of the soundness argument: the dropped mass never exceeds
// the budget share reserved for it, and the result is a pointwise
// underestimate of the dense sweep whose total deficit the dropped mass
// bounds — the ℓ1 guarantee the ledger charge advertises.
func TestTruncatedSweepSoundBound(t *testing.T) {
	m := birthDeath(t, 60, 1.0, 2.0)
	lambda := m.UniformisationRate()
	p, err := m.Uniformised(lambda)
	if err != nil {
		t.Fatal(err)
	}
	q := lambda * 4
	w, err := numeric.FoxGlynn(q, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	v := make([]float64, m.N())
	v[0] = 1
	opts := Options{Epsilon: 1e-6, SteadyDetect: SteadyOff}
	denses, _ := sweep(p, [][]float64{v}, w, q, opts, true)
	dense := denses[0]
	opts.Truncate = 1e-9
	got, dropped, _ := sweepForwardTruncated(p, v, w, q, opts)
	if dropped <= 0 {
		t.Fatalf("threshold 1e-9 on a %d-state chain dropped nothing", m.N())
	}
	_, _, truncEps := opts.budgetSplit(true)
	if dropped > truncEps {
		t.Fatalf("dropped %g exceeds budget share %g", dropped, truncEps)
	}
	var deficit float64
	for s := range dense {
		d := dense[s] - got[s]
		if d < -1e-15 {
			t.Fatalf("state %d: truncated %v above dense %v", s, got[s], dense[s])
		}
		deficit += d
	}
	if deficit > dropped+1e-15 {
		t.Errorf("accumulator deficit %g exceeds dropped mass %g", deficit, dropped)
	}
}

// TestDistributionFromTruncatedLedger checks the DistributionFrom plumbing
// around the kernel: the dropped mass appears as the truncation/state-drop
// ledger term, the whole budget still proves within epsilon, and the
// counters and window gauge record the sweep shape.
func TestDistributionFromTruncatedLedger(t *testing.T) {
	m := birthDeath(t, 80, 1.0, 2.0)
	rec := obs.New()
	opts := Options{Epsilon: 1e-7, Truncate: 1e-10, Obs: rec}
	dist, err := DistributionFrom(m, m.InitView(), 6.0, opts)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, x := range dist {
		sum += x
	}
	if sum > 1+1e-12 || sum < 1-opts.Epsilon {
		t.Errorf("truncated distribution sums to %v, want within %g of 1", sum, opts.Epsilon)
	}
	rep := rec.Report(opts.Epsilon)
	var charge float64
	found := false
	for _, c := range rep.Budget {
		if c.Component == "truncation" && c.Term == "state-drop" {
			charge, found = c.Amount, true
		}
	}
	if !found {
		t.Fatalf("no truncation/state-drop ledger entry; budget: %v", rep.Budget)
	}
	if charge <= 0 || charge > opts.Epsilon/3 {
		t.Errorf("state-drop charge %g outside (0, eps/3]", charge)
	}
	if !rep.BudgetOK {
		t.Errorf("budget total %g not proved within %g", rep.BudgetTotal, opts.Epsilon)
	}
	if rep.Counters["truncation.dropped-states"] == 0 {
		t.Errorf("dropped-states counter empty: %v", rep.Counters)
	}
	if win := rep.Gauges["truncation.active-window"]; !(win > 0 && win <= float64(m.N())) {
		t.Errorf("active-window gauge %v out of range (0, %d]", win, m.N())
	}
}

// TestTimeBoundedUntilFromMatchesBackward cross-checks the forward
// single-state procedure against the dense backward P1 sweep: for several
// start states the truncated forward probability must agree with the
// all-states answer within the epsilon both runs were given.
func TestTimeBoundedUntilFromMatchesBackward(t *testing.T) {
	m := birthDeath(t, 40, 1.0, 1.5)
	phi := m.Label("goal").Complement()
	psi := m.Label("goal")
	const horizon = 8.0
	opts := Options{Epsilon: 1e-9}
	dense, err := TimeBoundedUntil(m, phi, psi, horizon, opts)
	if err != nil {
		t.Fatal(err)
	}
	topts := opts
	topts.Truncate = 1e-13
	for _, from := range []int{0, m.N() / 2, m.N() - 2} {
		got, err := TimeBoundedUntilFrom(m, phi, psi, from, horizon, topts)
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(got - dense[from]); d > opts.Epsilon {
			t.Errorf("from=%d: forward %v vs backward %v, |diff| = %.3g > %g",
				from, got, dense[from], d, opts.Epsilon)
		}
	}
	// A Ψ start state is absorbed immediately; only the Fox–Glynn tail
	// keeps the answer from exactly 1.
	if got, err := TimeBoundedUntilFrom(m, phi, psi, m.N()-1, horizon, topts); err != nil || math.Abs(got-1) > opts.Epsilon {
		t.Errorf("Ψ start state: got %v, %v; want 1 within %g", got, err, opts.Epsilon)
	}
	if _, err := TimeBoundedUntilFrom(m, phi, psi, m.N(), horizon, topts); err == nil {
		t.Errorf("out-of-range start state accepted")
	}
}
