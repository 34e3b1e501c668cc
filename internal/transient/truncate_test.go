package transient

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/performability/csrl/internal/adhoc"
	"github.com/performability/csrl/internal/cluster"
	"github.com/performability/csrl/internal/mrm"
	"github.com/performability/csrl/internal/numeric"
	"github.com/performability/csrl/internal/obs"
	"github.com/performability/csrl/internal/runenv"
	"github.com/performability/csrl/internal/sparse"
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

// denseForward is the reference of the windowed sweep: the forward series
// Σ_n w(n)·vₙ with vₙ₊₁ = vₙ·P over every state, each step a row scatter
// in ascending source order that skips exact-zero sources, and the whole
// Fox–Glynn window summed (no steady-state detection).
func denseForward(p *sparse.CSR, v []float64, w *numeric.PoissonWeights) []float64 {
	n := p.Dim()
	acc := make([]float64, n)
	cur, next := sparse.Clone(v), make([]float64, n)
	for step := 0; ; step++ {
		if step >= w.Left {
			wt := w.Weight(step)
			for s, x := range cur {
				acc[s] += wt * x
			}
		}
		if step == w.Right {
			return acc
		}
		clear(next)
		for s, x := range cur {
			if x == 0 {
				continue
			}
			cols, vals := p.RowRange(s)
			for k, t := range cols {
				next[t] += x * vals[k]
			}
		}
		cur, next = next, cur
	}
}

// TestTruncatedSweepBitwiseDense is the no-regression contract of the
// windowed sweep: untruncated, or with a threshold too small to ever drop
// an entry, its accumulator must equal the dense forward series bit for
// bit on the same matrix and Poisson table. The untruncated runs start
// from a vector with a negative entry, which a threshold test at 0 would
// drop. Steady detection is off so both sum the identical weight window.
// Through DistributionFrom an untruncated request must take the whole ε
// for Fox–Glynn, as the truncating split's ε/2 gives another window here.
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
	point := make([]float64, m.N())
	point[0] = 1
	signed := make([]float64, m.N())
	signed[0], signed[3], signed[7] = 1.25, -0.25, -1e-20
	for _, tc := range []struct {
		v   []float64
		thr float64
	}{{point, 1e-300}, {point, 0}, {signed, 0}, {signed, -1}} {
		opts := Options{Epsilon: 1e-9, SteadyDetect: SteadyOff, Truncate: tc.thr}
		dense := denseForward(p, tc.v, w)
		got, dropped, _ := sweepForward(p, tc.v, w, q, opts)
		if dropped != 0 {
			t.Fatalf("threshold %g dropped mass %g", tc.thr, dropped)
		}
		if !sameBits(got, dense) {
			t.Errorf("threshold %g: windowed sweep differs from the dense series", tc.thr)
		}
	}

	if half, err := numeric.FoxGlynn(q, 0.5e-10); err != nil || half.Right == w.Right {
		t.Fatalf("ε/2 window [%d, %d] must differ from ε's right end %d (err %v)", half.Left, half.Right, w.Right, err)
	}
	got, err := DistributionFrom(m, point, 2.5, Options{Epsilon: 1e-10, SteadyDetect: SteadyOff})
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(got, denseForward(p, point, w)) {
		t.Errorf("untruncated DistributionFrom differs from the dense series at the whole-ε window")
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
	dense := denseForward(p, v, w)
	opts := Options{Epsilon: 1e-6, SteadyDetect: SteadyOff, Truncate: 1e-9}
	got, dropped, _ := sweepForward(p, v, w, q, opts)
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
	opts := Options{Epsilon: 1e-7, Truncate: 1e-10, Env: runenv.Env{Obs: rec}}
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

// TestUntruncatedForwardChargesNoTruncation pins that a forward request
// with Truncate 0 puts no truncation term in the ledger, not even one of
// amount 0, through each forward entry point, while the Fox–Glynn terms
// are still charged.
func TestUntruncatedForwardChargesNoTruncation(t *testing.T) {
	m := birthDeath(t, 80, 1.0, 2.0)
	goal := m.Label("goal")
	for _, tc := range []struct {
		name string
		run  func(opts Options) error
	}{
		{"Distribution", func(opts Options) error {
			_, err := Distribution(m, 6.0, opts)
			return err
		}},
		{"DistributionFrom", func(opts Options) error {
			init := make([]float64, m.N())
			init[0], init[5] = 0.5, 0.5
			_, err := DistributionFrom(m, init, 6.0, opts)
			return err
		}},
		{"TimeBoundedUntilFrom", func(opts Options) error {
			_, err := TimeBoundedUntilFrom(m, goal.Complement(), goal, 0, 6.0, opts)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{Epsilon: 1e-7, Env: runenv.Env{Obs: obs.New()}}
			if err := tc.run(opts); err != nil {
				t.Fatal(err)
			}
			rep := opts.Obs.Report(opts.Epsilon)
			foxGlynn := false
			for _, c := range rep.Budget {
				switch c.Component {
				case "truncation":
					t.Errorf("untruncated request charged %s/%s = %g", c.Component, c.Term, c.Amount)
				case "foxglynn":
					foxGlynn = true
				}
			}
			if !foxGlynn {
				t.Errorf("no foxglynn ledger entry; budget: %v", rep.Budget)
			}
			if !rep.BudgetOK {
				t.Errorf("budget total %g not proved within %g", rep.BudgetTotal, opts.Epsilon)
			}
		})
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

// materialisedFrom is the oracle for the forward route: the absorbing
// model and its uniformised matrix built in full (MakeAbsorbing +
// Uniformised), and the sweep reading CSR row views, with the same rate
// choice, budget split and ledger charges as runForward.
func materialisedFrom(m *mrm.MRM, absorb *mrm.StateSet, init []float64, t float64, opts Options) ([]float64, error) {
	opts = opts.normalise()
	if absorb != nil {
		abs, err := m.MakeAbsorbing(absorb, false)
		if err != nil {
			return nil, err
		}
		m = abs
	}
	lambda := opts.Lambda
	if lambda == 0 {
		lambda = m.UniformisationRate()
	}
	p, err := m.Uniformised(lambda)
	if err != nil {
		return nil, err
	}
	fgEps, _, _ := opts.budgetSplit(opts.truncating())
	w, err := opts.poissonWeights(lambda*t, fgEps)
	if err != nil {
		return nil, err
	}
	acc, dropped, _ := sweepForward(p, init, w, lambda*t, opts)
	if opts.Obs != nil && opts.truncating() {
		opts.Obs.Charge("truncation", "state-drop", dropped)
	}
	return acc, nil
}

// sameBits reports whether two vectors are equal bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sameLedger compares the budget charges, counters and gauges of two
// reports bit for bit; span timings are left out.
func sameLedger(t *testing.T, what string, got, want *obs.Report) {
	t.Helper()
	if len(got.Budget) != len(want.Budget) {
		t.Fatalf("%s: ledger %v, oracle %v", what, got.Budget, want.Budget)
	}
	for i := range got.Budget {
		g, w := got.Budget[i], want.Budget[i]
		if g.Component != w.Component || g.Term != w.Term || math.Float64bits(g.Amount) != math.Float64bits(w.Amount) {
			t.Errorf("%s: charge %d = %+v, oracle %+v", what, i, g, w)
		}
	}
	if !reflect.DeepEqual(got.Counters, want.Counters) {
		t.Errorf("%s: counters %v, oracle %v", what, got.Counters, want.Counters)
	}
	if !reflect.DeepEqual(got.Gauges, want.Gauges) {
		t.Errorf("%s: gauges %v, oracle %v", what, got.Gauges, want.Gauges)
	}
}

// TestTruncatedRowsBitwiseMaterialised pins the lazily built rows against
// the materialised route they replace: TimeBoundedUntilFrom and truncating
// DistributionFrom must return the oracle's values and charge its ledger
// bit for bit, across thresholds that drop nothing, some or a lot, with
// the automatic rate and with an explicit opts.Lambda.
func TestTruncatedRowsBitwiseMaterialised(t *testing.T) {
	station, err := adhoc.Model()
	if err != nil {
		t.Fatal(err)
	}
	c60, err := cluster.Default(60)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := c60.Build()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		m        *mrm.MRM
		phi, psi *mrm.StateSet
		horizon  float64
		from     []int
	}{
		{"station", station, station.Label("call_idle").Union(station.Label("doze")),
			station.Label("call_initiated"), 24, []int{0, 3, station.N() - 1}},
		{"cluster60", cm, cm.Label("down").Complement(), cm.Label("down"),
			96, []int{cm.InitialState(), cm.N() / 2}},
	}
	for _, tc := range cases {
		absorb := tc.phi.Union(tc.psi).Complement().Union(tc.psi)
		for _, thr := range []float64{1e-300, 1e-14, 1e-9} {
			for _, lambdaScale := range []float64{0, 1.5} {
				opts := Options{Epsilon: 1e-8, Truncate: thr}
				if lambdaScale != 0 {
					opts.Lambda = lambdaScale * tc.m.UniformisationRate()
				}
				label := fmt.Sprintf("%s thr=%g lambda=%g", tc.name, thr, opts.Lambda)

				// DistributionFrom from the model's initial distribution.
				gotRec, wantRec := obs.New(), obs.New()
				opts.Obs = gotRec
				got, err := DistributionFrom(tc.m, tc.m.InitView(), tc.horizon, opts)
				if err != nil {
					t.Fatal(err)
				}
				opts.Obs = wantRec
				want, err := materialisedFrom(tc.m, nil, tc.m.InitView(), tc.horizon, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !sameBits(got, want) {
					t.Errorf("%s: DistributionFrom differs from the materialised route", label)
				}
				sameLedger(t, label+" DistributionFrom", gotRec.Report(opts.Epsilon), wantRec.Report(opts.Epsilon))

				for _, from := range tc.from {
					gotRec, wantRec := obs.New(), obs.New()
					opts.Obs = gotRec
					got, err := TimeBoundedUntilFrom(tc.m, tc.phi, tc.psi, from, tc.horizon, opts)
					if err != nil {
						t.Fatal(err)
					}
					opts.Obs = wantRec
					init := make([]float64, tc.m.N())
					init[from] = 1
					dist, err := materialisedFrom(tc.m, absorb, init, tc.horizon, opts)
					if err != nil {
						t.Fatal(err)
					}
					var want float64
					tc.psi.Each(func(s int) { want += dist[s] })
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("%s from=%d: TimeBoundedUntilFrom %v, materialised %v", label, from, got, want)
					}
					sameLedger(t, fmt.Sprintf("%s from=%d", label, from), gotRec.Report(opts.Epsilon), wantRec.Report(opts.Epsilon))
				}
			}
		}
	}
}

// TestTruncatedRateChecks pins the rate validation of the truncated route
// to the materialised one: an explicit λ below an exit rate outside the
// absorbing set is an error, one below only absorbed exit rates is not.
func TestTruncatedRateChecks(t *testing.T) {
	m := birthDeath(t, 10, 1.0, 2.0) // largest exit rate 3
	psi := m.Label("goal")
	phi := psi.Complement()
	opts := Options{Epsilon: 1e-9, Truncate: 1e-14, Lambda: 1.0}
	if _, err := TimeBoundedUntilFrom(m, phi, psi, 0, 2, opts); err == nil {
		t.Errorf("λ = 1 below the exit rate 3 accepted")
	}
	opts.Lambda = -1
	if _, err := DistributionFrom(m, m.InitView(), 2, opts); err == nil {
		t.Errorf("negative λ accepted")
	}
	all := mrm.NewStateSet(m.N()).Complement()
	opts.Lambda = 0.5
	got, err := runForward(m, all, m.InitView(), 2, opts)
	if err != nil {
		t.Fatalf("λ = 0.5 with every state absorbing: %v", err)
	}
	want, err := materialisedFrom(m, all, m.InitView(), 2, opts)
	if err != nil {
		t.Fatalf("oracle, λ = 0.5 with every state absorbing: %v", err)
	}
	if !sameBits(got, want) {
		t.Errorf("all-absorbing chain: %v, oracle %v", got[:3], want[:3])
	}
}
