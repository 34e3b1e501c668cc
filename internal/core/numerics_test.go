package core

import (
	"math"
	"testing"

	"github.com/performability/csrl/internal/adhoc"
	"github.com/performability/csrl/internal/logic"
	"github.com/performability/csrl/internal/mrm"
	"github.com/performability/csrl/internal/obs"
)

// TestExpNegRejectsNaN pins the error path of the next-operator window
// helper: the historical version returned math.Exp(-NaN) = NaN, which
// poisons every downstream threshold comparison (a NaN probability fails
// all bounds, silently emptying the Sat set).
func TestExpNegRejectsNaN(t *testing.T) {
	if _, err := expNeg(math.NaN()); err == nil {
		t.Error("expNeg(NaN) must error, not propagate NaN")
	}
	if v, err := expNeg(math.Inf(1)); err != nil || v != 0 {
		t.Errorf("expNeg(+Inf) = %v, %v; want 0, nil", v, err)
	}
	if v, err := expNeg(0); err != nil || v != 1 {
		t.Errorf("expNeg(0) = %v, %v; want 1, nil", v, err)
	}
	if v, err := expNeg(2); err != nil || math.Abs(v-math.Exp(-2)) > 1e-16 {
		t.Errorf("expNeg(2) = %v, %v", v, err)
	}
}

// dualBranchModel is a 3-state chain 0 --1--> 1 --1--> 2 (absorbing) with
// rewards 2, 1, 1 — chosen so that the satisfaction set of the nested
// formula P>=0.5[X{t<=1} b] DIFFERS between the primal model and its dual:
// primal state 0 jumps at rate 1 (hit probability 1−e⁻¹ ≈ 0.632 ≥ 0.5),
// dual state 0 jumps at rate 1/ρ₀ = 0.5 (1−e^{−0.5} ≈ 0.393 < 0.5).
func dualBranchModel(t *testing.T) *mrm.MRM {
	t.Helper()
	b := mrm.NewBuilder(3)
	b.Rate(0, 1, 1).Rate(1, 2, 1)
	b.Reward(0, 2).Reward(1, 1).Reward(2, 1)
	b.Label(1, "b").Label(2, "c")
	b.InitialState(0)
	m, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return m
}

// TestRewardIntervalUsesPrimalSats pins that the reward-interval branch of
// probUntil evaluates Φ and Ψ on the PRIMAL model and hands the resulting
// state-index sets to the dual checker. The sets are index sets, so they
// transfer across the duality transform (which preserves state identity);
// re-deriving them on the dual model would be wrong whenever a nested
// probabilistic subformula depends on the rates. Here Sat(Φ) = {0} on the
// primal but ∅ on the dual: with primal sets the value from state 0 is
// Pr{2T ∈ [1,2], T ~ Exp(1)} = e^{−1/2} − e^{−1}; with dual-derived sets
// it would be 0 (state 0 in neither Φ nor Ψ).
func TestRewardIntervalUsesPrimalSats(t *testing.T) {
	c := New(dualBranchModel(t), DefaultOptions())
	vals, err := c.Values(logic.MustParse("P=? [ (P>=0.5 [ X{t<=1} b ]) U{r in [1,2]} (b | c) ]"))
	if err != nil {
		t.Fatal(err)
	}
	want := math.Exp(-0.5) - math.Exp(-1)
	if math.Abs(vals[0]-want) > 1e-9 {
		t.Errorf("value from state 0 = %v, want e^{-1/2}-e^{-1} = %v (0 would mean Φ was recomputed on the dual)", vals[0], want)
	}
}

// TestNumericsReportProvesBudget runs one time-bounded check with a
// recorder attached and asserts the aggregate report: the ledgered
// truncation charges must sum to at most the configured ε, and the memo,
// pool and sweep instruments must have registered the work.
func TestNumericsReportProvesBudget(t *testing.T) {
	opts := DefaultOptions()
	opts.Obs = obs.New()
	c := New(tinyModel(t), opts)
	if _, err := c.Values(logic.MustParse("P=? [ a U{t<=2} c ]")); err != nil {
		t.Fatal(err)
	}
	rep := c.NumericsReport()
	if rep == nil {
		t.Fatal("report must be non-nil when a recorder is configured")
	}
	if !rep.BudgetOK {
		t.Errorf("budget %g must be within eps %g:\n%s", rep.BudgetTotal, opts.Epsilon, rep.Format())
	}
	if rep.BudgetTotal <= 0 {
		t.Error("a uniformisation run must ledger positive truncation mass")
	}
	if len(rep.Budget) == 0 {
		t.Error("no bounded ledger entries recorded")
	}
	if rep.Counters["sweep.products"] == 0 {
		t.Error("sweep.products counter not recorded")
	}
	if rep.Gauges["foxglynn.window"] == 0 {
		t.Error("foxglynn.window gauge not recorded")
	}
	if _, ok := rep.Gauges["memo.misses"]; !ok {
		t.Error("memo stats not folded into the report")
	}
	if _, ok := rep.Gauges["pool.gets"]; !ok {
		t.Error("pool stats not folded into the report")
	}
	// Present even when every region ran inline (0 on a 1-CPU machine).
	if _, ok := rep.Gauges["parallel.chunks"]; !ok {
		t.Error("parallel chunk count not folded into the report")
	}

	// A second identical query hits the memo; the hit-rate is visible.
	if _, err := c.Values(logic.MustParse("P=? [ a U{t<=2} c ]")); err != nil {
		t.Fatal(err)
	}
	rep = c.NumericsReport()
	if rep.Gauges["memo.hits"] == 0 {
		t.Errorf("repeated query must hit the memo: %v", rep.Gauges)
	}

	// A checker without a recorder reports nil — the disabled fast path.
	if r := New(tinyModel(t), DefaultOptions()).NumericsReport(); r != nil {
		t.Errorf("nil-Obs checker must report nil, got %+v", r)
	}
}

// TestRecordedQ3StatsDeterministic pins the observability contract of one
// recorded checker evaluating the paper's Q3 query three times: the first
// evaluation proves a positive error budget within ε, the repeats replay
// every lookup the first one missed (so at least 2/3 of all memo lookups
// hit), and the memo and pool counters are identical run to run.
func TestRecordedQ3StatsDeterministic(t *testing.T) {
	type stats struct {
		hits, misses, gets, reuses float64
	}
	run := func() stats {
		m, err := adhoc.Model()
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		opts.Workers = 1
		opts.Obs = obs.New()
		c := New(m, opts)
		f := logic.MustParse("P=? [ (call_idle | doze) U{t<=24, r<=600} call_initiated ]")
		for i := 0; i < 3; i++ {
			if _, err := c.Values(f); err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				rep := c.NumericsReport()
				if !rep.BudgetOK || rep.BudgetTotal <= 0 {
					t.Errorf("first evaluation must ledger a positive budget within eps: total %g ok %v", rep.BudgetTotal, rep.BudgetOK)
				}
			}
		}
		g := c.NumericsReport().Gauges
		return stats{g["memo.hits"], g["memo.misses"], g["pool.gets"], g["pool.reuses"]}
	}
	st := run()
	if st.hits == 0 || st.misses == 0 {
		t.Errorf("the workload must both miss (run 1) and hit (runs 2-3) the memo: %+v", st)
	}
	// hits/(hits+misses) ≥ 2/3, in exact integer form.
	if st.hits < 2*st.misses {
		t.Errorf("memo hit-rate %.3f below the structural floor 2/3", st.hits/(st.hits+st.misses))
	}
	if again := run(); again != st {
		t.Errorf("recorded workload not deterministic:\n  %+v\n  %+v", st, again)
	}
}
