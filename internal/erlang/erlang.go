// Package erlang implements the pseudo-Erlang approximation of Section 4.2
// of the paper: the deterministic reward bound r of a P3-type property is
// approximated by an Erlang-k distributed bound with mean r. Earning reward
// is modelled as advancing through k phases at rate ρ(s)·k/r; completing
// phase k corresponds to hitting the absorbing reward barrier of Figure 1.
// The expanded model is a plain CTMC of |S|·k+1 states solved by standard
// transient analysis, so the machinery of P2/P1 properties applies
// unchanged.
package erlang

import (
	"fmt"
	"math"
	"strconv"

	"github.com/performability/csrl/internal/mrm"
	"github.com/performability/csrl/internal/transient"
)

// Expansion is the Erlang-k expanded CTMC of an MRM together with the
// bookkeeping needed to map results back to the original model.
type Expansion struct {
	// Model is the expanded CTMC (rewards all zero; they have been encoded
	// as phase transitions).
	Model *mrm.MRM
	// K is the number of Erlang phases.
	K int
	// Barrier is the index of the absorbing reward-barrier state.
	Barrier int
	// n is the original state count.
	n int
}

// StateIndex returns the expanded index of original state s in phase i.
func (e *Expansion) StateIndex(s, i int) int { return s*e.K + i }

// Expand builds the Erlang-k expansion of m for reward bound r.
//
//numerics:domain r=rate
func Expand(m *mrm.MRM, r float64, k int) (*Expansion, error) {
	if k < 1 {
		return nil, fmt.Errorf("erlang: phase count k=%d must be ≥ 1", k)
	}
	if !(r > 0) { // NaN included: its phase rate k/r would be NaN
		return nil, fmt.Errorf("erlang: reward bound r=%v must be positive", r)
	}
	if m.HasImpulses() {
		return nil, fmt.Errorf("erlang: %w", mrm.ErrImpulsesUnsupported)
	}
	n := m.N()
	total := n*k + 1
	barrier := n * k
	b := mrm.NewBuilder(total)
	phaseRate := float64(k) / r
	// Each row is emitted in increasing column order, so the rate matrix
	// is assembled without a sort: a transition to state t in phase i sits
	// at t·k+i, below the row's own index for t < s and above its phase
	// advance s·k+i+1 for t > s, and the barrier is the last column.
	for s := 0; s < n; s++ {
		mu := m.Reward(s) * phaseRate
		cols, vals := m.Rates().RowRange(s)
		prefix := m.Name(s) + "#"
		for i := 0; i < k; i++ {
			idx := s*k + i
			b.Name(idx, prefix+strconv.Itoa(i))
			// Reward accumulation advances the phase; CTMC transitions
			// stay within it.
			advance := mu > 0 && i < k-1
			for j, tgt := range cols {
				if advance && tgt > s {
					b.Rate(idx, idx+1, mu)
					advance = false
				}
				if v := vals[j]; v != 0 {
					b.Rate(idx, tgt*k+i, v)
				}
			}
			if advance {
				b.Rate(idx, idx+1, mu)
			}
			if mu > 0 && i == k-1 {
				b.Rate(idx, barrier, mu)
			}
		}
	}
	b.Name(barrier, "barrier")
	// Initial distribution: original α placed in phase 0.
	for s, p := range m.InitView() {
		if p > 0 {
			b.InitialProb(s*k+0, p)
		}
	}
	em, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("erlang: expansion: %w", err)
	}
	return &Expansion{Model: em, K: k, Barrier: barrier, n: n}, nil
}

// GoalSet lifts a goal set of the original model to the expansion: a goal
// state in any phase counts (the barrier never does).
func (e *Expansion) GoalSet(goal *mrm.StateSet) *mrm.StateSet {
	lifted := mrm.NewStateSet(e.Model.N())
	goal.Each(func(s int) {
		for i := 0; i < e.K; i++ {
			lifted.Add(e.StateIndex(s, i))
		}
	})
	return lifted
}

// Options configures the approximation.
type Options struct {
	// K is the number of Erlang phases (§4.2: "an appropriate value for k
	// is not known a priori"; Table 3 sweeps it).
	K int
	// Transient configures the inner uniformisation; its Workers field
	// also sets the parallelism of this procedure (the expanded |S|·k+1
	// model makes the uniformisation sweeps the entire cost), and its
	// SteadyDetect and Pool fields flow straight through — steady-state
	// detection pays off particularly well here, since the absorbing
	// barrier makes long sweeps converge before the Fox–Glynn window
	// closes. Leave its Cache nil: the expansion is a fresh model per
	// call, so a pointer-keyed matrix cache can never hit.
	Transient transient.Options
}

// DefaultOptions matches the accuracy regime of Table 3's larger k values.
func DefaultOptions() Options {
	return Options{K: 256, Transient: transient.DefaultOptions()}
}

// ReachProbAll approximates Pr_s{Y_t ≤ r, X_t ∈ goal} for every original
// state s (the quantity of Theorem 2) using the Erlang-k reward bound.
// The caller is expected to pass a model already reduced per Theorem 1
// (goal states absorbing with reward zero), though the computation is
// well-defined for any MRM.
//
//numerics:domain prob t=rate r=rate
func ReachProbAll(m *mrm.MRM, goal *mrm.StateSet, t, r float64, opts Options) ([]float64, error) {
	if opts.K == 0 {
		opts.K = DefaultOptions().K
	}
	if goal.Universe() != m.N() {
		return nil, fmt.Errorf("erlang: goal universe %d for %d states", goal.Universe(), m.N())
	}
	e, err := Expand(m, r, opts.K)
	if err != nil {
		return nil, err
	}
	// The Erlang-k bound has mean r and coefficient of variation 1/√k — the
	// scheme's approximation order (§4.2 gives no computable error bound for
	// it, hence an indicative entry, not part of the ≤ ε proof). The inner
	// uniformisation charges its own truncation masses through Transient.Obs.
	opts.Transient.Obs.Gauge("erlang.k").SetMax(float64(opts.K))
	opts.Transient.Obs.ChargeIndicative("erlang", "k-approximation", 1/math.Sqrt(float64(opts.K)))
	all, err := transient.ReachProbAll(e.Model, e.GoalSet(goal), t, opts.Transient)
	if err != nil {
		return nil, fmt.Errorf("erlang: transient analysis: %w", err)
	}
	out := make([]float64, m.N())
	for s := range out {
		out[s] = all[e.StateIndex(s, 0)]
	}
	// The (|S|·k+1)-sized expansion vector is pool-born when a pool is
	// configured and dead once projected; check it back in.
	opts.Transient.Pool.Put(all)
	return out, nil
}

// ReachProb approximates the Theorem 2 quantity from the model's initial
// distribution.
//
//numerics:domain prob t=rate r=rate
func ReachProb(m *mrm.MRM, goal *mrm.StateSet, t, r float64, opts Options) (float64, error) {
	per, err := ReachProbAll(m, goal, t, r, opts)
	if err != nil {
		return 0, err
	}
	var v float64
	for s, p := range m.InitView() {
		v += p * per[s]
	}
	return v, nil
}
