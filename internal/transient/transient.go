// Package transient implements transient analysis of CTMCs by
// uniformisation (Jensen's randomisation, refs [12, 17] of the paper):
// π(t) = Σ_n PoissonPMF(λt; n) · α·Pⁿ with Fox–Glynn weights. The backward
// variant (reachability probabilities for all start states in one sweep
// of a terminal vector over the uniformised matrix) is the work-horse for
// P1-type time-bounded until formulas. The forward variant (the
// distribution at time t from an initial distribution) is a windowed sweep
// that reads only the rows of the states its iterate reaches, and can drop
// negligible states within a ledgered share of the budget
// (Options.Truncate).
package transient

import (
	"fmt"

	"github.com/performability/csrl/internal/mrm"
	"github.com/performability/csrl/internal/numeric"
	"github.com/performability/csrl/internal/obs"
	"github.com/performability/csrl/internal/sparse"
)

// Cache memoises the model-independent intermediates of uniformisation.
// Implementations must be safe for concurrent use; a nil Cache (or a nil
// concrete value behind the interface) disables memoisation. The concrete
// implementation lives in internal/core so this package stays leaf-level.
type Cache interface {
	// Uniformised returns the uniformised DTMC matrix of m at rate lambda,
	// computing and retaining it on first use.
	Uniformised(m *mrm.MRM, lambda float64) (*sparse.CSR, error)
	// Poisson returns the Fox–Glynn weight table for Poisson parameter q
	// and truncation budget eps, computing and retaining it on first use.
	// The table drops the Poisson tails outside the Fox–Glynn window, so
	// callers owe the ledger both tail charges.
	//numerics:truncates foxglynn/left-tail foxglynn/right-tail
	Poisson(q, eps float64) (*numeric.PoissonWeights, error)
	// Absorbing returns the model with the given set made absorbing,
	// deriving and retaining it on first use. Derived models are shared
	// between callers and must be treated as immutable. Without this, the
	// until procedures rebuild the restricted model per call and its fresh
	// pointer defeats the Uniformised memo. Only the backward routes use
	// it: the forward sweep reads the absorbing rows from the base model
	// on demand and derives no model.
	Absorbing(m *mrm.MRM, set *mrm.StateSet, zeroReward bool) (*mrm.MRM, error)
}

// SteadyMode controls steady-state detection in the uniformisation sweeps:
// once the iterate stops moving, every further Pⁿ application is a no-op
// and the remaining Poisson tail can be charged to the converged vector in
// one step. The zero value enables detection, so existing Options literals
// pick it up automatically; SteadyOff restores the full Fox–Glynn sweep.
type SteadyMode int

const (
	// SteadyAuto is the default: detection enabled.
	SteadyAuto SteadyMode = iota
	// SteadyOff disables detection; the full weight window is summed.
	SteadyOff
)

// enabled reports whether the mode turns detection on.
func (s SteadyMode) enabled() bool { return s != SteadyOff }

// Options controls uniformisation.
type Options struct {
	// Epsilon is the truncation error budget for the Poisson series.
	Epsilon float64
	// Lambda overrides the uniformisation rate; 0 selects
	// MRM.UniformisationRate automatically.
	Lambda float64
	// Workers bounds the parallelism of the backward sweeps' matrix
	// products: 0 = runtime.GOMAXPROCS(0), 1 = sequential. Results are
	// bitwise identical at every value. The forward sweep runs sequentially
	// and ignores it.
	Workers int
	// Truncate, when positive, turns on truncation in the forward sweep:
	// after each uniformisation step, active states whose probability mass
	// lies below the threshold are dropped from the sweep window, as long
	// as the total dropped mass stays within the ledgered share of Epsilon
	// (budgetSplit reserves a third of the budget for it; the exact dropped
	// mass is charged to the truncation/state-drop ledger term). The
	// iterate of a forward sweep is a sub-distribution, so the dropped mass
	// directly bounds the ℓ1 error of the result. Any other value — zero
	// (the default), negative or NaN — disables truncation: no state is
	// dropped and the budget split is that of an untruncated sweep.
	// Backward sweeps ignore the field:
	// their iterate is not a distribution and small entries carry no mass
	// bound.
	Truncate float64
	// SteadyDetect controls steady-state detection: when the sweep iterate
	// moves by less than (ε/2)/(λt) in the ∞-norm, the remaining Poisson
	// tail is charged to the converged vector and the sweep stops early.
	// The default (zero value) is on; Epsilon is then split evenly between
	// the Fox–Glynn truncation and the detection tail so the combined error
	// stays within ε (see DESIGN.md for the tail bound). Detection is
	// deterministic, so results stay bitwise independent of Workers either
	// way.
	SteadyDetect SteadyMode
	// Cache, when non-nil, memoises uniformised matrices and Fox–Glynn
	// weight tables across calls.
	Cache Cache
	// Pool, when non-nil, supplies the sweep scratch vectors and the result
	// accumulator. The two scratch vectors are returned to the pool before
	// the sweep returns; ownership of the pool-born result slice transfers
	// to the caller, who may Put it back once dead or simply drop it.
	Pool *sparse.VecPool
	// Obs, when non-nil, receives the numerics-observability signals of
	// every sweep: the Fox–Glynn truncation masses and the steady-state
	// tail charge in the error-budget ledger, product/window counters and
	// the uniformise/sweep spans. Nil (the default) compiles the
	// instrumentation down to pointer comparisons.
	Obs *obs.Recorder
}

// DefaultOptions returns the accuracy used throughout the test-suite.
func DefaultOptions() Options { return Options{Epsilon: 1e-12} }

func (o Options) normalise() Options {
	if o.Epsilon <= 0 {
		o.Epsilon = 1e-12
	}
	return o
}

// uniformised returns the uniformised DTMC matrix, consulting the cache
// when one is configured.
func (o Options) uniformised(m *mrm.MRM, lambda float64) (*sparse.CSR, error) {
	if o.Cache != nil {
		return o.Cache.Uniformised(m, lambda)
	}
	return m.Uniformised(lambda)
}

// absorbing returns the model with set made absorbing, consulting the
// cache when one is configured.
func (o Options) absorbing(m *mrm.MRM, set *mrm.StateSet, zeroReward bool) (*mrm.MRM, error) {
	if o.Cache != nil {
		return o.Cache.Absorbing(m, set, zeroReward)
	}
	return m.MakeAbsorbing(set, zeroReward)
}

// truncating reports whether a forward sweep drops states: Truncate is
// positive.
func (o Options) truncating() bool { return o.Truncate > 0 }

// budgetSplit divides Epsilon among the truncation error sources active in
// a sweep: the Fox–Glynn series truncation, steady-state detection, and —
// for a truncating forward sweep, which the truncating parameter
// declares — the state-drop truncation. Every active source gets an equal
// share (halves for two, thirds for three), and a solo Fox–Glynn leg keeps
// the whole budget, so configurations that existed before truncation keep
// their exact historical split and their bitwise-identical results. The
// even split exists for the same reason as the original ε/2 one: each
// source charges its real mass to the ledger, and the shares must sum to
// at most ε for the advertised bound to hold.
func (o Options) budgetSplit(truncating bool) (fgEps, steadyEps, truncEps float64) {
	steady := o.SteadyDetect.enabled()
	switch {
	case steady && truncating:
		return o.Epsilon / 3, o.Epsilon / 3, o.Epsilon / 3
	case steady:
		return o.Epsilon / 2, o.Epsilon / 2, 0
	case truncating:
		return o.Epsilon / 2, 0, o.Epsilon / 2
	default:
		return o.Epsilon, 0, 0
	}
}

// poissonWeights returns the Fox–Glynn table for truncation budget fgEps,
// consulting the cache when one is configured, and ledgers the table's
// truncation masses — the cache stores the masses with the table, so hits
// charge the same amounts as the original computation.
func (o Options) poissonWeights(q, fgEps float64) (*numeric.PoissonWeights, error) {
	var w *numeric.PoissonWeights
	var err error
	if o.Cache != nil {
		w, err = o.Cache.Poisson(q, fgEps)
	} else {
		w, err = numeric.FoxGlynn(q, fgEps)
	}
	if err != nil {
		return nil, err
	}
	if o.Obs != nil {
		o.Obs.Charge("foxglynn", "left-tail", w.LeftTailMass)
		o.Obs.Charge("foxglynn", "right-tail", w.RightTailMass)
		o.Obs.Gauge("foxglynn.window").SetMax(float64(w.Right - w.Left + 1))
	}
	return w, nil
}

// sweep evaluates the backward uniformisation series Σ_n w(n)·vₙ with
// v₀ = v and vₙ₊₁ = P·vₙ. It returns the accumulator and the number of
// matrix passes applied. Each step is one sparse.SweepPlan step: the
// product, the accumulate of the current iterate (inside the Fox–Glynn
// window) and the steady-test difference in one pass, with the fixed rows
// left out of the product. The step loop runs inside the plan's Sweep, so
// a plan that fans out keeps one team of helpers for the whole loop. The
// plan keeps the arithmetic order of the sequential vector product, so
// the result is bitwise the same at every workers value.
//
// Steady-state detection: P is stochastic, so the iteration is
// non-expansive in the ∞-norm. Once one application moves the iterate by
// δ' < δ = (ε/2)/q (q = λt), every later iterate vₙ₊ₖ stays within k·δ'
// of the converged vector, and charging the whole remaining Poisson tail
// to it mis-weights the series by at most Σ_k w(n+k)·k·δ' ≤ E[N]·δ ≈
// q·δ = ε/2 — the half of the budget that budgetSplit reserved for it
// (the Fox–Glynn truncation holds the other half). The ledger records the
// sharper measured charge δ'·Σ_k (k−n)·w(k) rather than the worst case.
// The tail mass and the convergence test are computed identically for
// every Workers value, so the early exit preserves bitwise determinism
// across worker counts.
//
// The scratch vectors come from opts.Pool (nil-safe) and are returned to
// it; the accumulator is pool-born and handed to the caller.
func sweep(p *sparse.CSR, v []float64, w *numeric.PoissonWeights, q float64, opts Options) ([]float64, int) {
	n := p.Dim()
	pool := opts.Pool
	plan := sparse.NewSweepPlan(p, opts.Workers)
	cur := pool.Get(n)
	copy(cur, v)
	next := pool.Get(n)
	plan.Seed(next, cur)
	acc := pool.Get(n)
	detect := opts.SteadyDetect.enabled()
	_, steadyEps, _ := opts.budgetSplit(false)
	delta := steadyEps / q
	products := 0
	plan.Sweep(func() {
		for step := 0; step <= w.Right; step++ {
			if step == w.Right {
				sparse.AXPY(w.Weight(step), cur, acc)
				break
			}
			// One pass: next = P·cur, the accumulate of cur once inside the
			// window, and the steady-test difference.
			var stepAcc []float64
			if step >= w.Left {
				stepAcc = acc
			}
			diff := plan.Step(next, cur, w.Weight(step), stepAcc)
			products++
			if detect && diff < delta {
				// Converged: charge the remaining Poisson mass to the fixed
				// point instead of applying w.Right − step more no-op
				// products. kSum = Σ (k − step)·w(k) weights the measured step
				// size diff into the exact series mis-weighting this shortcut
				// causes.
				var tail, kSum float64
				for k := step + 1; k <= w.Right; k++ {
					tail += w.Weight(k)
					kSum += float64(k-step) * w.Weight(k)
				}
				sparse.AXPY(tail, next, acc)
				if opts.Obs != nil {
					opts.Obs.Counter("steady.detections").Inc()
					opts.Obs.Charge("steady", "tail-charge", diff*kSum)
				}
				break
			}
			cur, next = next, cur
		}
	})
	pool.Put(cur)
	pool.Put(next)
	if opts.Obs != nil {
		opts.Obs.Counter("sweep.products").Add(int64(products))
	}
	return acc, products
}

// Distribution returns the transient state distribution π(t) of the model's
// CTMC starting from its initial distribution α.
//
//numerics:domain prob t=rate
func Distribution(m *mrm.MRM, t float64, opts Options) ([]float64, error) {
	return DistributionFrom(m, m.InitView(), t, opts)
}

// DistributionFrom returns π(t) starting from the given distribution.
// When opts.Pool is set the returned slice is pool-born; ownership
// transfers to the caller.
//
//numerics:domain prob init=prob t=rate
func DistributionFrom(m *mrm.MRM, init []float64, t float64, opts Options) ([]float64, error) {
	return runForward(m, nil, init, t, opts)
}

// ReachProbAll returns, for every state s, the probability that the CTMC is
// in the goal set at time t when started in s:
// result[s] = Pr_s{X_t ∈ goal}. Combined with making states absorbing this
// computes time-bounded until probabilities (P1 procedure, ref [3]).
//
//numerics:domain prob t=rate
func ReachProbAll(m *mrm.MRM, goal *mrm.StateSet, t float64, opts Options) ([]float64, error) {
	if goal.Universe() != m.N() {
		return nil, fmt.Errorf("transient: goal universe %d for %d states", goal.Universe(), m.N())
	}
	return BackwardWeighted(m, goal.Indicator(), t, opts)
}

// BackwardWeighted returns, for every state s, the expectation
// result[s] = Σ_j Pr_s{X_t = j}·v[j], i.e. one backward uniformisation
// sweep applied to the terminal weight vector v. This generalisation is
// used for interval-bounded until (two-phase computation). When opts.Pool
// is set the returned slice is pool-born; ownership transfers to the
// caller.
//
//numerics:domain t=rate
func BackwardWeighted(m *mrm.MRM, v []float64, t float64, opts Options) ([]float64, error) {
	opts = opts.normalise()
	if len(v) != m.N() {
		return nil, fmt.Errorf("transient: vector length %d for %d states", len(v), m.N())
	}
	if t < 0 {
		return nil, fmt.Errorf("transient: negative time bound %v", t)
	}
	if t == 0 {
		return sparse.Clone(v), nil
	}
	lambda := opts.Lambda
	if lambda == 0 {
		lambda = m.UniformisationRate()
	}
	span := opts.Obs.StartSpan("transient.uniformise")
	p, err := opts.uniformised(m, lambda)
	if err != nil {
		return nil, fmt.Errorf("transient: %w", err)
	}
	fgEps, _, _ := opts.budgetSplit(false)
	w, err := opts.poissonWeights(lambda*t, fgEps)
	span.End()
	if err != nil {
		return nil, fmt.Errorf("transient: %w", err)
	}
	span = opts.Obs.StartSpan("transient.sweep")
	defer span.End()
	acc, _ := sweep(p, v, w, lambda*t, opts)
	return acc, nil
}

// runForward is the shared body of the forward requests: argument checks,
// then the windowed sweep of v. absorb, when non-nil, is a set of states
// the sweep treats as absorbing. No absorbing model and no uniformised
// matrix are built. The rate is the one the materialised matrix would use
// — opts.Lambda, else UniformisationRate of the model with absorb made
// absorbing — and the sweep reads P through uniformRows, so the result is
// bitwise the windowed sweep over MakeAbsorbing + Uniformised. The rate
// scan and Fox–Glynn run inside the uniformise span, the row arena and
// the sweep inside the sweep span.
func runForward(m *mrm.MRM, absorb *mrm.StateSet, v []float64, t float64, opts Options) ([]float64, error) {
	opts = opts.normalise()
	if len(v) != m.N() {
		return nil, fmt.Errorf("transient: vector length %d for %d states", len(v), m.N())
	}
	if absorb != nil && absorb.Universe() != m.N() {
		return nil, fmt.Errorf("transient: %w: absorbing set universe %d for %d states", mrm.ErrModel, absorb.Universe(), m.N())
	}
	if t < 0 {
		return nil, fmt.Errorf("transient: negative time bound %v", t)
	}
	if t == 0 {
		return sparse.Clone(v), nil
	}
	span := opts.Obs.StartSpan("transient.uniformise")
	lambda := opts.Lambda
	if lambda == 0 {
		lambda = m.UniformisationRateAbsorbing(absorb)
	} else if err := m.CheckUniformisationRate(lambda, absorb); err != nil {
		span.End()
		return nil, fmt.Errorf("transient: %w", err)
	}
	fgEps, _, _ := opts.budgetSplit(opts.truncating())
	w, err := opts.poissonWeights(lambda*t, fgEps)
	span.End()
	if err != nil {
		return nil, fmt.Errorf("transient: %w", err)
	}
	span = opts.Obs.StartSpan("transient.sweep")
	defer span.End()
	rows := newUniformRows(m, absorb, lambda)
	//lint:ignore ledgercharge an untruncated sweep drops no mass, so only a truncating one charges the state-drop term below
	acc, dropped, _ := sweepForward(rows, v, w, lambda*t, opts)
	if opts.Obs != nil {
		// An untruncated sweep drops nothing and owes no state-drop term.
		if opts.truncating() {
			opts.Obs.Charge("truncation", "state-drop", dropped)
		}
	}
	return acc, nil
}

// TimeBoundedUntil computes Pr_s{Φ U^{≤t} Ψ} for every state s: the P1
// procedure of the paper (§3): make Ψ and ¬(Φ∨Ψ) states absorbing, then a
// transient analysis at time t decides the formula.
//
//numerics:domain prob t=rate
func TimeBoundedUntil(m *mrm.MRM, phi, psi *mrm.StateSet, t float64, opts Options) ([]float64, error) {
	absorb := phi.Union(psi).Complement().Union(psi)
	abs, err := opts.absorbing(m, absorb, false)
	if err != nil {
		return nil, fmt.Errorf("transient: until: %w", err)
	}
	res, err := ReachProbAll(abs, psi, t, opts)
	if err != nil {
		return nil, fmt.Errorf("transient: until: %w", err)
	}
	// Ψ-states satisfy the until trivially (t ≥ 0) — already 1 by the
	// absorbing construction; ¬(Φ∨Ψ) states are exactly 0 likewise.
	return res, nil
}
