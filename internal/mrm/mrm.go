// Package mrm implements Markov reward models (MRMs): finite labelled
// continuous-time Markov chains equipped with a state-based reward
// structure, as defined in Section 2.1 of the paper. An MRM is the tuple
// M = (S, R, ρ) together with a labelling of states by atomic propositions
// and an initial distribution α.
package mrm

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/performability/csrl/internal/sparse"
)

// MRM is an immutable Markov reward model. Construct one with a Builder.
type MRM struct {
	n      int
	rates  *sparse.CSR // R: rate matrix, R(s,s') ≥ 0, zero diagonal
	exit   []float64   // E(s) = Σ_{s'} R(s,s')
	reward []float64   // ρ: state reward (gain) rates, ≥ 0
	init   []float64   // α: initial distribution
	names  []string    // optional human-readable state names
	labels map[string]*StateSet
	// impulses is the optional impulse-reward matrix ι (nil = none);
	// see impulse.go.
	impulses *sparse.CSR
}

var (
	// ErrState reports a state index outside the model.
	ErrState = errors.New("mrm: state index out of range")
	// ErrModel reports an inconsistency in model construction.
	ErrModel = errors.New("mrm: invalid model")
)

// N returns the number of states.
func (m *MRM) N() int { return m.n }

// Rates returns the rate matrix R (shared, do not modify).
func (m *MRM) Rates() *sparse.CSR { return m.rates }

// ExitRate returns E(s), the total rate out of state s.
func (m *MRM) ExitRate(s int) float64 { return m.exit[s] }

// ExitRates returns a copy of the exit-rate vector E.
func (m *MRM) ExitRates() []float64 { return sparse.Clone(m.exit) }

// ExitRatesView returns the exit-rate vector E (shared, do not modify).
// The no-copy view exists for the internal sweep loops, which read the
// vector once per call on their hot path; external callers should prefer
// ExitRates.
//
//lint:ignore aliasret sharing is the documented contract of the View accessors; callers must not modify
func (m *MRM) ExitRatesView() []float64 { return m.exit }

// Reward returns ρ(s).
func (m *MRM) Reward(s int) float64 { return m.reward[s] }

// Rewards returns a copy of the reward vector ρ.
func (m *MRM) Rewards() []float64 { return sparse.Clone(m.reward) }

// RewardsView returns the reward vector ρ (shared, do not modify). See
// ExitRatesView for the sharing contract.
//
//lint:ignore aliasret sharing is the documented contract of the View accessors; callers must not modify
func (m *MRM) RewardsView() []float64 { return m.reward }

// MaxReward returns max_s ρ(s).
func (m *MRM) MaxReward() float64 {
	var mx float64
	for _, r := range m.reward {
		if r > mx {
			mx = r
		}
	}
	return mx
}

// DistinctRewards returns the sorted distinct reward values of the model.
func (m *MRM) DistinctRewards() []float64 {
	seen := make(map[float64]bool, len(m.reward))
	var out []float64
	for _, r := range m.reward {
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	sort.Float64s(out)
	return out
}

// Init returns a copy of the initial distribution α.
func (m *MRM) Init() []float64 { return sparse.Clone(m.init) }

// InitView returns the initial distribution α (shared, do not modify). See
// ExitRatesView for the sharing contract.
//
//lint:ignore aliasret sharing is the documented contract of the View accessors; callers must not modify
func (m *MRM) InitView() []float64 { return m.init }

// InitialState returns the unique initial state if α is a point mass,
// or -1 otherwise.
func (m *MRM) InitialState() int {
	idx := -1
	for s, a := range m.init {
		if a > 0 {
			if idx != -1 {
				return -1
			}
			//lint:ignore floatcmp a point mass is stored as exactly 1 by the Builder; any other value means a proper distribution
			if a != 1 {
				return -1
			}
			idx = s
		}
	}
	return idx
}

// Name returns the state's name ("s<i>" when unnamed).
func (m *MRM) Name(s int) string {
	if s >= 0 && s < len(m.names) && m.names[s] != "" {
		return m.names[s]
	}
	return fmt.Sprintf("s%d", s)
}

// StateIndex returns the index of the state with the given name, or -1.
func (m *MRM) StateIndex(name string) int {
	for i, n := range m.names {
		if n == name {
			return i
		}
	}
	return -1
}

// Labels returns the sorted list of atomic propositions used in the model.
func (m *MRM) Labels() []string {
	out := make([]string, 0, len(m.labels))
	for l := range m.labels {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// Label returns the set of states carrying atomic proposition a. The result
// is empty (not nil semantics surprises) for unknown propositions.
func (m *MRM) Label(a string) *StateSet {
	if s, ok := m.labels[a]; ok {
		return s.Clone()
	}
	return NewStateSet(m.n)
}

// HasLabel reports whether state s carries atomic proposition a.
func (m *MRM) HasLabel(s int, a string) bool {
	set, ok := m.labels[a]
	return ok && set.Contains(s)
}

// IsAbsorbing reports whether state s has no outgoing transitions.
func (m *MRM) IsAbsorbing(s int) bool { return m.exit[s] == 0 }

// UniformisationRate returns a rate λ ≥ max_s E(s) suitable for
// uniformisation. A small headroom factor keeps the diagonal of the
// uniformised matrix strictly positive, which improves convergence of the
// underlying DTMC iteration (standard practice).
func (m *MRM) UniformisationRate() float64 { return m.UniformisationRateAbsorbing(nil) }

// UniformisationRateAbsorbing returns the rate UniformisationRate picks for
// the model with the states of set made absorbing (nil: none), without
// building that model: absorbing states have exit rate 0, so only the
// exit rates of the other states count.
func (m *MRM) UniformisationRateAbsorbing(set *StateSet) float64 {
	var mx float64
	for s, e := range m.exit {
		if e > mx && (set == nil || !set.Contains(s)) {
			mx = e
		}
	}
	if mx == 0 {
		return 1 // all states absorbing; any positive rate works
	}
	return mx * 1.02
}

// CheckUniformisationRate returns the error Uniformised reports for lambda
// on the model with the states of set made absorbing (nil: none): lambda
// must be positive and at least every remaining exit rate.
func (m *MRM) CheckUniformisationRate(lambda float64, set *StateSet) error {
	if lambda <= 0 {
		return fmt.Errorf("%w: uniformisation rate %v must be positive", ErrModel, lambda)
	}
	for s, e := range m.exit {
		if e > lambda*(1+1e-12) && (set == nil || !set.Contains(s)) {
			return fmt.Errorf("%w: exit rate E(%d)=%v exceeds uniformisation rate %v", ErrModel, s, e, lambda)
		}
	}
	return nil
}

// Uniformised returns the DTMC transition matrix P = I + Q/λ of the
// uniformised chain, where Q = R - diag(E). λ must be ≥ max_s E(s).
func (m *MRM) Uniformised(lambda float64) (*sparse.CSR, error) {
	if err := m.CheckUniformisationRate(lambda, nil); err != nil {
		return nil, err
	}
	// Row by row from the sorted rate CSR: the diagonal goes in at its
	// column, merged as diag + R(s,s)/λ with a stored self-loop, so the
	// arrays equal those of assembling the same entries as triplets.
	b := sparse.NewRowBuilder(m.n, m.rates.NNZ()+m.n)
	for s := 0; s < m.n; s++ {
		diag := 1 - m.exit[s]/lambda
		if diag < 0 {
			diag = 0
		}
		placed := false
		cols, vals := m.rates.RowRange(s)
		for k, t := range cols {
			v := vals[k]
			if v == 0 {
				continue
			}
			if !placed && t >= s {
				placed = true
				if t == s {
					b.Add(s, diag+v/lambda)
					continue
				}
				b.Add(s, diag)
			}
			b.Add(t, v/lambda)
		}
		if !placed {
			b.Add(s, diag)
		}
		b.EndRow()
	}
	return b.Build()
}

// Generator returns the infinitesimal generator Q = R - diag(E).
func (m *MRM) Generator() (*sparse.CSR, error) {
	d := make([]float64, m.n)
	for i, e := range m.exit {
		d[i] = -e
	}
	q, err := m.rates.AddDiagonal(d)
	if err != nil {
		return nil, fmt.Errorf("mrm: generator: %w", err)
	}
	return q, nil
}

// Builder assembles an MRM incrementally.
type Builder struct {
	n       int
	b       *sparse.Builder
	reward  []float64
	init    []float64
	names   []string
	labels  map[string]*StateSet
	impulse *sparse.Builder
	errs    []error
}

// NewBuilder returns a builder for an MRM with n states. All rewards start
// at zero and the initial distribution is unset (point mass on state 0 by
// default at Build time if never specified).
func NewBuilder(n int) *Builder {
	return &Builder{
		n:      n,
		b:      sparse.NewBuilder(n),
		reward: make([]float64, n),
		init:   make([]float64, n),
		names:  make([]string, n),
		labels: make(map[string]*StateSet),
	}
}

// N returns the number of states the builder was created with.
func (b *Builder) N() int { return b.n }

func (b *Builder) checkState(s int) bool {
	if s < 0 || s >= b.n {
		b.errs = append(b.errs, fmt.Errorf("%w: %d (model has %d states)", ErrState, s, b.n))
		return false
	}
	return true
}

// Rate adds rate R(from, to) += rate. Self-loop rates are rejected at Build
// (a CTMC self-loop is unobservable and the paper's R has zero diagonal).
func (b *Builder) Rate(from, to int, rate float64) *Builder {
	if !b.checkState(from) || !b.checkState(to) {
		return b
	}
	if rate < 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		b.errs = append(b.errs, fmt.Errorf("%w: rate R(%d,%d)=%v", ErrModel, from, to, rate))
		return b
	}
	if rate == 0 {
		return b
	}
	if from == to {
		b.errs = append(b.errs, fmt.Errorf("%w: self-loop rate on state %d", ErrModel, from))
		return b
	}
	b.b.Add(from, to, rate)
	return b
}

// Reward sets ρ(s) = r.
func (b *Builder) Reward(s int, r float64) *Builder {
	if !b.checkState(s) {
		return b
	}
	if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
		b.errs = append(b.errs, fmt.Errorf("%w: reward ρ(%d)=%v", ErrModel, s, r))
		return b
	}
	b.reward[s] = r
	return b
}

// Label attaches atomic proposition a to state s.
func (b *Builder) Label(s int, a string) *Builder {
	if !b.checkState(s) {
		return b
	}
	if a == "" {
		b.errs = append(b.errs, fmt.Errorf("%w: empty atomic proposition on state %d", ErrModel, s))
		return b
	}
	set, ok := b.labels[a]
	if !ok {
		set = NewStateSet(b.n)
		b.labels[a] = set
	}
	set.Add(s)
	return b
}

// Name names state s for diagnostics and formula output.
func (b *Builder) Name(s int, name string) *Builder {
	if !b.checkState(s) {
		return b
	}
	b.names[s] = name
	return b
}

// InitialState makes the initial distribution a point mass on s.
func (b *Builder) InitialState(s int) *Builder {
	if !b.checkState(s) {
		return b
	}
	for i := range b.init {
		b.init[i] = 0
	}
	b.init[s] = 1
	return b
}

// InitialProb sets α(s) = p. The distribution must sum to 1 at Build time.
func (b *Builder) InitialProb(s int, p float64) *Builder {
	if !b.checkState(s) {
		return b
	}
	if p < 0 || p > 1 || math.IsNaN(p) {
		b.errs = append(b.errs, fmt.Errorf("%w: initial probability α(%d)=%v", ErrModel, s, p))
		return b
	}
	b.init[s] = p
	return b
}

// Build validates and assembles the MRM.
func (b *Builder) Build() (*MRM, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	if b.n == 0 {
		return nil, fmt.Errorf("%w: model has no states", ErrModel)
	}
	rates, err := b.b.Build()
	if err != nil {
		return nil, fmt.Errorf("mrm: %w", err)
	}
	initSum := sparse.Sum(b.init)
	init := sparse.Clone(b.init)
	if initSum == 0 {
		init[0] = 1
	} else if math.Abs(initSum-1) > 1e-9 {
		return nil, fmt.Errorf("%w: initial distribution sums to %v", ErrModel, initSum)
	}
	exit := make([]float64, b.n)
	for s := 0; s < b.n; s++ {
		exit[s] = rates.RowSum(s)
	}
	labels := make(map[string]*StateSet, len(b.labels))
	for a, set := range b.labels {
		labels[a] = set.Clone()
	}
	var impulses *sparse.CSR
	if b.impulse != nil {
		impulses, err = b.impulse.Build()
		if err != nil {
			return nil, fmt.Errorf("mrm: impulses: %w", err)
		}
		// Every impulse must sit on an actual transition.
		var impErr error
		impulses.Each(func(i, j int, v float64) {
			if v != 0 && rates.At(i, j) == 0 && impErr == nil {
				impErr = fmt.Errorf("%w: impulse ι(%d,%d)=%v on a transition with rate 0", ErrModel, i, j, v)
			}
		})
		if impErr != nil {
			return nil, impErr
		}
	}
	return &MRM{
		n:        b.n,
		rates:    rates,
		exit:     exit,
		reward:   sparse.Clone(b.reward),
		init:     init,
		names:    append([]string(nil), b.names...),
		labels:   labels,
		impulses: impulses,
	}, nil
}
