package mrm

import (
	"fmt"

	"github.com/performability/csrl/internal/sparse"
)

// MakeAbsorbing returns a copy of the model in which every state of the set
// has all outgoing transitions removed. When zeroReward is true the reward
// of those states is also set to 0, as required by Theorem 1 of the paper.
func (m *MRM) MakeAbsorbing(set *StateSet, zeroReward bool) (*MRM, error) {
	if set.Universe() != m.n {
		return nil, fmt.Errorf("%w: set universe %d for model with %d states", ErrModel, set.Universe(), m.n)
	}
	rates, err := withoutRows(m.rates, set)
	if err != nil {
		return nil, fmt.Errorf("mrm: make absorbing: %w", err)
	}
	reward := sparse.Clone(m.reward)
	if zeroReward {
		set.Each(func(s int) { reward[s] = 0 })
	}
	exit := make([]float64, m.n)
	for s := 0; s < m.n; s++ {
		exit[s] = rates.RowSum(s)
	}
	labels := make(map[string]*StateSet, len(m.labels))
	for a, l := range m.labels {
		labels[a] = l.Clone()
	}
	var impulses *sparse.CSR
	if m.impulses != nil {
		// Impulses of removed (outgoing) transitions disappear with them.
		impulses, err = withoutRows(m.impulses, set)
		if err != nil {
			return nil, fmt.Errorf("mrm: make absorbing: %w", err)
		}
		if impulses.NNZ() == 0 {
			impulses = nil
		}
	}
	return &MRM{
		n:        m.n,
		rates:    rates,
		exit:     exit,
		reward:   reward,
		init:     sparse.Clone(m.init),
		names:    append([]string(nil), m.names...),
		labels:   labels,
		impulses: impulses,
	}, nil
}

// withoutRows copies the non-zero entries of a, row by row in its sorted
// order, leaving the rows of set empty.
func withoutRows(a *sparse.CSR, set *StateSet) (*sparse.CSR, error) {
	b := sparse.NewRowBuilder(a.Dim(), a.NNZ())
	for s := 0; s < a.Dim(); s++ {
		if !set.Contains(s) {
			cols, vals := a.RowRange(s)
			for k, t := range cols {
				if vals[k] != 0 {
					b.Add(t, vals[k])
				}
			}
		}
		b.EndRow()
	}
	return b.Build()
}

// UntilReduction is the result of applying Theorem 1: the reduced MRM M'
// in which all Ψ-states are amalgamated into a single absorbing goal state
// and all ¬(Φ∨Ψ)-states into a single absorbing fail state, both with
// reward 0. Checking P⋈p(Φ U^{≤t}_{≤r} Ψ) in the original model from state
// s is equivalent to computing Pr{Y_t ≤ r, X_t = Goal} in Model starting
// from StateMap[s].
type UntilReduction struct {
	Model *MRM
	// Goal is the index of the amalgamated Ψ state in Model.
	Goal int
	// Fail is the index of the amalgamated ¬(Φ∨Ψ) state, or -1 when no such
	// state was reachable (every original state satisfied Φ or Ψ).
	Fail int
	// StateMap maps original state indices to reduced indices. Ψ-states map
	// to Goal and ¬(Φ∨Ψ)-states map to Fail.
	StateMap []int
}

// ReduceForUntil builds the reduced model of Theorem 1 for the path formula
// Φ U^{≤t}_{≤r} Ψ, where phi = Sat(Φ) and psi = Sat(Ψ).
func ReduceForUntil(m *MRM, phi, psi *StateSet) (*UntilReduction, error) {
	if phi.Universe() != m.n || psi.Universe() != m.n {
		return nil, fmt.Errorf("%w: satisfaction-set universe mismatch", ErrModel)
	}
	// Partition: transient = Φ ∧ ¬Ψ; goal = Ψ; fail = ¬(Φ ∨ Ψ).
	goalSet := psi
	transSet := phi.Minus(psi)
	failSet := phi.Union(psi).Complement()

	stateMap := make([]int, m.n)
	var transStates []int
	transSet.Each(func(s int) {
		stateMap[s] = len(transStates)
		transStates = append(transStates, s)
	})
	goal := len(transStates)
	fail := goal + 1
	n := goal + 2
	goalSet.Each(func(s int) { stateMap[s] = goal })
	hasFail := !failSet.IsEmpty()
	if hasFail {
		failSet.Each(func(s int) { stateMap[s] = fail })
	} else {
		n = goal + 1
		fail = -1
	}

	b := NewBuilder(n)
	var impulseErr error
	for ri, s := range transStates {
		b.Reward(ri, m.reward[s])
		b.Name(ri, m.Name(s))
		// Impulse of the first merged transition into each reduced target;
		// amalgamation is only sound when merged transitions agree.
		seenImpulse := make(map[int]float64)
		m.rates.Row(s, func(t int, v float64) {
			if v == 0 {
				return
			}
			target := stateMap[t]
			b.Rate(ri, target, v)
			if m.impulses == nil {
				return
			}
			// Impulses on transitions into the fail state never influence
			// the formula (the path has already failed), so drop them.
			if target == fail {
				return
			}
			iv := m.Impulse(s, t)
			if prev, ok := seenImpulse[target]; ok {
				//lint:ignore floatcmp amalgamation soundness needs exact agreement of impulses copied verbatim from the model
				if prev != iv && impulseErr == nil {
					impulseErr = fmt.Errorf("%w: transitions from %s amalgamated into one carry different impulse rewards (%v vs %v); Theorem 1 amalgamation is not applicable", ErrModel, m.Name(s), prev, iv)
				}
				return
			}
			seenImpulse[target] = iv
			if iv != 0 {
				b.Impulse(ri, target, iv)
			}
		})
	}
	if impulseErr != nil {
		return nil, impulseErr
	}
	b.Name(goal, "goal").Reward(goal, 0).Label(goal, "goal")
	if hasFail {
		b.Name(fail, "fail").Reward(fail, 0).Label(fail, "fail")
	}
	// Initial distribution: project the original α. Mass on goal/fail states
	// stays there (they trivially satisfy / violate the path formula).
	initIdx := m.InitialState()
	if initIdx >= 0 {
		b.InitialState(stateMap[initIdx])
	} else {
		proj := make([]float64, n)
		for s, a := range m.init {
			proj[stateMap[s]] += a
		}
		for s, p := range proj {
			if p > 0 {
				b.InitialProb(s, p)
			}
		}
	}
	reduced, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("mrm: until reduction: %w", err)
	}
	return &UntilReduction{Model: reduced, Goal: goal, Fail: fail, StateMap: stateMap}, nil
}

// WithInitialState returns a copy of the model whose initial distribution is
// a point mass on s.
func (m *MRM) WithInitialState(s int) (*MRM, error) {
	if s < 0 || s >= m.n {
		return nil, fmt.Errorf("%w: %d", ErrState, s)
	}
	c := *m
	c.init = make([]float64, m.n)
	c.init[s] = 1
	return &c, nil
}
