package transient

import (
	"fmt"
	"math"
	"sort"

	"github.com/performability/csrl/internal/mrm"
	"github.com/performability/csrl/internal/numeric"
	"github.com/performability/csrl/internal/sparse"
)

// rowSource serves the rows of a uniformised matrix as column and value
// slices, valid until the next call. *sparse.CSR serves a
// materialised matrix; uniformRows builds the rows the window touches.
type rowSource interface {
	RowRange(s int) (cols []int, vals []float64)
}

// uniformRows is the uniformised matrix P = I + Q/λ of a model with a set
// of states made absorbing, read straight from the model's rate CSR: a row
// is built on first touch into a per-call arena, so a truncated sweep pays
// for the rows its window reaches and never for the full space. Each row
// has exactly the stored entries and values that mrm.MakeAbsorbing
// followed by MRM.Uniformised would give it — P(s,s) = max(0, 1 − E(s)/λ),
// P(s,t) = R(s,t)/λ for every stored non-zero, and the unit diagonal
// alone for an absorbing state — so a sweep over it is bitwise the sweep
// over the materialised matrix. The order of entries within a row does
// not matter: the sweep's scatter accumulates every target in ascending
// source order and sorts its window.
type uniformRows struct {
	rates  *sparse.CSR
	exit   []float64
	absorb *mrm.StateSet // nil: no state absorbing
	lambda float64
	// Row s occupies cols/vals[lo[s]-1 : hi[s]]; lo[s] == 0 marks a row
	// not built yet.
	lo, hi []int
	cols   []int
	vals   []float64
}

func newUniformRows(m *mrm.MRM, absorb *mrm.StateSet, lambda float64) *uniformRows {
	return &uniformRows{
		rates:  m.Rates(),
		exit:   m.ExitRatesView(),
		absorb: absorb,
		lambda: lambda,
		lo:     make([]int, m.N()),
		hi:     make([]int, m.N()),
		cols:   make([]int, 0, 256),
		vals:   make([]float64, 0, 256),
	}
}

// RowRange returns row s of P, building it on first touch.
func (r *uniformRows) RowRange(s int) (cols []int, vals []float64) {
	if r.lo[s] == 0 {
		r.build(s)
	}
	lo, hi := r.lo[s]-1, r.hi[s]
	return r.cols[lo:hi], r.vals[lo:hi]
}

// build appends row s to the arena: the diagonal first, then the rates.
// The diagonal is the expression of MRM.Uniformised on the absorbing
// model, where an absorbing state's exit rate is 0; the rate CSR stores
// no diagonal (mrm.Builder rejects self-loops), so nothing merges into it.
func (r *uniformRows) build(s int) {
	absorbing := r.absorb != nil && r.absorb.Contains(s)
	var exit float64
	if !absorbing {
		exit = r.exit[s]
	}
	diag := 1 - exit/r.lambda
	if diag < 0 {
		diag = 0
	}
	lo := len(r.cols)
	r.cols = append(r.cols, s)
	r.vals = append(r.vals, diag)
	if !absorbing {
		cols, vals := r.rates.RowRange(s)
		for k, t := range cols {
			if vals[k] != 0 {
				r.cols = append(r.cols, t)
				r.vals = append(r.vals, vals[k]/r.lambda)
			}
		}
	}
	r.lo[s], r.hi[s] = lo+1, len(r.cols)
}

// sweepForward is the forward sweep Σ_n w(n)·vₙ with vₙ₊₁ = vₙ·P, where
// each step keeps only an active window of states: those its iterate
// reaches. When opts.Truncate is positive it also drops entries whose
// mass lies below the threshold, as long as the cumulative dropped mass
// stays inside the budget share reserved by budgetSplit. vₙ is a
// sub-distribution (v is one and P is stochastic), so every dropped entry
// removes exactly its own mass from all later iterates and from the
// accumulator: the total dropped mass is a sound ℓ1 bound on the
// truncation error. Callers owe the ledger the returned mass when
// truncating. Otherwise the drop test is skipped outright: with a
// threshold of 0 or below, a negative entry would pass it.
//
// The step kernel is a row-scatter over the active states via the rows of
// p — the matrix is read only at the rows the window touches, which is
// the whole point: cost per step is O(active·row-nnz), not O(nnz). The
// active lists are kept in ascending state order and the accumulator
// updates follow the per-entry arithmetic of a dense row scatter, so
// without a drop the result equals the dense scatter series over every
// state bit for bit (the skipped entries are exact zeros, which add
// nothing); steady-state detection runs the same |next−cur|∞ < δ test
// over the union of the two windows.
//
// The accumulator is pool-born and handed to the caller, along with the
// dropped mass and the number of matrix passes.
//
//numerics:truncates truncation/state-drop
func sweepForward(p rowSource, v []float64, w *numeric.PoissonWeights, q float64, opts Options) (accOut []float64, dropped float64, products int) {
	n := len(v)
	pool := opts.Pool
	acc := pool.Get(n)
	curVals := pool.Get(n)
	nextVals := pool.Get(n)
	curMark := make([]bool, n)
	nextMark := make([]bool, n)
	curList := make([]int, 0, 64)
	nextList := make([]int, 0, 64)
	for s, x := range v {
		if x != 0 {
			curVals[s] = x
			curMark[s] = true
			curList = append(curList, s)
		}
	}
	detect := opts.SteadyDetect.enabled()
	truncating := opts.truncating()
	_, steadyEps, truncEps := opts.budgetSplit(truncating)
	delta := steadyEps / q
	thr := opts.Truncate
	peak := len(curList)
	var droppedStates int64
	for step := 0; step <= w.Right; step++ {
		if step >= w.Left {
			wt := w.Weight(step)
			for _, s := range curList {
				acc[s] += wt * curVals[s]
			}
		}
		if step == w.Right {
			break
		}
		// next = cur·P restricted to the rows of the active window.
		for _, t := range nextList {
			nextVals[t] = 0
			nextMark[t] = false
		}
		nextList = nextList[:0]
		for _, s := range curList {
			x := curVals[s]
			if x == 0 {
				continue
			}
			cols, vals := p.RowRange(s)
			for k, t := range cols {
				if !nextMark[t] {
					nextMark[t] = true
					nextList = append(nextList, t)
				}
				nextVals[t] += x * vals[k]
			}
		}
		sort.Ints(nextList)
		products++
		// Drop the newly negligible states, eldest-index first, while the
		// budget lasts. An entry at or above thr always survives, so the
		// window never loses a state that carries real mass.
		if truncating {
			keep := nextList[:0]
			for _, t := range nextList {
				if x := nextVals[t]; x < thr && dropped+x <= truncEps {
					dropped += x
					droppedStates++
					nextVals[t] = 0
					nextMark[t] = false
					continue
				}
				keep = append(keep, t)
			}
			nextList = keep
		}
		if len(nextList) > peak {
			peak = len(nextList)
		}
		if detect {
			var diff float64
			for _, t := range nextList {
				if d := math.Abs(nextVals[t] - curVals[t]); d > diff {
					diff = d
				}
			}
			for _, s := range curList {
				if !nextMark[s] {
					// Absent from the next window: the entry went to zero.
					if d := curVals[s]; d > diff {
						diff = d
					}
				}
			}
			if diff < delta {
				var tail, kSum float64
				for k := step + 1; k <= w.Right; k++ {
					tail += w.Weight(k)
					kSum += float64(k-step) * w.Weight(k)
				}
				for _, t := range nextList {
					acc[t] += tail * nextVals[t]
				}
				if opts.Obs != nil {
					opts.Obs.Counter("steady.detections").Inc()
					opts.Obs.Charge("steady", "tail-charge", diff*kSum)
				}
				break
			}
		}
		curVals, nextVals = nextVals, curVals
		curMark, nextMark = nextMark, curMark
		curList, nextList = nextList, curList
	}
	pool.Put(curVals)
	pool.Put(nextVals)
	if opts.Obs != nil {
		opts.Obs.Counter("sweep.products").Add(int64(products))
		opts.Obs.Counter("truncation.dropped-states").Add(droppedStates)
		opts.Obs.Gauge("truncation.active-window").SetMax(float64(peak))
	}
	return acc, dropped, products
}

// TimeBoundedUntilFrom computes Pr_from{Φ U^{≤t} Ψ} for one start state by
// a single forward sweep: make Ψ and ¬(Φ∨Ψ) states absorbing, push the
// point mass at from through the uniformised chain, and sum the Ψ mass at
// time t. This is the P1 procedure turned around — TimeBoundedUntil
// answers the same question for every start state in one backward sweep,
// but its iterate is a value vector, not a distribution, so it cannot
// truncate soundly. The forward orientation is what Options.Truncate needs
// at scale: when the chain cannot drift far from the start state within t,
// the active window stays a vanishing fraction of the state space, and the
// sweep reads only the window's rows from m (see uniformRows) instead of
// deriving the absorbing model and its uniformised matrix.
//
//numerics:domain prob t=rate
func TimeBoundedUntilFrom(m *mrm.MRM, phi, psi *mrm.StateSet, from int, t float64, opts Options) (float64, error) {
	if from < 0 || from >= m.N() {
		return 0, fmt.Errorf("transient: until-from: state %d out of range [0,%d)", from, m.N())
	}
	absorb := phi.Union(psi).Complement().Union(psi)
	opts = opts.normalise()
	init := opts.Pool.Get(m.N())
	init[from] = 1
	dist, err := runForward(m, absorb, init, t, opts)
	opts.Pool.Put(init)
	if err != nil {
		return 0, fmt.Errorf("transient: until-from: %w", err)
	}
	var pr float64
	psi.Each(func(s int) { pr += dist[s] })
	opts.Pool.Put(dist)
	return pr, nil
}
