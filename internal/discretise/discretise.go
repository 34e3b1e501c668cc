// Package discretise implements the Tijms–Veldman discretisation method of
// Section 4.3 of the paper (H.C. Tijms, R. Veldman, "A fast algorithm for
// the transient reward distribution in continuous-time Markov chains",
// Oper. Res. Lett. 26, 2000), a generalisation of Goyal–Tantawi. Both time
// and accumulated reward are discretised in multiples of the same step d;
// the joint density F^j(s,k) of being in state s at time j·d with
// accumulated reward k·d is computed by the recursion
//
//	F^{j+1}(s,k) = F^j(s, k−ρ(s))·(1−E(s)·d) +
//	               Σ_{s'} F^j(s', k−ρ(s'))·R(s',s)·d
//
// which requires natural-number reward rates (rational rewards can be
// scaled; see ScaleRewards). The method has no a-priori error bound; its
// cost grows as d⁻² (Table 4).
package discretise

import (
	"errors"
	"fmt"
	"math"

	"github.com/performability/csrl/internal/mrm"
	"github.com/performability/csrl/internal/obs"
	"github.com/performability/csrl/internal/parallel"
	"github.com/performability/csrl/internal/sparse"
)

// Options configures the discretisation.
type Options struct {
	// D is the discretisation step for both time and accumulated reward.
	// It must satisfy d ≤ 1/max_s E(s) so that 1−E(s)·d stays a
	// probability, and should be small enough that the probability of two
	// transitions within d is negligible (the method's error source).
	D float64
	// Impulses optionally assigns impulse (transition) rewards: entry
	// (s,s') is the reward earned instantaneously when the transition
	// s→s' fires, in the same unit as the state rewards. Impulse rewards
	// must be multiples of the step D. This is the paper's future-work
	// extension, which the Tijms–Veldman scheme supports directly.
	Impulses *sparse.CSR
	// AllowCoarse permits steps d > 1/max_s E(s), for which the "stay"
	// factor 1−E(s)·d of some state is negative. The recursion is then no
	// longer a probability scheme but remains a (poorer) first-order
	// approximation; the paper's Table 4 contains such a row (d = 1/16
	// with max E(s) = 19.5), so reproduction needs this escape hatch.
	AllowCoarse bool
	// Workers bounds the parallelism of the recursion's per-state inner
	// loop and of ReachProbAll's per-source fan-out: 0 = runtime.NumCPU(),
	// 1 = the exact sequential legacy path. The per-state loop writes only
	// state-owned rows, so results are bitwise independent of Workers.
	Workers int
	// Pool, when non-nil, supplies the n·(R+1) recursion grids. Each
	// worker of the ReachProbAll fan-out checks its grids out at the start
	// of its chunk and back in at the end — never across the parallel
	// region boundary — so the |S| per-source runs stop allocating fresh
	// grids per source.
	Pool *sparse.VecPool
	// Obs, when non-nil, receives the numerics-observability signals: the
	// O(d) discretisation term as an indicative ledger entry (the method
	// has no a-priori error bound — §4.3), source counters, grid gauges and
	// the recursion span.
	Obs *obs.Recorder
}

var (
	// ErrStep reports an invalid discretisation step.
	ErrStep = errors.New("discretise: invalid step")
	// ErrRewards reports non-natural reward rates.
	ErrRewards = errors.New("discretise: rewards must be natural numbers (use ScaleRewards)")
	// ErrGrid reports bounds whose recursion grids exceed maxGridCells or
	// whose recursion work exceeds maxWork.
	ErrGrid = errors.New("discretise: recursion grid too large")
)

const intTol = 1e-9

// recursionGrain is the minimum state-space × reward-grid size n·(R+1)
// before the recursion's inner loop fans out across workers.
const recursionGrain = 4096

// maxGridCells caps the float64 cells a call holds at once (1 GiB): two
// grids of n·(R+1) cells for every run in flight (one run in ReachProb,
// one per fan-out worker in ReachProbAll). maxWork caps the grid cells a
// call updates, sources × T × n·(R+1), each update also visiting the
// cell's incoming transitions. At this cap a call runs for minutes; the
// paper's Table 4 at d = 1/128 needs 2e9 updates, and the automatic step
// for Q3 (d = 1/256 from 5 sources) 2.2e10. prepare refuses a request
// beyond either cap with ErrGrid before converting t/d or r/d to int or
// allocating anything; the caps also keep both conversions far inside the
// int range. They bound the recursion's own grids and time, not what the
// rest of the process holds.
const (
	maxGridCells = 1 << 27
	maxWork      = 1 << 36
)

func asNatural(v float64) (int, bool) {
	r := math.Round(v)
	if r < 0 || math.Abs(v-r) > intTol*(1+math.Abs(v)) {
		return 0, false
	}
	return int(r), true
}

// ScaleRewards returns a copy of the model whose rewards are multiplied by
// factor, together with the scaled reward bound. Use it to turn rational
// rewards into the natural numbers the recursion requires; the reachability
// probability is invariant under simultaneous scaling of ρ and r.
func ScaleRewards(m *mrm.MRM, r, factor float64) (*mrm.MRM, float64, error) {
	if factor <= 0 {
		return nil, 0, fmt.Errorf("discretise: scale factor %v must be positive", factor)
	}
	b := mrm.NewBuilder(m.N())
	for s := 0; s < m.N(); s++ {
		b.Name(s, m.Name(s))
		b.Reward(s, m.Reward(s)*factor)
		m.Rates().Row(s, func(t int, v float64) {
			if v != 0 {
				b.Rate(s, t, v)
			}
		})
		for _, a := range m.Labels() {
			if m.HasLabel(s, a) {
				b.Label(s, a)
			}
		}
	}
	for s, p := range m.InitView() {
		if p > 0 {
			b.InitialProb(s, p)
		}
	}
	scaled, err := b.Build()
	if err != nil {
		return nil, 0, fmt.Errorf("discretise: scale rewards: %w", err)
	}
	return scaled, r * factor, nil
}

// prepared carries the source-independent precomputation of the recursion:
// validated grid dimensions, integer rewards, stay factors, the transposed
// rate matrix and the integer impulse shifts. Building it once and running
// it from many sources is what makes the |S|-source fan-out of
// ReachProbAll cheap — the transpose and the validation used to be redone
// per source.
type prepared struct {
	m       *mrm.MRM
	goal    *mrm.StateSet
	n, T, R int
	d       float64
	rho     []int
	stay    []float64
	rt      *sparse.CSR
	impulse map[[2]int]int
	workers int
}

// prepare validates the inputs and assembles the source-independent state
// for a call that runs the recursion from sources initial states with up
// to runs of them in flight at once.
func prepare(m *mrm.MRM, goal *mrm.StateSet, t, r float64, opts Options, sources, runs int) (*prepared, error) {
	n := m.N()
	if goal.Universe() != n {
		return nil, fmt.Errorf("discretise: goal universe %d for %d states", goal.Universe(), n)
	}
	d := opts.D
	if !(d > 0) || math.IsInf(d, 1) {
		return nil, fmt.Errorf("%w: d=%v", ErrStep, d)
	}
	if !(t > 0) || !(r > 0) || math.IsInf(t, 1) || math.IsInf(r, 1) {
		return nil, fmt.Errorf("discretise: bounds t=%v r=%v must be finite and positive", t, r)
	}
	cells := float64(max(n, 1)) * (r/d + 1)
	if held, work := 2*float64(runs)*cells, float64(max(sources, 1))*(t/d)*cells; held > maxGridCells || work > maxWork {
		return nil, fmt.Errorf("%w: %d×(r/d+1) cells with r/d=%v, t/d=%v steps, %d sources: %v cells held (cap %d), %v updated (cap %d)",
			ErrGrid, n, r/d, t/d, sources, held, maxGridCells, work, maxWork)
	}
	T, okT := asNatural(t / d)
	R, okR := asNatural(r / d)
	if !okT || !okR || T == 0 || R == 0 {
		return nil, fmt.Errorf("%w: t/d=%v and r/d=%v must be positive integers", ErrStep, t/d, r/d)
	}

	rho := make([]int, n)
	for s := 0; s < n; s++ {
		v, ok := asNatural(m.Reward(s))
		if !ok {
			return nil, fmt.Errorf("%w: ρ(%d)=%v", ErrRewards, s, m.Reward(s))
		}
		rho[s] = v
		if m.ExitRate(s)*d > 1 && !opts.AllowCoarse {
			return nil, fmt.Errorf("%w: d=%v exceeds 1/E(%d)=%v (set AllowCoarse to force)", ErrStep, d, s, 1/m.ExitRate(s))
		}
	}

	// Impulse rewards: an explicit option overrides the model's own
	// impulse matrix. A state reward ρ(s) advances the reward
	// index by ρ(s) per time step (reward ρ(s)·d earned in a step of size
	// d), whereas an impulse ι is a one-off quantity: its index shift is
	// ι/d, which must therefore be integral.
	impulseMat := opts.Impulses
	if impulseMat == nil {
		impulseMat = m.Impulses()
	}
	var impulse map[[2]int]int
	if impulseMat != nil {
		if impulseMat.Dim() != n {
			return nil, fmt.Errorf("discretise: impulse matrix dimension %d for %d states", impulseMat.Dim(), n)
		}
		impulse = make(map[[2]int]int)
		var impErr error
		impulseMat.Each(func(i, j int, v float64) {
			k, ok := asNatural(v / d)
			if !ok {
				impErr = fmt.Errorf("%w: impulse ι(%d,%d)=%v is not a multiple of d=%v", ErrRewards, i, j, v, d)
				return
			}
			if k != 0 {
				impulse[[2]int{i, j}] = k
			}
		})
		if impErr != nil {
			return nil, impErr
		}
	}

	// Transposed rates: for target s we need the incoming transitions.
	rt := m.Rates().Transpose()
	stay := make([]float64, n)
	for s := 0; s < n; s++ {
		stay[s] = 1 - m.ExitRate(s)*d
	}

	workers := opts.Workers
	if n*(R+1) < recursionGrain {
		workers = 1
	}
	if opts.Obs != nil {
		// The scheme's error is O(d) with an unknown constant (no a-priori
		// bound, §4.3), so the step itself is the honest indicative entry.
		opts.Obs.ChargeIndicative("discretise", "step", d)
		opts.Obs.Gauge("discretise.grid").SetMax(float64(n * (R + 1)))
	}
	return &prepared{
		m: m, goal: goal, n: n, T: T, R: R, d: d,
		rho: rho, stay: stay, rt: rt, impulse: impulse, workers: workers,
	}, nil
}

// scratch holds the two recursion grids of one run, as row views over flat
// pool-sized buffers so they can be checked out and in as two Gets/Puts.
type scratch struct {
	curFlat, nextFlat []float64
	cur, next         [][]float64
}

// newScratch checks a grid pair out of pool (nil-safe).
func (p *prepared) newScratch(pool *sparse.VecPool) *scratch {
	stride := p.R + 1
	sc := &scratch{
		curFlat:  pool.Get(p.n * stride),
		nextFlat: pool.Get(p.n * stride),
		cur:      make([][]float64, p.n),
		next:     make([][]float64, p.n),
	}
	for s := 0; s < p.n; s++ {
		sc.cur[s] = sc.curFlat[s*stride : (s+1)*stride]
		sc.next[s] = sc.nextFlat[s*stride : (s+1)*stride]
	}
	return sc
}

// release checks the grid pair back in.
func (sc *scratch) release(pool *sparse.VecPool) {
	pool.Put(sc.curFlat)
	pool.Put(sc.nextFlat)
}

// reachProb runs the recursion from the single initial state `from`,
// reusing sc across calls. The arithmetic per (state, reward index) is
// identical to the historical per-source implementation, so results are
// bitwise unchanged and independent of both Workers and scratch reuse.
func (p *prepared) reachProb(from int, sc *scratch) float64 {
	// F[s][k], k = 0..R. F is a density in the reward dimension (1/d
	// scaling), exactly as in the paper. The cur grid carries the previous
	// run's values when the scratch is reused: clear it. The next grid
	// needs no clearing — every step fully overwrites each row before
	// accumulating into it.
	for i := range sc.curFlat {
		sc.curFlat[i] = 0
	}
	cur, next := sc.cur, sc.next
	// Initialisation convention (audited against the Sericola procedure and
	// the paper's Table 4; see TestConventionPinned): the state below is F¹,
	// not F⁰ — the first time step is charged up front and approximated as
	// jump-free, placing the point mass at reward index ρ(from) at time d.
	// Together with the T−1 recursion steps of the loop below the final sum
	// is therefore taken exactly at time T·d = t, with accumulated reward
	// the left-Riemann sum Σ_{j=0}^{T−1} ρ(X_{j·d})·d of the reward path.
	// This is the scheme the paper ran: with the "textbook" alternative
	// (F⁰ = mass at reward 0, T recursion steps) the d = 1/32…1/128 values
	// miss the published Table 4 entries by up to 1.3e-4, well outside the
	// reproduction tolerance, while this convention matches them to ≤ 8e-6
	// and halves the error against the exact Sericola value. Note that when
	// the reward bound binds (R < T·max ρ), F¹-init with T−1 steps and
	// F⁰-init with T steps coincide exactly — the extra shift and the extra
	// step cancel — so the loop bound below is only "off by one" relative
	// to a different, inferior initialisation convention.
	if p.rho[from] <= p.R {
		cur[from][p.rho[from]] = 1 / p.d
	}
	// If the very first step already exceeds the reward bound, the mass is
	// absorbed by the barrier immediately and the probability is 0.

	// The per-state inner loop writes only next[s] for its own s and reads
	// cur (immutable within a step), so partitioning states across workers
	// preserves the sequential arithmetic order per state: results are
	// bitwise identical for every workers value.
	R := p.R
	for j := 1; j < p.T; j++ {
		parallel.For(p.workers, p.n, func(lo, hi int) {
			for s := lo; s < hi; s++ {
				fs := next[s]
				shift := p.rho[s]
				sStay := p.stay[s]
				curS := cur[s]
				for k := 0; k <= R; k++ {
					var v float64
					if k >= shift {
						v = curS[k-shift] * sStay
					}
					fs[k] = v
				}
				p.rt.Row(s, func(src int, rate float64) {
					w := rate * p.d
					shiftSrc := p.rho[src]
					if p.impulse != nil {
						if imp, ok := p.impulse[[2]int{src, s}]; ok {
							shiftSrc += imp
						}
					}
					curSrc := cur[src]
					for k := shiftSrc; k <= R; k++ {
						fs[k] += curSrc[k-shiftSrc] * w
					}
				})
			}
		})
		cur, next = next, cur
	}

	var sum float64
	p.goal.Each(func(s int) {
		for k := 0; k <= R; k++ {
			sum += cur[s][k]
		}
	})
	return sum * p.d
}

// ReachProb computes the Theorem 2 quantity Pr{Y_t ≤ r, X_t ∈ goal}
// starting from the single initial state `from`, by the Tijms–Veldman
// recursion with step opts.D. t and r must be (near-)multiples of d.
func ReachProb(m *mrm.MRM, goal *mrm.StateSet, t, r float64, from int, opts Options) (float64, error) {
	if from < 0 || from >= m.N() {
		return 0, fmt.Errorf("discretise: initial state %d out of range", from)
	}
	p, err := prepare(m, goal, t, r, opts, 1, 1)
	if err != nil {
		return 0, err
	}
	span := opts.Obs.StartSpan("discretise.recursion")
	sc := p.newScratch(opts.Pool)
	v := p.reachProb(from, sc)
	sc.release(opts.Pool)
	span.End()
	opts.Obs.Counter("discretise.sources").Inc()
	return v, nil
}

// ReachProbAll runs the recursion from every state. Because it is a
// forward propagation from a point mass, this costs |S| independent runs;
// they are embarrassingly parallel and fan out across opts.Workers, with
// the source-independent precomputation (validation, rate transpose,
// reward classification) shared by all of them. Each per-source run is
// forced sequential (Workers: 1) — the fan-out already saturates the pool,
// and run-level parallelism keeps the arithmetic of every run identical to
// the sequential path. Each fan-out worker reuses one scratch grid pair
// across all sources of its chunk, checked out of opts.Pool inside the
// chunk, so the fan-out no longer allocates n·(R+1) floats per source.
func ReachProbAll(m *mrm.MRM, goal *mrm.StateSet, t, r float64, opts Options) ([]float64, error) {
	inner := opts
	inner.Workers = 1
	n := m.N()
	p, err := prepare(m, goal, t, r, inner, n, min(parallel.Resolve(opts.Workers), n))
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	span := opts.Obs.StartSpan("discretise.recursion")
	parallel.For(opts.Workers, n, func(lo, hi int) {
		sc := p.newScratch(opts.Pool)
		for s := lo; s < hi; s++ {
			out[s] = p.reachProb(s, sc)
		}
		sc.release(opts.Pool)
	})
	span.End()
	opts.Obs.Counter("discretise.sources").Add(int64(n))
	return out, nil
}
