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

	"github.com/performability/csrl/internal/graph"
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
	// loop and of ReachProbAll's per-source fan-out:
	// 0 = runtime.GOMAXPROCS(0), 1 = sequential. The per-state loop writes
	// only state-owned rows, so results are bitwise independent of Workers.
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
// one per fan-out worker in ReachProbAll, at most one per live source).
// maxWork caps the grid cells a call may update, live sources × T ×
// n·(R+1), each update also visiting the cell's incoming transitions. The
// recursion computes only each row's band, but in the worst case — a
// zero-reward state keeps the bands at [0, R] — that is the whole grid,
// where it updates 4.7–6.1e8 cells/s on a 2-vCPU x86-64 host (2.3× the
// rate of the full-grid loops that 2^36 was sized for, so the cap doubled):
// at this cap a call runs for four to five minutes. The paper's Table 4 at
// d = 1/128 needs 1.1e9 updates by this count, and the automatic step for
// Q3 (d = 1/256 from 3 live sources) 1.3e10. prepare refuses a request
// beyond either cap with ErrGrid before converting t/d or r/d to int or
// allocating anything; the caps also keep both conversions far inside the
// int range. They bound the recursion's own grids and time, not what the
// rest of the process holds.
const (
	maxGridCells = 1 << 27
	maxWork      = 1 << 37
)

func asNatural(v float64) (int, bool) {
	r := math.Round(v)
	if r < 0 || math.Abs(v-r) > intTol*(1+math.Abs(v)) {
		return 0, false
	}
	return int(r), true
}

// ScaleRewards returns a copy of the model whose rewards — state rewards ρ
// and impulse rewards ι alike — are multiplied by factor, together with the
// scaled reward bound. Use it to turn rational rewards into the natural
// numbers the recursion requires; the reachability probability is
// invariant under simultaneous scaling of ρ, ι and r.
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
		if imp := m.Impulses(); imp != nil {
			imp.Row(s, func(t int, v float64) { b.Impulse(s, t, v*factor) })
		}
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
// rate matrix with the reward-index shift of each of its entries, the rows
// that can reach the goal and those of them that accumulate in place.
// Building it once and running it from many sources is what makes the
// |S|-source fan-out of ReachProbAll cheap — the transpose and the
// validation used to be redone per source.
type prepared struct {
	goal    *mrm.StateSet
	n, T, R int
	d       float64
	rho     []int
	stay    []float64
	rt      *sparse.CSR
	// inShift[s][e] is the reward-index shift ρ(src) + ι(src,s)/d of the
	// e-th entry (src → s) of rt's row s. Shifts are clamped to R+1: mass
	// moved past the bound leaves the grid either way.
	inShift [][]int
	// rows lists the states that can reach the goal, the only rows the
	// recursion computes: a state that cannot feeds no goal row, and only
	// states that cannot either read its row.
	rows []int
	// inPlace marks the absorbing zero-reward states. Their stay factor is
	// exactly 1 and no other state reads them, so one row serves as both
	// grids and accumulates its in-edges in place.
	inPlace []bool
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
	if held, work := 2*float64(max(runs, 1))*cells, float64(max(sources, 1))*(t/d)*cells; held > maxGridCells || work > maxWork {
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
		rho[s] = clampShift(v, m.Reward(s), R)
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
	var impulse *sparse.CSR
	if impulseMat != nil {
		if impulseMat.Dim() != n {
			return nil, fmt.Errorf("discretise: impulse matrix dimension %d for %d states", impulseMat.Dim(), n)
		}
		// Validated entry by entry, then transposed so row s lists the
		// impulses of s's in-edges, like rt below.
		var impErr error
		impulseMat.Each(func(i, j int, v float64) {
			if _, ok := asNatural(v / d); !ok && impErr == nil {
				impErr = fmt.Errorf("%w: impulse ι(%d,%d)=%v is not a multiple of d=%v", ErrRewards, i, j, v, d)
			}
		})
		if impErr != nil {
			return nil, impErr
		}
		impulse = impulseMat.Transpose()
	}

	// Transposed rates: for target s we need the incoming transitions.
	rt := m.Rates().Transpose()
	stay := make([]float64, n)
	inShift := make([][]int, n)
	flat := make([]int, rt.NNZ())
	inPlace := make([]bool, n)
	for s := 0; s < n; s++ {
		stay[s] = 1 - m.ExitRate(s)*d
		inPlace[s] = m.IsAbsorbing(s) && rho[s] == 0
		cols, _ := rt.RowRange(s)
		inShift[s], flat = flat[:len(cols):len(cols)], flat[len(cols):]
		for e, src := range cols {
			shift := rho[src]
			if impulse != nil {
				v := impulse.At(s, src)
				k, _ := asNatural(v / d)
				shift = min(shift+clampShift(k, v/d, R), R+1)
			}
			inShift[s][e] = shift
		}
	}

	all := mrm.NewStateSet(n).Complement()
	rows := graph.FromRates(m.Rates()).BackwardReachable(all, goal).Slice()

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
		goal: goal, n: n, T: T, R: R, d: d,
		rho: rho, stay: stay, rt: rt, inShift: inShift, rows: rows, inPlace: inPlace, workers: workers,
	}, nil
}

// clampShift returns the reward-index shift k (the rounding of the
// non-negative quotient q) capped at R+1, the first index past the grid;
// comparing q first keeps a huge quotient from a lossy int conversion.
func clampShift(k int, q float64, R int) int {
	if q > float64(R) {
		return R + 1
	}
	return k
}

// band is the index range [lo, end) of a grid row that may hold non-zero
// mass: outside it the full-grid recursion holds only zeros. The zero
// value is the empty band.
type band struct{ lo, end int }

func (b band) empty() bool { return b.end <= b.lo }

// shifted returns b moved up by k and clipped to the grid [0, R]; shifts
// are non-negative, so only the top can leave it.
func (b band) shifted(k, R int) band {
	if b.empty() || b.lo+k > R {
		return band{}
	}
	return band{b.lo + k, min(b.end+k, R+1)}
}

// union returns the smallest band covering both.
func (b band) union(c band) band {
	switch {
	case c.empty():
		return b
	case b.empty():
		return c
	}
	return band{min(b.lo, c.lo), max(b.end, c.end)}
}

// scratch holds the two recursion grids of one run, as row views over flat
// pool-sized buffers so they can be checked out and in as two Gets/Puts,
// and each row's band. A row is read only inside its band, and each step
// writes the whole new band of every row it rewrites, so what a row holds
// outside its band is never looked at — except in the in-place rows, which
// accumulate and so are kept zero outside their bands.
type scratch struct {
	curFlat, nextFlat []float64
	cur, next         [][]float64
	curBand, nextBand []band
}

// newScratch checks a grid pair out of pool (nil-safe; Get zeroes). The
// rows of the in-place states share one buffer in both grids.
func (p *prepared) newScratch(pool *sparse.VecPool) *scratch {
	stride := p.R + 1
	sc := &scratch{
		curFlat:  pool.Get(p.n * stride),
		nextFlat: pool.Get(p.n * stride),
		cur:      make([][]float64, p.n),
		next:     make([][]float64, p.n),
		curBand:  make([]band, p.n),
		nextBand: make([]band, p.n),
	}
	for s := 0; s < p.n; s++ {
		sc.cur[s] = sc.curFlat[s*stride : (s+1)*stride]
		sc.next[s] = sc.nextFlat[s*stride : (s+1)*stride]
		if p.inPlace[s] {
			sc.next[s] = sc.cur[s]
		}
	}
	return sc
}

// release checks the grid pair back in.
func (sc *scratch) release(pool *sparse.VecPool) {
	pool.Put(sc.curFlat)
	pool.Put(sc.nextFlat)
}

// reset empties every band for a new run and zeroes the in-place rows over
// what the previous run left in them (an in-place band only grows, so the
// current one covers it).
func (p *prepared) reset(sc *scratch) {
	for s, b := range sc.curBand {
		if p.inPlace[s] {
			clear(sc.cur[s][b.lo:b.end])
		}
	}
	clear(sc.curBand)
	clear(sc.nextBand)
}

// absorbingValue is the recursion's value from an absorbing source, in
// closed form: the point mass 1/d never leaves the source (stay factor
// exactly 1) and moves up ρ per step, so after the T steps it sits at
// index T·ρ — inside the grid iff T·ρ ≤ R — and the goal sum is 1/d or
// nothing.
func (p *prepared) absorbingValue(from int) float64 {
	if !p.goal.Contains(from) || p.rho[from] > p.R/p.T {
		return 0
	}
	sum := 1 / p.d
	return sum * p.d
}

// reachProb runs the recursion from the single initial state `from`,
// reusing sc across calls. Only the rows of states that can reach the goal
// are computed, each only over its band: the own band shifted by ρ(s)
// joined with every in-edge source's band shifted by ρ(src)+ι(src,s).
// Outside it the full-grid recursion only adds ±0·w terms, and an added ±0
// changes at most the sign of a zero — which no later product or sum (the
// final one starts at +0) can carry into a non-zero value or the result.
// So the result is bitwise that of the full grid, independent of both
// Workers and scratch reuse.
func (p *prepared) reachProb(from int, sc *scratch) float64 {
	// F[s][k], k = 0..R. F is a density in the reward dimension (1/d
	// scaling), exactly as in the paper. Clear what a previous run of the
	// scratch left behind.
	p.reset(sc)
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
	if k := p.rho[from]; k <= p.R {
		sc.cur[from][k] = 1 / p.d
		sc.curBand[from] = band{k, k + 1}
	}
	// If the very first step already exceeds the reward bound, the mass is
	// absorbed by the barrier immediately and the probability is 0.

	// The per-state inner loop writes only next[s] and nextBand[s] for its
	// own s and reads cur and curBand (immutable within a step; an in-place
	// row is read by no other state), so partitioning states across workers
	// preserves the sequential arithmetic order per state: results are
	// bitwise identical for every workers value.
	R := p.R
	rows := func(lo, hi int) {
		cur, curBand, next, nextBand := sc.cur, sc.curBand, sc.next, sc.nextBand
		for _, s := range p.rows[lo:hi] {
			cols, vals := p.rt.RowRange(s)
			shifts := p.inShift[s][:len(cols)]
			own := curBand[s].shifted(p.rho[s], R)
			nb := own
			for e, src := range cols {
				nb = nb.union(curBand[src].shifted(shifts[e], R))
			}
			nextBand[s] = nb
			fs := next[s]
			// The stay term over the own band and zeros around it, so
			// the whole new band is written. An in-place row is cur[s]:
			// its stay term is ×1 and it grows over zeros.
			switch {
			case p.inPlace[s] || nb.empty():
			case own.empty():
				clear(fs[nb.lo:nb.end])
			default:
				clear(fs[nb.lo:own.lo])
				dst := fs[own.lo:own.end]
				src := cur[s][own.lo-p.rho[s]:]
				src = src[:len(dst)]
				sStay := p.stay[s]
				for i := range dst {
					dst[i] = src[i] * sStay
				}
				clear(fs[own.end:nb.end])
			}
			for e, srcState := range cols {
				b := curBand[srcState].shifted(shifts[e], R)
				if b.empty() {
					continue
				}
				w := vals[e] * p.d
				dst := fs[b.lo:b.end]
				src := cur[srcState][b.lo-shifts[e]:]
				src = src[:len(dst)]
				for i := range dst {
					dst[i] += src[i] * w
				}
			}
		}
	}
	// The time steps run on one team (parallel.ForSteps): its helpers live
	// for the step loop, and each time step is one step over For's chunks of
	// the rows.
	parallel.ForSteps(p.workers, len(p.rows), rows, func(step func()) {
		for j := 1; j < p.T; j++ {
			step()
			sc.cur, sc.next = sc.next, sc.cur
			sc.curBand, sc.nextBand = sc.nextBand, sc.curBand
		}
	})

	var sum float64
	p.goal.Each(func(s int) {
		b := sc.curBand[s]
		for _, v := range sc.cur[s][b.lo:b.end] {
			sum += v
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
	var v float64
	if m.IsAbsorbing(from) {
		v = p.absorbingValue(from)
	} else {
		sc := p.newScratch(opts.Pool)
		v = p.reachProb(from, sc)
		sc.release(opts.Pool)
	}
	span.End()
	opts.Obs.Counter("discretise.sources").Inc()
	return v, nil
}

// ReachProbAll runs the recursion from every state. Because it is a
// forward propagation from a point mass, this costs one run per live
// (non-absorbing) source — an absorbing source has its value in closed
// form; the runs are embarrassingly parallel and fan out across
// opts.Workers, with the source-independent precomputation (validation,
// rate transpose, reward classification) shared by all of them. Each
// per-source run is forced sequential (Workers: 1) — the fan-out already
// holds the helper budget, and run-level parallelism keeps the arithmetic
// of every run identical to the sequential path. Each fan-out worker reuses
// one scratch grid pair across all sources of its chunk, checked out of
// opts.Pool inside the chunk, so the fan-out does not allocate n·(R+1)
// floats per source.
func ReachProbAll(m *mrm.MRM, goal *mrm.StateSet, t, r float64, opts Options) ([]float64, error) {
	inner := opts
	inner.Workers = 1
	n := m.N()
	var live []int
	for s := 0; s < n; s++ {
		if !m.IsAbsorbing(s) {
			live = append(live, s)
		}
	}
	p, err := prepare(m, goal, t, r, inner, len(live), min(parallel.Resolve(opts.Workers), len(live)))
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	span := opts.Obs.StartSpan("discretise.recursion")
	for s := 0; s < n; s++ {
		if m.IsAbsorbing(s) {
			out[s] = p.absorbingValue(s)
		}
	}
	parallel.For(opts.Workers, len(live), func(lo, hi int) {
		sc := p.newScratch(opts.Pool)
		for _, s := range live[lo:hi] {
			out[s] = p.reachProb(s, sc)
		}
		sc.release(opts.Pool)
	})
	span.End()
	opts.Obs.Counter("discretise.sources").Add(int64(n))
	return out, nil
}
