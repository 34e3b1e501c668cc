// Package sericola implements the occupation-time distribution algorithm of
// Section 4.4 of the paper, based on B. Sericola, "Occupation times in
// Markov processes", Stochastic Models 16(5), 2000 (Theorem 5.6).
//
// For an MRM with distinct rewards ρ₀ < ρ₁ < … < ρ_m (ρ₀ = 0) it computes
//
//	H_{ij}(t, r) = Pr{Y_t > r, X_t = j | X₀ = i}
//
// for r in the band [ρ_{h−1}·t, ρ_h·t) via uniformisation:
//
//	H(t,r) = Σ_{n≥0} e^{-λt}(λt)ⁿ/n! · Σ_{k=0}^{n} C(n,k) x_h^k (1-x_h)^{n-k} · C(h,n,k)
//
// with x_h = (r − ρ_{h−1}t)/((ρ_h − ρ_{h−1})t) and matrices C(h,n,k)
// defined by a band-wise convex-combination recursion. The matrices satisfy
// 0 ≤ C(h,n,k) ≤ Pⁿ (Sericola, Cor. 5.8), so the inner sum is bounded by 1
// and the Poisson tail yields the a-priori truncation point N_ε — the only
// one of the paper's three procedures with an a-priori error bound.
//
// Theorem 2 of the paper only ever reads the goal-set columns of H, so the
// recursion is carried on n×g slices (g = |goal|) rather than full n×n
// matrices: the up/down sweeps are row-local and the P·C products act
// column-wise, making the restriction exact — entry for entry, the sliced
// path performs the identical arithmetic as the full-width one (see
// Options.FullWidth and the crosscheck suite).
package sericola

import (
	"errors"
	"fmt"

	"github.com/performability/csrl/internal/graph"
	"github.com/performability/csrl/internal/mrm"
	"github.com/performability/csrl/internal/numeric"
	"github.com/performability/csrl/internal/obs"
	"github.com/performability/csrl/internal/parallel"
	"github.com/performability/csrl/internal/sparse"
	"github.com/performability/csrl/internal/transient"
)

// Options configures the computation.
type Options struct {
	// Epsilon is the a-priori truncation error bound ε (Table 2 sweeps it).
	Epsilon float64
	// Lambda overrides the uniformisation rate (0 = automatic).
	Lambda float64
	// Workers bounds the parallelism of the per-level row sweeps:
	// 0 = runtime.GOMAXPROCS(0), 1 = sequential. The recursion is
	// partitioned by matrix row, and every row's arithmetic runs in the
	// sequential order, so results are bitwise independent of Workers.
	Workers int
	// FullWidth forces the recursion to carry all n columns instead of only
	// the g goal columns. The sliced default performs the identical
	// arithmetic on the goal columns, so results are bitwise equal; the
	// knob exists for that crosscheck (the golden and crosscheck tests),
	// not for production use, and nothing outside the tests sets it.
	FullWidth bool
	// Cache, when non-nil, memoises the uniformised matrix and the
	// Poisson weight table; the vacuous-bound leg hands it on to its
	// backward sweep.
	Cache transient.Cache
	// Pool, when non-nil, supplies the slab of the recursion's band
	// tensors, its n×g accumulators and the scratch of the transient
	// fallback. All of them are checked back in before ReachProbBatch
	// returns; the result vectors are plain allocations owned by the
	// caller.
	Pool *sparse.VecPool
	// Obs, when non-nil, receives the numerics-observability signals: the
	// Poisson series remainder past N_ε in the error-budget ledger, the
	// clamp residue as an indicative entry, level/band gauges and the
	// recursion span. It is forwarded to the transient fallback.
	Obs *obs.Recorder
}

// ErrTooLarge reports a recursion whose tensors would exceed maxHeld cells
// or whose work would exceed maxWork.
var ErrTooLarge = errors.New("sericola: recursion too large")

// maxHeld caps the float64 cells the recursion holds at once (1 GiB): the
// 2·m band tensors of n·(N+1)·g cells, Pⁿ and its successor, and one n×g
// accumulator per target plus the transient one. maxWork caps
// levels²·bands·(nnz + n)·g with levels = N+1, about twice the
// multiply-adds of the products and sweeps (nnz + n bounds the stored
// entries of the uniformised matrix). The recursion gets through 4.5e8
// (Q3, g = 1) to 8e8 (cluster:4–12, g ≈ n) of these units per second on
// one core of a 2-vCPU x86-64 host, so a call at the cap runs for three to
// five minutes. ReachProbBatch refuses a request beyond either cap with
// ErrTooLarge before it allocates or computes anything of the recursion.
// Without the caps, P=? [ !down U{t<=96, r<=50} down ] on cluster:60 (1 831
// lumped states, 118 bands, N = 582) would hold 1.9 GiB and run for a
// quarter of an hour, and larger requests would end the process with a
// fatal out-of-memory error instead of an error return.
const (
	maxHeld = 1 << 27
	maxWork = 1 << 37
)

// runSize returns the float64 cells run holds — everything it checks out
// of the pool — and its work in the units of maxWork, for n states, g
// carried columns, mBands bands, nSteps+1 levels, nTargets banded bounds
// and a rate matrix of nnz stored entries. The float64 arithmetic cannot
// overflow on any size.
func runSize(n, g, mBands, nSteps, nTargets, nnz int) (held, work float64) {
	levels, cells := float64(nSteps+1), float64(n)*float64(g)
	held = (2 + 2*float64(mBands)*levels + float64(nTargets+1)) * cells
	work = levels * levels * float64(mBands) * float64(nnz+n) * float64(g)
	return held, work
}

// DefaultOptions matches the most accurate row of Table 2.
func DefaultOptions() Options { return Options{Epsilon: 1e-8} }

// clampTol is the symmetric tolerance for floating-point cancellation in
// the final goal-column sums: values inside [−clampTol, 0) and
// (1, 1+clampTol] are clamped to the nearest bound, values further outside
// [0,1] are reported as a numerical failure instead of silently returned.
const clampTol = 1e-9

// Result carries the reachability values and the number of uniformisation
// steps N that were needed (column "N" of Table 2).
type Result struct {
	// Values[i] = Pr{Y_t ≤ r, X_t ∈ goal | X₀ = i}.
	Values []float64
	// N is the truncation point N_ε of the uniformisation series.
	N int
}

// ReachProbAll computes Pr{Y_t ≤ r, X_t ∈ goal | X₀ = i} for every state i,
// the quantity required by Theorem 2 of the paper. It is the batch of one:
// see ReachProbBatch for several reward bounds sharing one recursion.
//
//numerics:domain t=rate r=rate
func ReachProbAll(m *mrm.MRM, goal *mrm.StateSet, t, r float64, opts Options) (*Result, error) {
	res, err := ReachProbBatch(m, goal, t, []float64{r}, opts)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// target is one reward bound's coordinates in the recursion: the band h
// with rShift ∈ [ρ_{h−1}t, ρ_h t) and the position x inside it. The
// C(h,n,k) recursion itself never reads r — bounds differ only in which
// band's matrices they read and in their binomial accumulation weights —
// which is exactly why a batch shares one recursion pass.
type target struct {
	h int
	x float64
}

// ReachProbBatch computes ReachProbAll for several reward bounds rs that
// share the model, goal set and time bound t, advancing all of them
// through a single C(h,n,k) recursion: the level matrices and the
// Poisson-weighted transient term are computed once, and each bound only
// adds its own binomial-weighted accumulation. When every bound lands on
// the same leg — all banded, or all vacuous — results[ri] is bitwise
// equal to ReachProbAll(m, goal, t, rs[ri], opts): the per-bound
// accumulators add the identical terms in the identical order, at a
// recursion cost of one instead of len(rs). A mixed batch runs both the
// transient sweep and the recursion, so the ε budget is split half per
// leg (see splitBudget); every result still meets the ε contract, at
// slightly tighter truncation points than the unbatched calls would use.
// Degenerate bounds (certainly exceeded, or vacuous against the maximal
// accumulable reward) are resolved without touching the recursion;
// vacuous bounds share one transient sweep.
//
//numerics:domain t=rate rs=rate
func ReachProbBatch(m *mrm.MRM, goal *mrm.StateSet, t float64, rs []float64, opts Options) ([]*Result, error) {
	if opts.Epsilon <= 0 {
		opts.Epsilon = DefaultOptions().Epsilon
	}
	n := m.N()
	if goal.Universe() != n {
		return nil, fmt.Errorf("sericola: goal universe %d for %d states", goal.Universe(), n)
	}
	if m.HasImpulses() {
		return nil, fmt.Errorf("sericola: %w", mrm.ErrImpulsesUnsupported)
	}
	// !(x >= 0) also refuses NaN, which every later comparison would
	// silently route into a NaN result.
	if !(t >= 0) {
		return nil, fmt.Errorf("sericola: time bound t=%v must be >= 0", t)
	}
	for _, r := range rs {
		if !(r >= 0) {
			return nil, fmt.Errorf("sericola: reward bound r=%v must be >= 0", r)
		}
	}
	results := make([]*Result, len(rs))
	if len(rs) == 0 {
		return results, nil
	}
	if t == 0 {
		// Y_0 = 0 ≤ r; the chain has not moved.
		for ri := range rs {
			res := &Result{Values: make([]float64, n)}
			goal.Each(func(i int) { res.Values[i] = 1 })
			results[ri] = res
		}
		return results, nil
	}

	// Shift rewards so that the smallest reward is 0 (the theorem requires
	// ρ₀ = 0): Y_t = ρ_min·t + Y'_t deterministically.
	rewards := m.DistinctRewards()
	rhoMin := rewards[0]
	shifted := make([]float64, len(rewards))
	for i, v := range rewards {
		shifted[i] = v - rhoMin
	}
	mBands := len(shifted) - 1 // shifted[0] = 0 = ρ₀

	lambda := opts.Lambda
	if lambda == 0 {
		lambda = m.UniformisationRate()
	}

	// Classify every bound: certainly exceeded (zero result), vacuous
	// (plain transient analysis) or banded (a recursion target).
	var targets []target
	var tgtResult []int // tgtResult[ti] = index into results
	var vacuous []int
	for ri, r := range rs {
		rShift := r - rhoMin*t
		switch {
		case rShift < 0:
			// The accumulated reward exceeds r with certainty.
			results[ri] = &Result{Values: make([]float64, n)}
		case mBands == 0 || rShift >= shifted[mBands]*t:
			// Either all rewards are equal (Y_t = ρ·t ≤ r guaranteed by the
			// rShift check above) or the bound exceeds the maximal
			// accumulable reward: the reward constraint is vacuous and a
			// plain transient analysis suffices.
			vacuous = append(vacuous, ri)
		default:
			// Locate the band h with rShift ∈ [ρ_{h-1}t, ρ_h t).
			h := 1
			for shifted[h]*t <= rShift {
				h++
			}
			x := (rShift - shifted[h-1]*t) / ((shifted[h] - shifted[h-1]) * t)
			targets = append(targets, target{h: h, x: x})
			tgtResult = append(tgtResult, ri)
		}
	}
	sweepEps, bandEps := splitBudget(opts.Epsilon, len(vacuous), len(targets))
	// One backward sweep serves every vacuous bound; each Result owns its
	// Values, so later entries get copies.
	vacuousLeg := func() error {
		if len(vacuous) == 0 {
			return nil
		}
		vals, err := transientGoal(m, goal, t, lambda, sweepEps, opts)
		if err != nil {
			return err
		}
		for vi, ri := range vacuous {
			if vi == 0 {
				results[ri] = &Result{Values: vals}
				continue
			}
			cp := make([]float64, n)
			copy(cp, vals)
			results[ri] = &Result{Values: cp}
		}
		return nil
	}
	if len(targets) == 0 {
		if err := vacuousLeg(); err != nil {
			return nil, err
		}
		return results, nil
	}

	// Goal-column slicing: the recursion only needs the columns Theorem 2
	// reads. FullWidth carries every column for the bitwise crosscheck.
	cols := goal.Slice()
	if opts.FullWidth {
		cols = make([]int, n)
		for i := range cols {
			cols[i] = i
		}
	}
	g := len(cols)

	// Size the recursion before either leg runs, so a request beyond the
	// caps is refused without spending the transient sweep on it.
	nSteps, err := numeric.PoissonTruncation(lambda*t, bandEps)
	if err != nil {
		return nil, fmt.Errorf("sericola: %w", err)
	}
	held, work := runSize(n, g, mBands, nSteps, len(targets), m.Rates().NNZ())
	if held > maxHeld || work > maxWork {
		return nil, fmt.Errorf("%w: %d states × %d columns, %d bands, N=%d levels: %v cells held (cap %d), %v work (cap %d)",
			ErrTooLarge, n, g, mBands, nSteps, held, maxHeld, work, maxWork)
	}
	if err := vacuousLeg(); err != nil {
		return nil, err
	}

	var p *sparse.CSR
	if opts.Cache != nil {
		p, err = opts.Cache.Uniformised(m, lambda)
	} else {
		p, err = m.Uniformised(lambda)
	}
	if err != nil {
		return nil, fmt.Errorf("sericola: %w", err)
	}

	// Per-state shifted rewards and band classification.
	rho := make([]float64, n)
	for s := 0; s < n; s++ {
		rho[s] = m.Reward(s) - rhoMin
	}

	// The Poisson pmf terms come from internal/numeric's log-space table
	// (see the expunderflow analyzer), sized by level ≤ nSteps; run
	// advances the binomial weights by numeric.BinomialStep.
	poisPMF, err := numeric.PoissonPMFTable(lambda*t, nSteps)
	if err != nil {
		return nil, fmt.Errorf("sericola: %w", err)
	}

	if opts.Obs != nil {
		// The a-priori bound guarantees the mass past N_ε is below ε; the
		// ledger records the actual series remainder 1 − Σ_{n≤N} pois(n),
		// which the inner sums (bounded by 1, Cor. 5.8) cannot exceed. The
		// batch runs the truncated series once, so it charges once.
		var kept float64
		for k := 0; k <= nSteps; k++ {
			kept += poisPMF(k)
		}
		rem := 1 - kept
		if rem < 0 {
			rem = 0
		}
		opts.Obs.Charge("sericola", "series-remainder", rem)
		opts.Obs.Gauge("sericola.levels").SetMax(float64(nSteps))
		opts.Obs.Gauge("sericola.bands").SetMax(float64(mBands))
	}

	span := opts.Obs.StartSpan("sericola.recursion")
	hMats, tMat := run(p, rho, shifted, liveRows(m, rho), targets, poisPMF, nSteps, opts.Workers, cols, opts.Pool)
	span.End()
	putAll := func() {
		for _, hm := range hMats {
			opts.Pool.Put(hm)
		}
		opts.Pool.Put(tMat)
	}

	for ti := range targets {
		hMat := hMats[ti]
		res := &Result{Values: make([]float64, n), N: nSteps}
		var clampResidue float64
		for i := 0; i < n; i++ {
			var v float64
			for j, col := range cols {
				// In sliced mode every carried column is a goal column; in
				// full-width mode restrict the sum to them, in the same
				// ascending order, so both paths add the identical terms.
				if opts.FullWidth && !goal.Contains(col) {
					continue
				}
				v += tMat[i*g+j] - hMat[i*g+j]
			}
			// Floating-point cancellation can land slightly outside [0,1] on
			// either side; clamp symmetrically within clampTol and refuse to
			// return silently wrong probabilities beyond it.
			switch {
			case v < 0:
				if v < -clampTol {
					putAll()
					return nil, fmt.Errorf("sericola: value %g at state %d is below 0 beyond the %g cancellation tolerance", v, i, clampTol)
				}
				if -v > clampResidue {
					clampResidue = -v
				}
				v = 0
			case v > 1:
				if v > 1+clampTol {
					putAll()
					return nil, fmt.Errorf("sericola: value %g at state %d exceeds 1 beyond the %g cancellation tolerance", v, i, clampTol)
				}
				if v-1 > clampResidue {
					clampResidue = v - 1
				}
				v = 1
			}
			res.Values[i] = v
		}
		if opts.Obs != nil && clampResidue > 0 {
			// Cancellation noise absorbed by the [0,1] clamp — a measured
			// round-off magnitude, not a provable truncation bound, so it
			// rides in the indicative section, one entry per bound exactly
			// as the unbatched calls would charge.
			opts.Obs.ChargeIndicative("sericola", "clamp-residue", clampResidue)
		}
		results[tgtResult[ti]] = res
	}
	putAll()
	return results, nil
}

// ReachProb computes the Theorem 2 quantity from the model's initial
// distribution.
//
//numerics:domain prob t=rate r=rate
func ReachProb(m *mrm.MRM, goal *mrm.StateSet, t, r float64, opts Options) (float64, int, error) {
	res, err := ReachProbAll(m, goal, t, r, opts)
	if err != nil {
		return 0, 0, err
	}
	var v float64
	for s, p := range m.InitView() {
		v += p * res.Values[s]
	}
	return v, res.N, nil
}

// runGrain is the minimum matrix size n·g before the per-level row sweeps
// fan out across workers.
const runGrain = 2048

// liveRows returns, in increasing order, the states from which a state of
// positive shifted reward rho can be reached, the state itself included.
// From every other state — a dead row — Y_t stays at ρ_min·t, so
// Pr{Y'_t > r'} is zero for every r' ≥ 0 and its C(h,n,k) row is zero in
// every band at every level. The absorbing goal and fail states of a
// Theorem-1 reduction are dead.
func liveRows(m *mrm.MRM, rho []float64) []int {
	n := m.N()
	positive := mrm.NewStateSet(n)
	for s, r := range rho {
		if r > 0 {
			positive.Add(s)
		}
	}
	every := mrm.NewStateSet(n).Complement()
	return graph.FromRates(m.Rates()).BackwardReachable(every, positive).Slice()
}

// run executes the C(h,n,k) recursion restricted to the given column set
// and returns (per-target H matrices, Pois-weighted transient matrix), all
// flattened row-major n×g with column j holding original column cols[j].
// live lists the live rows (liveRows) in increasing order. poisPMF is the
// precomputed Poisson pmf table covering 0..nSteps.
//
// Layout: each band h keeps its level's matrices C(h, level, 0..level) in
// one tensor stored row by row with k inside each row — entry (i, k, j) at
// i·stride + k·g + j, stride = (nSteps+1)·g — so one state's whole k range
// is contiguous. Two tensors per band hold the previous and the current
// level and swap roles between levels.
//
// Dead rows: only live rows are computed. A dead row's tensor rows stay
// +0, as the pooled slab hands them out and nothing writes them, which is
// the value the full recursion computes for them; its Pⁿ row and its tMat
// term are still computed. The product rows keep only the stored entries
// of a live row that read a live row, in stored-entry order, built once
// per run. Dropping the others leaves every bit in place: P ≥ 0 (the
// uniformised diagonal is clamped) and C ≥ 0, so each dropped term is
// v·(+0) = +0 added to a sum that is ≥ +0, and x + (+0) = x.
//
// Products: for live row i the products (P·C(h, level−1, k))[i, ·] for
// every k are written straight into row i of the current tensor — into
// k-slots 1..level for an up row, 0..level−1 for a down row — in one pass
// that sets each entry to 0 + v₀·s₀ + v₁·s₁ + … over the row's product
// entries (l, v), left to right in stored-entry order, with sₑ the source
// row C(h, level−1)[l, ·] (products). Each entry thus sums the row's terms
// from zero in stored-entry order, exactly like sparse.MulBlockRows. The
// convex-combination sweep then runs in place over the row: an up row's
// C(h,level,k) = a·C(h,level,k−1) + b·PC(k−1) reads the product from its
// own slot k before overwriting it, a down row's C(h,level,k) =
// a·C(h,level,k+1) + b·PC(k) likewise. The row classification (upTo) and
// the coefficients a, b are computed once per run with the same
// expressions a per-level computation would use.
//
// Groups: at g = 1 every sweep step is one multiply-add waiting on the
// previous one. A row's mBands sweeps run in its chain order — up
// h = 1..upTo, then down h = m..upTo+1 — and each waits on the one
// before it only through its base. So the live rows of a part go in
// groups of up to four, and the w-th sweeps of a group's rows, which
// read only their own rows, run side by side in one loop (sweepChains),
// up and down mixed, each keeping its own expression sequence. At g > 1
// the row loop already runs g independent chains and stays per row.
//
// Batching: the level tensors cover every band h, so they are
// target-independent — a target only selects which band it reads
// (target.h) and the binomial weights terms[ti] it reads it with. Each
// additional target therefore costs one extra n×g accumulator and one
// binomial row of N+1 floats, advanced by Pascal's rule at one
// multiply-add per term and level (numeric.BinomialStep, no Exp), while
// the recursion itself (the dominant O(m·N²) row products) runs once for
// the whole batch. A target's row depends only on its x and the level, so
// it is the same in a batch as alone. For each target the accumulation
// performs the identical floating-point operations in the identical order
// as a single-target run, so batch results are bitwise equal to unbatched
// ones. A dead row's hMat row is never touched and
// stays +0, which is what adding its +0 tensor entries would leave.
//
// Column slicing is exact: every operation of the recursion — the PC
// products (P·C)[i,j] = Σ_l P[i,l]·C[l,j], the Pⁿ update, the up/down
// convex-combination sweeps and the hMat/tMat accumulation — computes
// entry (i,j) from column-j entries only, so restricting to the goal
// columns performs, entry for entry, the identical floating-point
// operations in the identical order as the full-width recursion.
//
// Concurrency: the whole per-level computation is row-independent. For a
// fixed row i, the products and the Pⁿ update read only the previous
// level's tensors and Pⁿ (immutable within the level), and the sweeps
// read only row i. Because the bands are increasing, up(h,i) ⇔ h ≤
// upTo[i]: the up-sweep base C(h,n,0) = C(h−1,n,n) comes from this row's
// own band-(h−1) up sweep (Pⁿ⁺¹'s row for h = 1), and the down-sweep base
// C(h,n,n) = C(h+1,n,0) from its own band-(h+1) down sweep (zero for the
// top band). The accumulation into hMat/tMat is row-local too, so each
// level needs exactly one parallel region over contiguous row ranges,
// with every row computed in the sequential order — results are bitwise
// identical for every workers value, however the parts cut the groups.
//
// Work and memory: with L live rows and nnzL product entries, a level
// costs Σ_h (nnzL + L)·level·g multiply-adds, the run about
// m·N²·(nnzL + L)·g/2, plus the Pⁿ update and tMat term over all n rows;
// the run holds 2·m tensors of n·(N+1)·g floats plus Pⁿ and its
// successor. ReachProbBatch sizes the request on all n rows and the full
// nnz and refuses sizes beyond maxHeld and maxWork (ErrTooLarge) before
// calling run. All of it is one pooled slab (nil-safe), checked out once
// and checked back in before run returns; only the returned hMats/tMat
// stay checked out, and ReachProbBatch returns those after summing.
func run(p *sparse.CSR, rho, bands []float64, live []int, targets []target, poisPMF func(int) float64, nSteps, workers int, cols []int, pool *sparse.VecPool) (hMats [][]float64, tMat []float64) {
	n := p.Dim()
	g := len(cols)
	mBands := len(bands) - 1
	if n*g < runGrain {
		workers = 1
	}

	// Row classification and sweep coefficients, at index i·(m+1)+h:
	// up(h, i) ⇔ ρ_i ≥ ρ_h, and because bands are consecutive distinct
	// rewards, ¬up(h,i) ⇔ ρ_i ≤ ρ_{h−1}.
	upTo := make([]int, n)
	coefA := make([]float64, n*(mBands+1))
	coefB := make([]float64, n*(mBands+1))
	for i := 0; i < n; i++ {
		for h := 1; h <= mBands; h++ {
			c := i*(mBands+1) + h
			dh := bands[h] - bands[h-1]
			if rho[i] >= bands[h] {
				upTo[i] = h
				coefA[c] = (rho[i] - bands[h]) / (rho[i] - bands[h-1])
				coefB[c] = dh / (rho[i] - bands[h-1])
			} else {
				coefA[c] = (bands[h-1] - rho[i]) / (bands[h] - rho[i])
				coefB[c] = dh / (bands[h] - rho[i])
			}
		}
	}

	sz := n * g
	stride := (nSteps + 1) * g
	tsz := n * stride
	slab := pool.Get(2*sz + 2*mBands*tsz)
	// Pⁿ (restricted to the carried columns) and its successor.
	pn, pnNext := slab[:sz:sz], slab[sz:2*sz:2*sz]
	// cur[h] holds C(h, level, ·), prev[h] C(h, level−1, ·).
	cur := make([][]float64, mBands+1)
	prev := make([][]float64, mBands+1)
	for h, off := 1, 2*sz; h <= mBands; h, off = h+1, off+2*tsz {
		cur[h] = slab[off : off+tsz : off+tsz]
		prev[h] = slab[off+tsz : off+2*tsz : off+2*tsz]
	}

	// Product rows: the r-th live row's entries (l, v) of P with l live, in
	// stored-entry order, l kept as its tensor offset l·stride. livePos[i]
	// counts the live rows below i, so a part [lo, hi) owns the live rows
	// live[livePos[lo]:livePos[hi]].
	livePos := make([]int, n+1)
	for _, i := range live {
		livePos[i+1] = 1
	}
	for i := 0; i < n; i++ {
		livePos[i+1] += livePos[i]
	}
	prodPtr := make([]int, len(live)+1)
	prodOff := make([]int, 0, p.NNZ())
	prodVal := make([]float64, 0, p.NNZ())
	for r, i := range live {
		pCols, pVals := p.RowRange(i)
		for e, l := range pCols {
			if livePos[l+1] > livePos[l] { // l is live
				prodOff = append(prodOff, l*stride)
				prodVal = append(prodVal, pVals[e])
			}
		}
		prodPtr[r+1] = len(prodOff)
	}

	hMats = make([][]float64, len(targets))
	for ti := range hMats {
		hMats[ti] = pool.Get(sz)
	}
	tMat = pool.Get(sz)

	// The per-level inputs are captured by reference, so the bodies below
	// are built once and the level loop does not allocate closures.
	var (
		level int
		w     float64
	)
	// The accumulation weights of the current level, one list per target:
	// terms[ti] holds w·binom(k) for every k whose binomial mass is
	// non-zero, built sequentially before each level's parallel region
	// (read-only inside it) — once per level, not once per worker. The
	// masses binom[ti][k] = C(level,k)·x^k·(1−x)^(level−k) of target ti
	// are advanced from the level-0 row [1] by Pascal's rule at every
	// level, whether or not the level's Poisson weight w is zero.
	binom := make([][]float64, len(targets))
	for ti := range binom {
		binom[ti] = make([]float64, nSteps+1)
		binom[ti][0] = 1
	}
	terms := make([][]term, len(targets))
	weigh := func() {
		for ti, row := range binom {
			terms[ti] = terms[ti][:0]
			for k, bw := range row[:level+1] {
				if bw != 0 {
					terms[ti] = append(terms[ti], term{k: k, f: w * bw})
				}
			}
		}
	}

	// Level 0: P⁰[i, cols[j]] = 1 iff i = cols[j], and C(h,0,0) =
	// diag(1{up(h,i)}), restricted columns.
	for j, col := range cols {
		pn[col*g+j] = 1
		for h := 1; h <= upTo[col]; h++ {
			cur[h][col*stride+j] = 1
		}
	}

	// accumulate adds the level's Poisson-weighted terms of rows lo..hi−1
	// to tMat and, for the live rows among them, to every target's hMat;
	// pl holds P^level. Each entry adds its terms in increasing k.
	accumulate := func(lo, hi int, pl []float64) {
		for idx := lo * g; idx < hi*g; idx++ {
			tMat[idx] += w * pl[idx]
		}
		for ti, tg := range targets {
			c, hM, ts := cur[tg.h], hMats[ti], terms[ti]
			for _, i := range live[livePos[lo]:livePos[hi]] {
				hRow := hM[i*g : (i+1)*g]
				cRow := c[i*stride : (i+1)*stride]
				for j, s := range hRow {
					for _, tm := range ts {
						s += tm.f * cRow[tm.k*g+j]
					}
					hRow[j] = s
				}
			}
		}
	}
	// sweepRow runs live row r's products and sweeps at g > 1: up rows in
	// increasing h and k, then down rows in decreasing h and k.
	sweepRow := func(r int) {
		i := live[r]
		offs, vals := prodOff[prodPtr[r]:prodPtr[r+1]], prodVal[prodPtr[r]:prodPtr[r+1]]
		width := level * g
		at := i * stride
		coef := i * (mBands + 1)
		base := pnNext[i*g : (i+1)*g]
		for h := 1; h <= upTo[i]; h++ {
			row := cur[h][at : at+width+g]
			products(row[g:], prev[h], offs, vals)
			copy(row[:g], base)
			sweepUp(row, g, coefA[coef+h], coefB[coef+h])
			base = row[width:]
		}
		// The top band's base C(m,n,n) is zero, cleared explicitly — the
		// tensors are recycled.
		for h := mBands; h > upTo[i]; h-- {
			row := cur[h][at : at+width+g]
			products(row[:width], prev[h], offs, vals)
			if h == mBands {
				clear(row[width:])
			} else {
				copy(row[width:], cur[h+1][at:at+g])
			}
			sweepDown(row, g, coefA[coef+h], coefB[coef+h])
		}
	}
	// sweepGroup runs the products and sweeps of live rows r0..r1−1 (at
	// most four) at g = 1: for each w, the w-th sweep of every row in the
	// group, side by side. An empty place in the group gets a chain that
	// stays on one local cell with a = b = 0.
	sweepGroup := func(r0, r1 int) {
		var sink [1]float64
		var group [4]chain
		for c := range group {
			group[c] = chain{row: sink[:]}
		}
		for wi := 0; wi < mBands; wi++ {
			for r := r0; r < r1; r++ {
				i := live[r]
				offs, vals := prodOff[prodPtr[r]:prodPtr[r+1]], prodVal[prodPtr[r]:prodPtr[r+1]]
				at := i * stride
				if wi < upTo[i] {
					h := wi + 1
					row := cur[h][at : at+level+1]
					products(row[1:], prev[h], offs, vals)
					if h == 1 {
						row[0] = pnNext[i]
					} else {
						row[0] = cur[h-1][at+level]
					}
					c := i*(mBands+1) + h
					group[r-r0] = chain{row: row, x: row[0], a: coefA[c], b: coefB[c], i: 1, step: 1}
				} else {
					h := mBands - (wi - upTo[i])
					row := cur[h][at : at+level+1]
					products(row[:level], prev[h], offs, vals)
					if h == mBands {
						row[level] = 0
					} else {
						row[level] = cur[h+1][at]
					}
					c := i*(mBands+1) + h
					group[r-r0] = chain{row: row, x: row[level], a: coefA[c], b: coefB[c], i: level - 1, step: -1}
				}
			}
			sweepChains(&group, level)
		}
	}
	levelBody := func(lo, hi int) {
		p.MulBlockRows(pnNext, pn, g, lo, hi)
		r0, r1 := livePos[lo], livePos[hi]
		if g == 1 {
			for r := r0; r < r1; r += 4 {
				sweepGroup(r, min(r+4, r1))
			}
		} else {
			for r := r0; r < r1; r++ {
				sweepRow(r)
			}
		}
		if w != 0 {
			accumulate(lo, hi, pnNext)
		}
	}

	w = poisPMF(0)
	if w != 0 {
		weigh()
		accumulate(0, n, pn)
	}
	// The levels run on one team (parallel.ForSteps): its helpers live for
	// the level loop, and each level is one step over For's row chunks.
	parallel.ForSteps(workers, n, levelBody, func(step func()) {
		for level = 1; level <= nSteps; level++ {
			for h := 1; h <= mBands; h++ {
				prev[h], cur[h] = cur[h], prev[h]
			}
			for ti, tg := range targets {
				numeric.BinomialStep(binom[ti][:level+1], tg.x)
			}
			w = poisPMF(level)
			if w != 0 {
				weigh()
			}
			// One step of the team per level: each part owns a contiguous row
			// range and runs the full per-row pipeline — the Pⁿ update (into
			// pnNext, which holds P^level until the swap below), the products,
			// the up/down sweeps and the accumulation — in sequential order.
			step()
			pn, pnNext = pnNext, pn
		}
	})
	// Check the slab back in (hMats/tMat stay out; the caller returns them
	// after the goal-column summation).
	pool.Put(slab)
	return hMats, tMat
}

// term is one accumulation weight of a level: w·binom(k) for the k-th
// matrix of the target's band.
type term struct {
	k int
	f float64
}

// chain is one g = 1 sweep in flight: the running value x, the row it
// writes, the next slot i and the step (+1 up, −1 down, 0 for an empty
// place in a group), and the sweep coefficients a, b.
type chain struct {
	row     []float64
	x, a, b float64
	i, step int
}

// sweepChains runs four g = 1 sweeps of steps steps each side by side.
// Each keeps its own sequence x = a·x + b·row[i]; row[i] = x, exactly
// what a lone sweep computes (an up sweep from slot 1 upward, a down
// sweep from slot level−1 downward), so interleaving moves no bit; the
// four chains overlap their multiply-add latencies.
func sweepChains(c *[4]chain, steps int) {
	r0, x0, a0, b0, i0, d0 := c[0].row, c[0].x, c[0].a, c[0].b, c[0].i, c[0].step
	r1, x1, a1, b1, i1, d1 := c[1].row, c[1].x, c[1].a, c[1].b, c[1].i, c[1].step
	r2, x2, a2, b2, i2, d2 := c[2].row, c[2].x, c[2].a, c[2].b, c[2].i, c[2].step
	r3, x3, a3, b3, i3, d3 := c[3].row, c[3].x, c[3].a, c[3].b, c[3].i, c[3].step
	for s := 0; s < steps; s++ {
		x0 = a0*x0 + b0*r0[i0]
		r0[i0] = x0
		i0 += d0
		x1 = a1*x1 + b1*r1[i1]
		r1[i1] = x1
		i1 += d1
		x2 = a2*x2 + b2*r2[i2]
		r2[i2] = x2
		i2 += d2
		x3 = a3*x3 + b3*r3[i3]
		r3[i3] = x3
		i3 += d3
	}
}

// sweepUp runs an up row's convex combination in place over its k-slots
// (g entries each): slot 0 holds C(h,n,0) and slot k ≥ 1 holds PC(k−1) on
// entry and C(h,n,k) = a·C(h,n,k−1) + b·PC(k−1) on return.
func sweepUp(row []float64, g int, a, b float64) {
	src, dst := row[:len(row)-g], row[g:]
	src = src[:len(dst)]
	for k := range dst {
		dst[k] = a*src[k] + b*dst[k]
	}
}

// sweepDown is sweepUp's mirror for a down row: the last slot holds
// C(h,n,n) and slot k < n holds PC(k) on entry and C(h,n,k) =
// a·C(h,n,k+1) + b·PC(k) on return, computed in decreasing k.
func sweepDown(row []float64, g int, a, b float64) {
	src, dst := row[g:], row[:len(row)-g]
	src = src[:len(dst)]
	for k := len(dst) - 1; k >= 0; k-- {
		dst[k] = a*src[k] + b*dst[k]
	}
}

// products sets dst[idx] = 0 + v₀·s₀[idx] + v₁·s₁[idx] + … for every idx,
// with sₑ = src[offs[e]:] and vₑ = vals[e], summed left to right in entry
// order: one pass for the first four entries, one AXPY for each further
// one. The leading 0 + is kept so a −0 product still sums to +0, as the
// dot product sparse.MulBlockRows computes for the entry.
func products(dst, src []float64, offs []int, vals []float64) {
	vals = vals[:len(offs)]
	n := len(dst)
	switch len(offs) {
	case 0:
		clear(dst)
	case 1:
		v0, s0 := vals[0], src[offs[0]:][:n]
		for k := range dst {
			dst[k] = 0 + v0*s0[k]
		}
	case 2:
		v0, s0 := vals[0], src[offs[0]:][:n]
		v1, s1 := vals[1], src[offs[1]:][:n]
		for k := range dst {
			dst[k] = 0 + v0*s0[k] + v1*s1[k]
		}
	case 3:
		v0, s0 := vals[0], src[offs[0]:][:n]
		v1, s1 := vals[1], src[offs[1]:][:n]
		v2, s2 := vals[2], src[offs[2]:][:n]
		for k := range dst {
			dst[k] = 0 + v0*s0[k] + v1*s1[k] + v2*s2[k]
		}
	default:
		v0, s0 := vals[0], src[offs[0]:][:n]
		v1, s1 := vals[1], src[offs[1]:][:n]
		v2, s2 := vals[2], src[offs[2]:][:n]
		v3, s3 := vals[3], src[offs[3]:][:n]
		for k := range dst {
			dst[k] = 0 + v0*s0[k] + v1*s1[k] + v2*s2[k] + v3*s3[k]
		}
		for e := 4; e < len(offs); e++ {
			v, s := vals[e], src[offs[e]:][:n]
			for k := range dst {
				dst[k] += v * s[k]
			}
		}
	}
}

// splitBudget divides the ε budget between the two truncating legs of a
// batch: the transient sweep serving the vacuous bounds and the banded
// C(h,n,k) recursion. A leg that runs alone keeps the whole budget, so a
// batch of one is bitwise-identical to the unbatched call; a mixed batch
// gives each leg ε/2 (the same split discipline as the Fox–Glynn/steady
// division in internal/transient), keeping every path's total spend at ε.
func splitBudget(eps float64, nVacuous, nBanded int) (sweepEps, bandEps float64) {
	if nVacuous == 0 {
		return 0, eps
	}
	if nBanded == 0 {
		return eps, 0
	}
	return eps / 2, eps / 2
}

// transientGoal returns Σ_{j∈goal} Pr_i{X_t = j} for all i by one backward
// uniformisation sweep — the degenerate case where the reward bound is
// vacuous. It delegates to internal/transient, which brings steady-state
// detection and pooled scratch along for free.
func transientGoal(m *mrm.MRM, goal *mrm.StateSet, t, lambda, eps float64, opts Options) ([]float64, error) {
	topts := transient.Options{
		Epsilon: eps,
		Lambda:  lambda,
		Workers: opts.Workers,
		Pool:    opts.Pool,
		Obs:     opts.Obs,
		Cache:   opts.Cache,
	}
	vals, err := transient.BackwardWeighted(m, goal.Indicator(), t, topts)
	if err != nil {
		return nil, err
	}
	// BackwardWeighted hands back a pool-borrowed buffer, but Options.Pool
	// documents the result vector as a plain allocation owned by the
	// caller — copy out and check the borrowed buffer back in.
	out := make([]float64, len(vals))
	copy(out, vals)
	opts.Pool.Put(vals)
	return out, nil
}
