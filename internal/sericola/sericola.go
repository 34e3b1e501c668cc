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
	"fmt"

	"github.com/performability/csrl/internal/mrm"
	"github.com/performability/csrl/internal/numeric"
	"github.com/performability/csrl/internal/obs"
	"github.com/performability/csrl/internal/parallel"
	"github.com/performability/csrl/internal/sparse"
	"github.com/performability/csrl/internal/transient"
)

// Cache memoises uniformised matrices and Fox–Glynn tables across calls.
// It mirrors transient.Cache structurally, so one concrete implementation
// (internal/core's memo) satisfies both. Nil disables memoisation.
type Cache interface {
	Uniformised(m *mrm.MRM, lambda float64) (*sparse.CSR, error)
	// Poisson returns the Fox–Glynn weight table; like the transient
	// package's Cache it truncates the Poisson tails, and its callers owe
	// the ledger the two tail charges.
	//numerics:truncates foxglynn/left-tail foxglynn/right-tail
	Poisson(q, eps float64) (*numeric.PoissonWeights, error)
	// Absorbing mirrors transient.Cache.Absorbing; the Sericola recursion
	// itself never derives absorbing models, but keeping the method sets
	// identical lets one Cache value flow into the transient fallbacks.
	Absorbing(m *mrm.MRM, set *mrm.StateSet, zeroReward bool) (*mrm.MRM, error)
}

// Options configures the computation.
type Options struct {
	// Epsilon is the a-priori truncation error bound ε (Table 2 sweeps it).
	Epsilon float64
	// Lambda overrides the uniformisation rate (0 = automatic).
	Lambda float64
	// Workers bounds the parallelism of the per-level row sweeps:
	// 0 = runtime.NumCPU(), 1 = the exact sequential legacy path. The
	// recursion is partitioned by matrix row, and every row's arithmetic
	// runs in the sequential order, so results are bitwise independent of
	// Workers.
	Workers int
	// FullWidth forces the recursion to carry all n columns instead of only
	// the g goal columns. The sliced default performs the identical
	// arithmetic on the goal columns, so results are bitwise equal; the
	// knob exists for that crosscheck and for the perfbench contrast, not
	// for production use.
	FullWidth bool
	// Truncate is forwarded to the transient fallback (see
	// transient.Options.Truncate). It only takes effect on forward sweeps
	// there; the vacuous-bound leg here is a backward sweep and the
	// C(h,n,k) recursion carries conditional distributions whose columns
	// cannot be dropped independently, so neither truncates today. The
	// field keeps the checker's option plumbing uniform.
	Truncate float64
	// Cache, when non-nil, memoises the uniformised matrix and the
	// Poisson weight table.
	Cache Cache
	// Pool, when non-nil, supplies the n×g matrix banks of the recursion
	// and the scratch of the transient fallback. All bank buffers are
	// checked back in before ReachProbAll returns; the result vector is a
	// plain allocation owned by the caller.
	Pool *sparse.VecPool
	// Obs, when non-nil, receives the numerics-observability signals: the
	// Poisson series remainder past N_ε in the error-budget ledger, the
	// clamp residue as an indicative entry, level/band gauges and the
	// recursion span. It is forwarded to the transient fallback.
	Obs *obs.Recorder
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
	if len(vacuous) > 0 {
		// One backward sweep serves every vacuous bound; each Result owns
		// its Values, so later entries get copies.
		vals, err := transientGoal(m, goal, t, lambda, sweepEps, opts)
		if err != nil {
			return nil, err
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
	}
	if len(targets) == 0 {
		return results, nil
	}

	nSteps, err := numeric.PoissonTruncation(lambda*t, bandEps)
	if err != nil {
		return nil, fmt.Errorf("sericola: %w", err)
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

	// Poisson and binomial pmf terms come from internal/numeric's log-space
	// helpers (see the expunderflow analyzer): level ≤ nSteps and k ≤ level
	// bound both table sizes.
	poisPMF, err := numeric.PoissonPMFTable(lambda*t, nSteps)
	if err != nil {
		return nil, fmt.Errorf("sericola: %w", err)
	}
	lf := numeric.LogFactorials(nSteps)

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

	// Goal-column slicing: the recursion only needs the columns Theorem 2
	// reads. FullWidth carries every column for the bitwise crosscheck.
	goalIdx := goal.Slice()
	cols := goalIdx
	if opts.FullWidth {
		cols = make([]int, n)
		for i := range cols {
			cols[i] = i
		}
	}
	g := len(cols)

	span := opts.Obs.StartSpan("sericola.recursion")
	hMats, tMat := run(p, rho, shifted, targets, poisPMF, lf, nSteps, opts.Workers, cols, opts.Pool)
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

// run executes the C(h,n,k) recursion restricted to the given column set
// and returns (per-target H matrices, Pois-weighted transient matrix), all
// flattened row-major n×g with column j holding original column cols[j].
// poisPMF and lf are the precomputed Poisson pmf and log-factorial tables
// covering 0..nSteps.
//
// Batching: the level matrices cur[h][k] cover every band h, so they are
// target-independent — a target only selects which band it reads
// (cur[target.h]) and the binomial row binoms[ti] it weights the read
// with. Each additional target therefore costs one extra n×g accumulator
// and one binomial row per level, while the recursion itself (the dominant
// O(m·N²) row products) runs once for the whole batch. For each target the
// accumulation performs the identical floating-point operations in the
// identical order as a single-target run, so batch results are bitwise
// equal to unbatched ones.
//
// Column slicing is exact: every operation of the recursion — the PC
// products (P·C)[i,j] = Σ_l P[i,l]·C[l,j], the Pⁿ update, the up/down
// convex-combination sweeps and the hMat/tMat accumulation — computes
// entry (i,j) from column-j entries only, so restricting to the goal
// columns performs, entry for entry, the identical floating-point
// operations in the identical order as the full-width recursion.
//
// Concurrency: the whole per-level computation is row-independent. For a
// fixed row i, the PC products and the Pⁿ update read only the previous
// level's matrices (immutable within the level), and the up/down sweeps
// read only entries of row i: the up-sweep base C(h,n,0) = C(h−1,n,n)
// stays in row i, and up(h,i) ⇒ up(h−1,i) guarantees that same-row value
// was produced by this row's own band-(h−1) sweep; dually for the
// down-sweep base via ¬up(h,i) ⇒ ¬up(h+1,i). The accumulation into
// hMat/tMat is row-local too, so each level needs exactly one parallel
// region over contiguous row ranges, with every row computed in the
// sequential order — results are bitwise identical for every workers
// value.
//
// Allocation: every n×g buffer is checked out of pool (nil-safe). The
// leased bank buffers are checked back in before run returns — always by
// the goroutine that owns the sequential bank bookkeeping, never inside
// the parallel region; only the returned hMats/tMat stay checked out, and
// ReachProbBatch returns those after summing.
func run(p *sparse.CSR, rho, bands []float64, targets []target, poisPMF func(int) float64, lf []float64, nSteps, workers int, cols []int, pool *sparse.VecPool) (hMats [][]float64, tMat []float64) {
	n := p.Dim()
	g := len(cols)
	mBands := len(bands) - 1
	if n*g < runGrain {
		workers = 1
	}

	// Row classification per band: up(h, i) ⇔ ρ_i ≥ ρ_h. Because bands are
	// consecutive distinct rewards, ¬up(h,i) ⇔ ρ_i ≤ ρ_{h−1}.
	up := make([][]bool, mBands+1)
	for h := 1; h <= mBands; h++ {
		up[h] = make([]bool, n)
		for i := 0; i < n; i++ {
			up[h][i] = rho[i] >= bands[h]
		}
	}

	sz := n * g
	// All n×g buffers of the recursion are carved out of one pooled slab.
	// The live set is known upfront — per band, the PC products hold one
	// buffer per level and the two rotating C banks grow to nSteps+1
	// buffers each, plus Pⁿ and its predecessor — so a single Get covers
	// the whole recursion and one Put checks it back in, regardless of how
	// the bank rotation below aliases the [][]float64 headers.
	nBufs := 2 + mBands*nSteps + 2*mBands*(nSteps+1)
	slab := pool.Get(nBufs * sz)
	off := 0
	newBank := func() []float64 {
		b := slab[off : off+sz : off+sz]
		off += sz
		return b
	}

	// C matrices for the previous and current level: cur[h][k], h ∈ 1..m,
	// k ∈ 0..level. Two banks of matrices are swapped between levels so
	// the O(m·N) matrices are allocated once, not once per level.
	prev := make([][][]float64, mBands+1)
	cur := make([][][]float64, mBands+1)
	spare := make([][][]float64, mBands+1) // bank reused as the next cur
	pc := make([][][]float64, mBands+1)    // pc[h][k] = P·prev[h][k]

	// Pⁿ (restricted to the carried columns) and its predecessor:
	// P⁰[i, cols[j]] = 1 iff i = cols[j].
	pn := newBank()
	for j, col := range cols {
		pn[col*g+j] = 1
	}
	pnNext := newBank()

	hMats = make([][]float64, len(targets))
	for ti := range hMats {
		hMats[ti] = pool.Get(sz)
	}
	tMat = pool.Get(sz)

	// Binomial pmf rows of the current level, one per target, recomputed
	// sequentially before each level's parallel region (read-only inside
	// it) — once per level, not once per worker.
	binoms := make([][]float64, len(targets))
	for ti := range binoms {
		binoms[ti] = make([]float64, nSteps+1)
	}

	// Level n = 0: C(h,0,0) = diag(1{up(h,i)}), restricted columns. The
	// bank headers are sized for the whole run upfront, so the rotation
	// below never re-allocates them.
	for h := 1; h <= mBands; h++ {
		c := newBank()
		for j, col := range cols {
			if up[h][col] {
				c[col*g+j] = 1
			}
		}
		bank := make([][]float64, 1, nSteps+1)
		bank[0] = c
		cur[h] = bank
	}
	accumulate := func(level int) {
		w := poisPMF(level)
		if w == 0 {
			return
		}
		for idx := 0; idx < sz; idx++ {
			tMat[idx] += w * pn[idx]
		}
		for ti := range targets {
			numeric.BinomialRow(lf, level, targets[ti].x, binoms[ti])
			ck := cur[targets[ti].h]
			hM := hMats[ti]
			for k := 0; k <= level; k++ {
				bw := binoms[ti][k]
				if bw == 0 {
					continue
				}
				c := ck[k]
				f := w * bw
				for idx := 0; idx < sz; idx++ {
					hM[idx] += f * c[idx]
				}
			}
		}
	}
	accumulate(0)

	// The per-level parallel body is hoisted out of the level loop (its
	// level-dependent inputs are captured by reference) so the loop does
	// not allocate a fresh closure per level. The row products go through
	// sparse.MulBlockRows — the multi-vector kernel's row-range core, one
	// read of the matrix's stored entries per row for all g carried
	// columns, with a register specialisation at g = 1; its zero-then-
	// accumulate order in CSR entry order keeps the products bitwise
	// identical to the previous hand-rolled flatten.
	var (
		level int
		w     float64
	)
	levelBody := func(lo, hi int) {
		// PC[h][k] = P·C(h, level−1, k) and Pⁿ, rows lo..hi−1.
		for h := 1; h <= mBands; h++ {
			for k := 0; k < level; k++ {
				p.MulBlockRows(pc[h][k], prev[h][k], g, lo, hi)
			}
		}
		p.MulBlockRows(pnNext, pn, g, lo, hi)
		// Up-row sweep: increasing h, increasing k.
		for h := 1; h <= mBands; h++ {
			dh := bands[h] - bands[h-1]
			for i := lo; i < hi; i++ {
				if !up[h][i] {
					continue
				}
				row := i * g
				// Base k = 0.
				var baseRow []float64
				if h == 1 {
					baseRow = pnNext
				} else {
					baseRow = cur[h-1][level]
				}
				copy(cur[h][0][row:row+g], baseRow[row:row+g])
				// k = 1..level.
				a := (rho[i] - bands[h]) / (rho[i] - bands[h-1])
				b := dh / (rho[i] - bands[h-1])
				for k := 1; k <= level; k++ {
					dst := cur[h][k]
					prevK := cur[h][k-1]
					pck := pc[h][k-1]
					for j := 0; j < g; j++ {
						dst[row+j] = a*prevK[row+j] + b*pck[row+j]
					}
				}
			}
		}
		// Down-row sweep: decreasing h, decreasing k.
		for h := mBands; h >= 1; h-- {
			dh := bands[h] - bands[h-1]
			for i := lo; i < hi; i++ {
				if up[h][i] {
					continue
				}
				row := i * g
				// Base k = level: C(h,n,n) = C(h+1,n,0), or 0 in the top
				// band (explicitly cleared — the buffers are recycled).
				if h < mBands {
					copy(cur[h][level][row:row+g], cur[h+1][0][row:row+g])
				} else {
					base := cur[h][level]
					for j := 0; j < g; j++ {
						base[row+j] = 0
					}
				}
				a := (bands[h-1] - rho[i]) / (bands[h] - rho[i])
				b := dh / (bands[h] - rho[i])
				for k := level - 1; k >= 0; k-- {
					dst := cur[h][k]
					nextK := cur[h][k+1]
					pck := pc[h][k]
					for j := 0; j < g; j++ {
						dst[row+j] = a*nextK[row+j] + b*pck[row+j]
					}
				}
			}
		}
		// Accumulate rows lo..hi−1 into tMat and every target's hMat
		// (row-local writes).
		if w == 0 {
			return
		}
		for idx := lo * g; idx < hi*g; idx++ {
			tMat[idx] += w * pnNext[idx]
		}
		for ti := range targets {
			ck := cur[targets[ti].h]
			hM := hMats[ti]
			for k := 0; k <= level; k++ {
				bw := binoms[ti][k]
				if bw == 0 {
					continue
				}
				c := ck[k]
				f := w * bw
				for idx := lo * g; idx < hi*g; idx++ {
					hM[idx] += f * c[idx]
				}
			}
		}
	}

	for level = 1; level <= nSteps; level++ {
		// Bank bookkeeping stays sequential: swap the matrix banks and make
		// sure every buffer the parallel region will write exists.
		for h := 1; h <= mBands; h++ {
			prev[h], spare[h] = cur[h], prev[h]
			if pc[h] == nil {
				pc[h] = make([][]float64, nSteps)
			}
			for k := 0; k < level; k++ {
				if pc[h][k] == nil {
					pc[h][k] = newBank()
				}
			}
			// Recycle the level-2 bank; every entry is fully overwritten
			// by the sweeps below except the explicitly cleared base case.
			bank := spare[h]
			if cap(bank) < level+1 {
				grown := make([][]float64, level+1, nSteps+1)
				copy(grown, bank)
				bank = grown
			}
			bank = bank[:level+1]
			for k := 0; k <= level; k++ {
				if bank[k] == nil {
					bank[k] = newBank()
				}
			}
			cur[h] = bank
		}

		// One parallel region per level: each worker owns a contiguous row
		// range and runs the full per-row pipeline — PC products, the Pⁿ
		// update (into pnNext, which holds P^level until the swap below),
		// the up/down sweeps and the accumulation — in sequential order.
		w = poisPMF(level)
		if w != 0 {
			for ti := range targets {
				numeric.BinomialRow(lf, level, targets[ti].x, binoms[ti])
			}
		}
		parallel.For(workers, n, levelBody)
		pn, pnNext = pnNext, pn
	}
	// Check the slab back in (hMats/tMat stay out; the caller returns them
	// after the goal-column summation).
	pool.Put(slab)
	return hMats, tMat
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
		Epsilon:  eps,
		Lambda:   lambda,
		Workers:  opts.Workers,
		Truncate: opts.Truncate,
		Pool:     opts.Pool,
		Obs:      opts.Obs,
		// Cache's method set is identical to transient.Cache's, so the
		// interface value converts directly; nil stays nil.
		Cache: opts.Cache,
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
