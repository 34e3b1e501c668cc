package sparse

import (
	"math"
	"sort"

	"github.com/performability/csrl/internal/parallel"
)

// slotStride spaces the per-part steady-test slots a cache line apart
// (eight float64s), so two workers never write the same line.
const slotStride = 8

// SweepPlan is the per-sweep setup of a uniformisation sweep over one
// matrix, built once so that each step is one parallel kernel call: the
// nnz-balanced row cuts, the task closures, the per-part max slots and,
// for backward sweeps, the fixed rows. One Step computes the product of
// the step, folds the Poisson accumulate accs[active[c]] += weight·cur[:, c]
// into the same pass and returns each column's steady-test difference
// max_i |next[i,c] − cur[i,c]|.
//
// A fixed row has exactly one stored entry, the diagonal, with value 1: an
// absorbing state of the uniformised chain. In a backward product its
// value 0 + 1·cur[i] never changes after the first step, so Seed writes
// that value into both blocks once and Step leaves the row out of the
// product and of the steady test (|next − cur| is 0 there, or NaN, which
// the max ignores anyway). The accumulate still runs on it. A row that
// also stores an explicit zero is not fixed: 0·Inf is NaN. Forward sweeps
// have no fixed rows: the scatter adds every other row's mass into an
// absorbing state's entry, so its value does move.
//
// Every element is computed by the same IEEE-754 expression in the same
// order as MulBlockPar or MulBlockTPar followed by a per-column AXPY and
// max-difference pass, so the results are bitwise those of the unfused
// kernels at the same workers value. A plan serves one sweep at a time;
// its blocks may narrow (DropCol) between steps but never widen past the
// g it was built for.
type SweepPlan struct {
	m       *CSR
	forward bool
	workers int // requested count, for the per-step grain decision
	gMax    int

	cuts  []int    // nil: the plan never fans out
	tasks []func() // per part: the backward row range or the forward scatter
	folds []func() // forward, per part: reduce, accumulate and max fold
	bufs  [][]float64
	slots []float64 // part c's column maxima at slots[c*stride:]

	stride  int
	fixed   []int // backward: the fixed rows, ascending
	fixedAt []int // part c's fixed rows are fixed[fixedAt[c]:fixedAt[c+1]]
	accCols [][]float64

	// The operands of the running step, read by the tasks.
	next, cur  []float64
	g          int
	weight     float64
	accumulate bool
	parts      int // parts the step ran in: 1, or len(cuts)−1
}

// NewSweepPlan returns the plan of a sweep advancing up to g columns
// through m, forward (row vectors, cur·M) or backward (column vectors,
// M·cur), at the given Workers value. The fan-out grain policy is that of
// MulBlockPar and MulBlockTPar, applied at every step to the block's
// current width.
func NewSweepPlan(m *CSR, g, workers int, forward bool) *SweepPlan {
	return newSweepPlan(m, g, workers, forward, !forward)
}

// newSweepPlan is NewSweepPlan with the fixed-row search optional: the
// one-off MulBlockPar product must compute every row.
//
//numerics:order-invariant fanout=rowCuts the forward fold reduces the rowCuts partition's scatter buffers in part order for every g alike, keeping each column bitwise equal to the g = 1 product at a fixed workers value
func newSweepPlan(m *CSR, g, workers int, forward, fixedRows bool) *SweepPlan {
	if g < 1 {
		//lint:ignore bannedcall a plan for no columns is a programmer error, same contract as the block kernels
		panic("sparse: NewSweepPlan needs g >= 1")
	}
	stride := (g + slotStride - 1) / slotStride * slotStride
	p := &SweepPlan{m: m, forward: forward, workers: workers, gMax: g, stride: stride,
		accCols: make([][]float64, g)}
	for i := 0; fixedRows && i < m.n; i++ {
		if m.isFixedRow(i) {
			p.fixed = append(p.fixed, i)
		}
	}
	if p.fanout(g) == 1 {
		p.slots = make([]float64, stride)
		p.fixedAt = []int{0, len(p.fixed)}
		return p
	}
	p.cuts = m.rowCuts(parallel.Resolve(workers))
	parts := len(p.cuts) - 1
	p.slots = make([]float64, parts*stride)
	p.fixedAt = make([]int, parts+1)
	for c, cut := range p.cuts {
		p.fixedAt[c] = sort.SearchInts(p.fixed, cut)
	}
	for c := 0; c < parts; c++ {
		c := c
		lo, hi := p.cuts[c], p.cuts[c+1]
		if !forward {
			fixed := p.fixed[p.fixedAt[c]:p.fixedAt[c+1]]
			p.tasks = append(p.tasks, func() { p.backwardRows(p.partSlots(c), fixed, lo, hi) })
			continue
		}
		p.bufs = append(p.bufs, scatters.get(m.n*g))
		p.tasks = append(p.tasks, func() { mulBlockTRange(m, p.bufs[c][:m.n*p.g], p.cur, p.g, lo, hi) })
		p.folds = append(p.folds, func() { p.foldRows(p.partSlots(c), p.bufs, lo, hi) })
	}
	return p
}

// partSlots returns part c's column maxima for the running step.
func (p *SweepPlan) partSlots(c int) []float64 {
	return p.slots[c*p.stride : c*p.stride+p.g]
}

// isFixedRow reports whether row i stores exactly one entry, the
// diagonal, with value 1.
func (m *CSR) isFixedRow(i int) bool {
	k := m.rowPtr[i]
	//lint:ignore floatcmp only an exact unit diagonal makes the row's product 0 + 1·x, a value the row keeps forever
	return m.rowPtr[i+1] == k+1 && m.col[k] == i && m.val[k] == 1
}

// fanout returns the worker count of a step at width g: the grain of
// MulBlockPar (nnz·g) backward, of MulBlockTPar (nnz alone) forward.
func (p *SweepPlan) fanout(g int) int {
	if p.forward {
		return resolveWorkers(p.workers, p.m.NNZ(), p.m.n)
	}
	return resolveWorkers(p.workers, p.m.NNZ()*g, p.m.n)
}

// Release returns the plan's scatter buffers to the shared cache. The plan
// must not be used afterwards.
func (p *SweepPlan) Release() {
	for _, buf := range p.bufs {
		scatters.put(buf)
	}
	p.bufs, p.tasks, p.folds = nil, nil, nil
}

// Seed prepares the fixed rows of a backward sweep's blocks before the
// first step: each gets the value its product gives, 0 + 1·cur[i], in
// both cur and next. A forward plan has no fixed rows.
func (p *SweepPlan) Seed(cur, next *Block) {
	p.check(next, cur)
	g := cur.g
	for _, i := range p.fixed {
		nrow := next.data[i*g : (i+1)*g]
		p.m.rowBlock(i, nrow, cur.data, g)
		copy(cur.data[i*g:(i+1)*g], nrow)
	}
}

func (p *SweepPlan) check(next, cur *Block) {
	if next.n != p.m.n || cur.n != p.m.n || next.g != cur.g || cur.g > p.gMax {
		//lint:ignore bannedcall dimension mismatch is a programmer error on the hottest kernel; an error return would tax every caller
		panic("sparse: SweepPlan dimension mismatch")
	}
}

// Step advances one uniformisation step: next = M·cur backward, next =
// cur·M forward. When accs is non-nil it also accumulates
// accs[active[c]] += weight·cur[:, c] for every column c, and when diffs
// is non-nil it sets diffs[c] = max_i |next[i,c] − cur[i,c]| — both in
// the same pass over the rows. next and cur must not alias.
func (p *SweepPlan) Step(next, cur *Block, weight float64, accs [][]float64, active []int, diffs []float64) {
	p.check(next, cur)
	g := cur.g
	p.next, p.cur, p.g, p.weight = next.data, cur.data, g, weight
	p.accumulate = accs != nil
	if p.accumulate {
		for c, j := range active[:g] {
			p.accCols[c] = accs[j]
		}
	}
	p.parts = 1
	if p.fanout(g) > 1 {
		p.parts = len(p.cuts) - 1
	}
	switch {
	case p.parts == 1 && p.forward:
		mulBlockTRange(p.m, p.next, p.cur, g, 0, p.m.n)
		p.foldRows(p.partSlots(0), nil, 0, p.m.n)
	case p.parts == 1:
		p.backwardRows(p.partSlots(0), p.fixed, 0, p.m.n)
	case p.forward:
		parallel.Do(p.tasks...)
		parallel.Do(p.folds...)
	default:
		parallel.Do(p.tasks...)
	}
	if diffs != nil {
		p.maxDiffs(diffs[:g])
	}
	p.next, p.cur = nil, nil
	for c := range p.accCols {
		p.accCols[c] = nil
	}
}

// maxDiffs folds the per-part column maxima into diffs.
//
//numerics:order-invariant a maximum of non-negative values is exact in any order, so folding the parts' maxima gives the sequential column max at every workers value
func (p *SweepPlan) maxDiffs(diffs []float64) {
	for j := range diffs {
		diffs[j] = 0
	}
	for c := 0; c < p.parts; c++ {
		for j, d := range p.partSlots(c) {
			if d > diffs[j] {
				diffs[j] = d
			}
		}
	}
}

// backwardRows runs rows [lo, hi) of a backward step in one pass: for each
// row the accumulate of cur, then — unless the row is fixed — its product
// into next and its contribution to the column maxima mx. fixed lists the
// range's fixed rows in ascending order.
func (p *SweepPlan) backwardRows(mx []float64, fixed []int, lo, hi int) {
	m, g, w := p.m, p.g, p.weight
	next, cur := p.next, p.cur
	f := 0
	if g == 1 {
		// Register specialisation: identical arithmetic, fewer stores.
		var acc []float64
		if p.accumulate {
			acc = p.accCols[0]
		}
		var d0 float64
		for i := lo; i < hi; i++ {
			x := cur[i]
			if acc != nil {
				acc[i] += w * x
			}
			if f < len(fixed) && fixed[f] == i {
				f++
				continue
			}
			s := m.rowDot(i, cur)
			next[i] = s
			if d := math.Abs(s - x); d > d0 {
				d0 = d
			}
		}
		mx[0] = d0
		return
	}
	for j := range mx {
		mx[j] = 0
	}
	accs := p.accCols[:g]
	for i := lo; i < hi; i++ {
		crow := cur[i*g : (i+1)*g]
		if p.accumulate {
			for j, x := range crow {
				accs[j][i] += w * x
			}
		}
		if f < len(fixed) && fixed[f] == i {
			f++
			continue
		}
		nrow := next[i*g : (i+1)*g]
		m.rowBlock(i, nrow, cur, g)
		for j, x := range crow {
			if d := math.Abs(nrow[j] - x); d > mx[j] {
				mx[j] = d
			}
		}
	}
}

// foldRows finishes rows [lo, hi) of a forward step in one pass. With
// scatter buffers, next[e] is first reduced from them in part order — the
// partitioned transpose product's fixed reduction order — and then the
// accumulate of cur and the column maxima of |next − cur| follow on the
// same elements. Without buffers next already holds the sequential
// scatter.
func (p *SweepPlan) foldRows(mx []float64, bufs [][]float64, lo, hi int) {
	g, w := p.g, p.weight
	next, cur := p.next, p.cur
	if g == 1 {
		// Whole-slab specialisation: the slabs are the columns.
		var acc []float64
		if p.accumulate {
			acc = p.accCols[0]
		}
		var d0 float64
		for i := lo; i < hi; i++ {
			s := next[i]
			if len(bufs) > 0 {
				s = 0
				for _, buf := range bufs {
					s += buf[i]
				}
				next[i] = s
			}
			x := cur[i]
			if acc != nil {
				acc[i] += w * x
			}
			if d := math.Abs(s - x); d > d0 {
				d0 = d
			}
		}
		mx[0] = d0
		return
	}
	for j := range mx {
		mx[j] = 0
	}
	accs := p.accCols[:g]
	for i := lo; i < hi; i++ {
		nrow := next[i*g : (i+1)*g]
		if len(bufs) > 0 {
			for j := range nrow {
				e := i*g + j
				var s float64
				for _, buf := range bufs {
					s += buf[e]
				}
				nrow[j] = s
			}
		}
		crow := cur[i*g : (i+1)*g]
		for j, x := range crow {
			if p.accumulate {
				accs[j][i] += w * x
			}
			if d := math.Abs(nrow[j] - x); d > mx[j] {
				mx[j] = d
			}
		}
	}
}

// rowDot returns row i of M dotted with x, summed in stored-entry order.
// It is the row kernel every backward product goes through.
func (m *CSR) rowDot(i int, x []float64) float64 {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	cols := m.col[lo:hi]
	vals := m.val[lo:hi]
	vals = vals[:len(cols)]
	var s float64
	for k, j := range cols {
		s += vals[k] * x[j]
	}
	return s
}

// rowBlock sets drow (length g) to row i of M times the n×g block src:
// zeroed, then accumulated in stored-entry order, so each column is
// bitwise the rowDot of that column.
func (m *CSR) rowBlock(i int, drow, src []float64, g int) {
	for j := range drow {
		drow[j] = 0
	}
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	cols := m.col[lo:hi]
	vals := m.val[lo:hi]
	vals = vals[:len(cols)]
	for k, c := range cols {
		v := vals[k]
		srow := src[c*g : (c+1)*g]
		srow = srow[:len(drow)]
		for j, sv := range srow {
			drow[j] += v * sv
		}
	}
}
