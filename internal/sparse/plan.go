package sparse

import (
	"math"
	"sort"

	"github.com/performability/csrl/internal/parallel"
)

// slotStride spaces the per-part steady-test slots a cache line apart
// (eight float64s), so two workers never write the same line.
const slotStride = 8

// SweepPlan is the per-sweep setup of a backward uniformisation sweep
// (column vectors, next = M·cur) over one matrix, built once so that each
// step is one parallel kernel call: the nnz-balanced row cuts, the task
// closures, the per-part max slots, the fixed rows and the spans of rows
// it computes as slabs. One Step computes the product of the step, folds
// the Poisson accumulate accs[active[c]] += weight·cur[:, c] into the same
// pass and returns each column's steady-test difference
// max_i |next[i,c] − cur[i,c]|.
//
// A fixed row has exactly one stored entry, the diagonal, with value 1: an
// absorbing state of the uniformised chain. Its product 0 + 1·cur[i]
// never changes after the first step, so Seed writes that value into both
// blocks once and Step leaves the row out of the product and of the
// steady test (|next − cur| is 0 there, or NaN, which the max ignores
// anyway). The accumulate still runs on it, as one slab over each range
// of two or more consecutive fixed rows. A row that also stores an
// explicit zero is not fixed: 0·Inf is NaN.
//
// A shift-invariant run is a maximal range of two or more non-fixed rows
// r0 … r0+L−1 in which row r0+i stores row r0's column indices plus i with
// bitwise-equal values: the phases of an Erlang expansion (package erlang)
// have this shape. A step computes a run as one slab: it zeroes
// next[r0:r0+L] and adds v·cur[c:c+L] for each stored entry (c, v) of row
// r0 in stored order, one contiguous AXPY per entry (rows are g elements
// wide in the slab), so every element gets exactly the row kernel's
// expression sequence. The accumulate and the steady test run over the
// same slab. A part cut splits a run into two runs.
//
// Every element is computed by the same IEEE-754 expression in the same
// order as MulBlockRows followed by a per-column AXPY and max-difference
// pass, so the results are bitwise those of the unfused kernels at every
// workers value. A plan serves one sweep at a time; its blocks may narrow
// (DropCol) between steps but never widen past the g it was built for.
type SweepPlan struct {
	m       *CSR
	workers int // requested count, for the per-step grain decision
	gMax    int

	cuts  []int     // nil: the plan never fans out
	tasks []func()  // per part: its row range
	slots []float64 // part c's column maxima at slots[c*stride:]

	stride  int
	fixed   []int     // the fixed rows, ascending
	spans   []rowSpan // the runs and fixed ranges, ascending
	runNNZ  int       // stored entries of the rows in runs
	accCols [][]float64

	// The operands of the running step, read by the tasks.
	next, cur  []float64
	g          int
	weight     float64
	accumulate bool
	parts      int // parts the step ran in: 1, or len(cuts)−1
}

// rowSpan is a range of two or more rows [lo, hi) that a step computes as
// one slab: a shift-invariant run, or consecutive fixed rows.
type rowSpan struct {
	lo, hi int
	fixed  bool
}

// runEntryCost is the factor by which the fan-out decision discounts a
// stored entry of a shift-invariant run against an indirect CSR entry: a
// run entry is one element of a contiguous AXPY, and a run-only matrix
// fans out at parGrain·runEntryCost = 32 768 entries. Measured with
// BenchmarkSweepPlanRuns on a 2-vCPU x86-64 host, the constant set to 1 so
// that every size splits, medians of 5 runs of one g = 1 step, one part
// against two: 5k run entries 12.0 against 14.9 µs, 20k 42 against 47,
// 41k 94 against 95, 61k 131 against 122, 164k 342 against 290. A run
// entry took about half the time of an indirect one (2.1 against 4.1 ns
// at 20k entries, workers 1).
const runEntryCost = 32

// NewSweepPlan returns the plan of a sweep advancing up to g columns
// through m (next = M·cur) at the given Workers value. The fan-out grain
// (see fanout) is applied at every step to the block's current width.
func NewSweepPlan(m *CSR, g, workers int) *SweepPlan {
	if g < 1 {
		//lint:ignore bannedcall a plan for no columns is a programmer error, same contract as the block kernels
		panic("sparse: NewSweepPlan needs g >= 1")
	}
	stride := (g + slotStride - 1) / slotStride * slotStride
	p := &SweepPlan{m: m, workers: workers, gMax: g, stride: stride, accCols: make([][]float64, g)}
	p.findSpans()
	if p.fanout(g) == 1 {
		p.slots = make([]float64, stride)
		return p
	}
	p.cuts = m.rowCuts(parallel.Resolve(workers))
	parts := len(p.cuts) - 1
	p.slots = make([]float64, parts*stride)
	for c := 0; c < parts; c++ {
		c := c
		lo, hi := p.cuts[c], p.cuts[c+1]
		spans := p.spansIn(lo, hi)
		p.tasks = append(p.tasks, func() { p.rows(p.partSlots(c), spans, lo, hi) })
	}
	return p
}

// partSlots returns part c's column maxima for the running step.
func (p *SweepPlan) partSlots(c int) []float64 {
	return p.slots[c*p.stride : c*p.stride+p.g]
}

// findSpans records the fixed rows and the spans of the matrix in one
// O(nnz) scan: each maximal range of two or more
// consecutive fixed rows, and each maximal range of two or more non-fixed
// rows in which every row shifts to the next (shiftsTo).
func (p *SweepPlan) findSpans() {
	m := p.m
	lo := 0 // start of the current span candidate
	nextFixed := m.n > 0 && m.isFixedRow(0)
	for i := 0; i < m.n; i++ {
		fixed := nextFixed
		if fixed {
			p.fixed = append(p.fixed, i)
		}
		nextFixed = i+1 < m.n && m.isFixedRow(i+1)
		if i+1 < m.n && fixed == nextFixed && (fixed || m.shiftsTo(i)) {
			continue
		}
		if i+1-lo >= 2 {
			p.spans = append(p.spans, rowSpan{lo, i + 1, fixed})
			if !fixed {
				p.runNNZ += m.rowPtr[i+1] - m.rowPtr[lo]
			}
		}
		lo = i + 1
	}
}

// shiftsTo reports whether row i+1 stores row i's column indices plus one
// with bitwise-equal values.
func (m *CSR) shiftsTo(i int) bool {
	a, b := m.rowPtr[i], m.rowPtr[i+1]
	if m.rowPtr[i+2]-b != b-a {
		return false
	}
	for k := a; k < b; k++ {
		if m.col[k+b-a] != m.col[k]+1 || math.Float64bits(m.val[k+b-a]) != math.Float64bits(m.val[k]) {
			return false
		}
	}
	return true
}

// spansIn returns the spans that overlap rows [lo, hi), in order; the
// first and last may reach past the range.
func (p *SweepPlan) spansIn(lo, hi int) []rowSpan {
	first := sort.Search(len(p.spans), func(r int) bool { return p.spans[r].hi > lo })
	end := sort.Search(len(p.spans), func(r int) bool { return p.spans[r].lo >= hi })
	//lint:ignore aliasret the part's view of the plan's own spans, read-only
	return p.spans[first:end]
}

// isFixedRow reports whether row i stores exactly one entry, the
// diagonal, with value 1.
func (m *CSR) isFixedRow(i int) bool {
	k := m.rowPtr[i]
	//lint:ignore floatcmp only an exact unit diagonal makes the row's product 0 + 1·x, a value the row keeps forever
	return m.rowPtr[i+1] == k+1 && m.col[k] == i && m.val[k] == 1
}

// fanout returns the worker count of a step at width g: the resolved
// Workers value, or 1 when the step's work — nnz·g, with run entries
// counted at 1/runEntryCost — is under parGrain or the matrix has fewer
// than two rows.
func (p *SweepPlan) fanout(g int) int {
	w := parallel.Resolve(p.workers)
	work := (p.m.NNZ() - p.runNNZ + p.runNNZ/runEntryCost) * g
	if w == 1 || work < parGrain || p.m.n < 2 {
		return 1
	}
	return w
}

// Seed prepares the fixed rows of the blocks before the first step: each
// gets the value its product gives, 0 + 1·cur[i], in both cur and next.
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

// Step advances one uniformisation step, next = M·cur. When accs is
// non-nil it also accumulates
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
		parallel.Do(p.tasks...)
	} else {
		p.rows(p.partSlots(0), p.spans, 0, p.m.n)
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

// rows runs rows [lo, hi) of a step: the spans that overlap the range as
// slabs (runRows, fixedRows), the rows between them one by one
// (rowsOneByOne), and folds their column maxima into mx. spans are those
// of spansIn(lo, hi).
func (p *SweepPlan) rows(mx []float64, spans []rowSpan, lo, hi int) {
	for j := range mx {
		mx[j] = 0
	}
	for lo < hi {
		if len(spans) > 0 && spans[0].lo <= lo {
			end := min(spans[0].hi, hi)
			if spans[0].fixed {
				p.fixedRows(lo, end)
			} else {
				p.runRows(mx, lo, end)
			}
			spans = spans[1:]
			lo = end
			continue
		}
		end := hi
		if len(spans) > 0 {
			end = min(spans[0].lo, hi)
		}
		p.rowsOneByOne(mx, lo, end)
		lo = end
	}
}

// rowsOneByOne runs rows [lo, hi), none in a span, in one pass: for each
// row the accumulate of cur, then — unless the row is fixed — its product
// into next and its contribution to the column maxima mx.
func (p *SweepPlan) rowsOneByOne(mx []float64, lo, hi int) {
	m, g, w := p.m, p.g, p.weight
	next, cur := p.next, p.cur
	if g == 1 {
		// Register specialisation: identical arithmetic, fewer stores.
		var acc []float64
		if p.accumulate {
			acc = p.accCols[0]
		}
		d0 := mx[0]
		for i := lo; i < hi; i++ {
			x := cur[i]
			if acc != nil {
				acc[i] += w * x
			}
			if m.isFixedRow(i) {
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
	accs := p.accCols[:g]
	for i := lo; i < hi; i++ {
		crow := cur[i*g : (i+1)*g]
		if p.accumulate {
			for j, x := range crow {
				accs[j][i] += w * x
			}
		}
		if m.isFixedRow(i) {
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

// fixedRows runs rows [lo, hi), all fixed: only the accumulate of cur.
func (p *SweepPlan) fixedRows(lo, hi int) {
	if !p.accumulate {
		return
	}
	g, w := p.g, p.weight
	if g == 1 {
		AXPY(w, p.cur[lo:hi], p.accCols[0][lo:hi])
		return
	}
	for j, acc := range p.accCols[:g] {
		for i := lo; i < hi; i++ {
			acc[i] += w * p.cur[i*g+j]
		}
	}
}

// runRows runs rows [lo, hi) of one shift-invariant run as a slab:
// next's rows are zeroed and then accumulate v·cur[(c+i)·g+j] into element
// (lo+i, j) for each stored entry (c, v) of row lo in stored order — per
// element the expression sequence of rowDot and rowBlock — followed by the
// accumulate of cur and the column maxima mx over the same rows.
func (p *SweepPlan) runRows(mx []float64, lo, hi int) {
	g, w := p.g, p.weight
	nslab := p.next[lo*g : hi*g]
	cslab := p.cur[lo*g : hi*g]
	clear(nslab)
	cols, vals := p.m.RowRange(lo)
	vals = vals[:len(cols)]
	for k, c := range cols {
		AXPY(vals[k], p.cur[c*g:c*g+len(nslab)], nslab)
	}
	if g == 1 {
		// Whole-slab specialisation: the slabs are the column's rows.
		if p.accumulate {
			AXPY(w, cslab, p.accCols[0][lo:hi])
		}
		d0 := mx[0]
		for i, x := range cslab {
			if d := math.Abs(nslab[i] - x); d > d0 {
				d0 = d
			}
		}
		mx[0] = d0
		return
	}
	accs := p.accCols[:g]
	for i := lo; i < hi; i++ {
		crow := p.cur[i*g : (i+1)*g]
		nrow := p.next[i*g : (i+1)*g]
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
// It is the row kernel every product goes through.
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
