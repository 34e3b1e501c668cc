package sparse

import (
	"math"
	"sort"

	"github.com/performability/csrl/internal/parallel"
)

// slotStride spaces the per-part steady-test maxima a cache line apart
// (eight float64s), so two workers never write the same line.
const slotStride = 8

// SweepPlan is the per-sweep setup of a backward uniformisation sweep
// (next = M·cur) over one matrix, built once so that each step is one
// parallel kernel call: the nnz-balanced row cuts, the task closures, the
// per-part max slots, the fixed rows and the spans of rows it computes as
// slabs. One Step computes the product of the step, folds the Poisson
// accumulate acc += weight·cur into the same pass and returns the
// steady-test difference max_i |next[i] − cur[i]|.
//
// A fixed row has exactly one stored entry, the diagonal, with value 1: an
// absorbing state of the uniformised chain. Its product 0 + 1·cur[i]
// never changes after the first step, so Seed writes that value into both
// vectors once and Step leaves the row out of the product and of the
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
// r0 in stored order, one contiguous AXPY per entry, so every element
// gets exactly the row kernel's expression sequence. The accumulate and
// the steady test run over the same slab. A part cut splits a run into two
// runs.
//
// Every element is computed by the same IEEE-754 expression in the same
// order as the row kernel followed by an AXPY and a max-difference pass,
// so the results are bitwise those of the unfused kernels at every
// workers value. A plan serves one sweep at a time.
type SweepPlan struct {
	m *CSR

	tasks []func()  // per part: its row range; nil: the plan never fans out
	slots []float64 // part c's maximum at slots[c*slotStride]

	fixed  []int     // the fixed rows, ascending
	spans  []rowSpan // the runs and fixed ranges, ascending
	runNNZ int       // stored entries of the rows in runs

	// The operands of the running step, read by the tasks; acc is nil
	// when the step does not accumulate.
	next, cur, acc []float64
	weight         float64
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
// that every size splits, medians of 5 runs of one step, one part
// against two: 5k run entries 12.0 against 14.9 µs, 20k 42 against 47,
// 41k 94 against 95, 61k 131 against 122, 164k 342 against 290. A run
// entry took about half the time of an indirect one (2.1 against 4.1 ns
// at 20k entries, workers 1).
const runEntryCost = 32

// NewSweepPlan returns the plan of a sweep through m (next = M·cur) at the
// given Workers value. Whether its steps fan out is decided here, once
// (see fanout).
func NewSweepPlan(m *CSR, workers int) *SweepPlan {
	p := &SweepPlan{m: m}
	p.findSpans()
	w := p.fanout(workers)
	if w == 1 {
		p.slots = make([]float64, 1)
		return p
	}
	cuts := m.rowCuts(w)
	parts := len(cuts) - 1
	p.slots = make([]float64, parts*slotStride)
	for c := 0; c < parts; c++ {
		mx := &p.slots[c*slotStride]
		lo, hi := cuts[c], cuts[c+1]
		spans := p.spansIn(lo, hi)
		p.tasks = append(p.tasks, func() { p.rows(mx, spans, lo, hi) })
	}
	return p
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

// fanout returns the worker count of the plan's steps: the resolved
// Workers value, or 1 when a step's work — nnz, with run entries counted
// at 1/runEntryCost — is under parGrain or the matrix has fewer than two
// rows.
func (p *SweepPlan) fanout(workers int) int {
	w := parallel.Resolve(workers)
	work := p.m.NNZ() - p.runNNZ + p.runNNZ/runEntryCost
	if w == 1 || work < parGrain || p.m.n < 2 {
		return 1
	}
	return w
}

// Seed prepares the fixed rows of the vectors before the first step: each
// gets the value its product gives, 0 + 1·cur[i], in both cur and next.
func (p *SweepPlan) Seed(next, cur []float64) {
	p.check(next, cur)
	for _, i := range p.fixed {
		next[i] = p.m.rowDot(i, cur)
		cur[i] = next[i]
	}
}

func (p *SweepPlan) check(next, cur []float64) {
	if len(next) != p.m.n || len(cur) != p.m.n {
		//lint:ignore bannedcall dimension mismatch is a programmer error on the hottest kernel; an error return would tax every caller
		panic("sparse: SweepPlan dimension mismatch")
	}
}

// Step advances one uniformisation step, next = M·cur, and returns the
// steady-test difference max_i |next[i] − cur[i]|. When acc is non-nil it
// also accumulates acc += weight·cur in the same pass over the rows. next
// and cur must not alias.
func (p *SweepPlan) Step(next, cur []float64, weight float64, acc []float64) float64 {
	p.check(next, cur)
	p.next, p.cur, p.weight, p.acc = next, cur, weight, acc
	if p.tasks != nil {
		parallel.Do(p.tasks...)
	} else {
		p.rows(&p.slots[0], p.spans, 0, p.m.n)
	}
	p.next, p.cur, p.acc = nil, nil, nil
	return p.maxDiff()
}

// maxDiff folds the per-part maxima.
//
//numerics:order-invariant a maximum of non-negative values is exact in any order, so folding the parts' maxima gives the sequential max at every workers value
func (p *SweepPlan) maxDiff() float64 {
	var d float64
	for c := 0; c < len(p.slots); c += slotStride {
		if s := p.slots[c]; s > d {
			d = s
		}
	}
	return d
}

// rows runs rows [lo, hi) of a step: the spans that overlap the range as
// slabs (runRows, fixedRows), the rows between them one by one
// (rowsOneByOne), and folds their maximum into *mx. spans are those of
// spansIn(lo, hi).
func (p *SweepPlan) rows(mx *float64, spans []rowSpan, lo, hi int) {
	*mx = 0
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
// into next and its contribution to the maximum *mx.
func (p *SweepPlan) rowsOneByOne(mx *float64, lo, hi int) {
	m, w, acc := p.m, p.weight, p.acc
	next, cur := p.next, p.cur
	d0 := *mx
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
	*mx = d0
}

// fixedRows runs rows [lo, hi), all fixed: only the accumulate of cur.
func (p *SweepPlan) fixedRows(lo, hi int) {
	if p.acc != nil {
		AXPY(p.weight, p.cur[lo:hi], p.acc[lo:hi])
	}
}

// runRows runs rows [lo, hi) of one shift-invariant run as a slab:
// next[lo:hi] is zeroed and then accumulates v·cur[c+i] into element lo+i
// for each stored entry (c, v) of row lo in stored order — per element
// the expression sequence of rowDot — followed by the accumulate of cur
// and the maximum *mx over the same rows.
func (p *SweepPlan) runRows(mx *float64, lo, hi int) {
	nslab := p.next[lo:hi]
	cslab := p.cur[lo:hi]
	clear(nslab)
	cols, vals := p.m.RowRange(lo)
	vals = vals[:len(cols)]
	for k, c := range cols {
		AXPY(vals[k], p.cur[c:c+len(nslab)], nslab)
	}
	if p.acc != nil {
		AXPY(p.weight, cslab, p.acc[lo:hi])
	}
	d0 := *mx
	for i, x := range cslab {
		if d := math.Abs(nslab[i] - x); d > d0 {
			d0 = d
		}
	}
	*mx = d0
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
