// Package sparse provides compressed sparse row (CSR) matrices and the
// block kernels used throughout the model checker (a vector is a block of
// one column). Matrices are square, real-valued and immutable once built;
// construction goes through a triplet list, the incremental Builder, or
// the RowBuilder for matrices derived row by row from a sorted CSR.
//
// A uniformisation sweep runs through a SweepPlan, built once per sweep:
// each step is one parallel kernel call that computes the product, the
// Poisson accumulate and the steady-state test in a single pass over the
// rows, and a backward plan leaves the fixed rows (lone unit diagonals,
// the absorbing states) out of the product and computes each
// shift-invariant run of rows (row r0+i is row r0 shifted i columns, as
// in the phases of an Erlang expansion) as contiguous AXPYs. Every kernel
// keeps each column bitwise equal to the sequential vector product; see
// DESIGN.md "Multi-vector kernels".
package sparse

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Triplet is a single (row, col, value) entry used to assemble a matrix.
type Triplet struct {
	Row, Col int
	Val      float64
}

// CSR is a square sparse matrix in compressed sparse row format.
// For row i, the entries are Col[RowPtr[i]:RowPtr[i+1]] with values
// Val[RowPtr[i]:RowPtr[i+1]], sorted by column index.
type CSR struct {
	n      int
	rowPtr []int
	col    []int
	val    []float64
}

// ErrDimension reports an invalid or inconsistent dimension.
var ErrDimension = errors.New("sparse: invalid dimension")

// NewFromTriplets assembles an n×n CSR matrix from triplets. Duplicate
// (row, col) pairs are summed. Entries that sum to exactly zero are kept,
// so the sparsity pattern is predictable for callers. Triplets given
// strictly increasing in (row, col) skip the sort: with no duplicates the
// arrays are the same for every input order.
func NewFromTriplets(n int, ts []Triplet) (*CSR, error) {
	if n < 0 {
		return nil, fmt.Errorf("%w: n=%d", ErrDimension, n)
	}
	increasing := true
	for k, t := range ts {
		if t.Row < 0 || t.Row >= n || t.Col < 0 || t.Col >= n {
			return nil, fmt.Errorf("%w: entry (%d,%d) outside %d×%d", ErrDimension, t.Row, t.Col, n, n)
		}
		if k > 0 && !tripletLess(ts[k-1], t) {
			increasing = false
		}
	}
	sorted := ts
	if !increasing {
		sorted = make([]Triplet, len(ts))
		copy(sorted, ts)
		sort.Slice(sorted, func(i, j int) bool { return tripletLess(sorted[i], sorted[j]) })
	}

	m := &CSR{
		n:      n,
		rowPtr: make([]int, n+1),
	}
	// Merge duplicates while copying into the CSR arrays.
	for i := 0; i < len(sorted); {
		j := i + 1
		sum := sorted[i].Val
		for j < len(sorted) && sorted[j].Row == sorted[i].Row && sorted[j].Col == sorted[i].Col {
			sum += sorted[j].Val
			j++
		}
		m.col = append(m.col, sorted[i].Col)
		m.val = append(m.val, sum)
		m.rowPtr[sorted[i].Row+1]++
		i = j
	}
	for i := 0; i < n; i++ {
		m.rowPtr[i+1] += m.rowPtr[i]
	}
	return m, nil
}

// tripletLess orders triplets by row, then column.
func tripletLess(a, b Triplet) bool {
	if a.Row != b.Row {
		return a.Row < b.Row
	}
	return a.Col < b.Col
}

// Identity returns the n×n identity matrix.
func Identity(n int) *CSR {
	m := &CSR{
		n:      n,
		rowPtr: make([]int, n+1),
		col:    make([]int, n),
		val:    make([]float64, n),
	}
	for i := 0; i < n; i++ {
		m.rowPtr[i+1] = i + 1
		m.col[i] = i
		m.val[i] = 1
	}
	return m
}

// Dim returns the dimension n of the square matrix.
func (m *CSR) Dim() int { return m.n }

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.val) }

// At returns the entry at (i, j); zero when no entry is stored.
func (m *CSR) At(i, j int) float64 {
	if i < 0 || i >= m.n || j < 0 || j >= m.n {
		return 0
	}
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	idx := sort.SearchInts(m.col[lo:hi], j)
	if idx < hi-lo && m.col[lo+idx] == j {
		return m.val[lo+idx]
	}
	return 0
}

// Row calls fn for every stored entry (j, v) in row i.
func (m *CSR) Row(i int, fn func(j int, v float64)) {
	for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
		fn(m.col[k], m.val[k])
	}
}

// RowRange returns the stored column indices and values of row i (shared,
// do not modify). The raw slices exist for scatter kernels that walk one
// row per active state — the closure of Row costs an indirect call per
// entry, which dominates when the active window is a few states wide.
func (m *CSR) RowRange(i int) (cols []int, vals []float64) {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	//lint:ignore aliasret sharing is the documented contract: the row views feed the windowed forward scatter kernel and a copy per active state would defeat the windowing
	return m.col[lo:hi], m.val[lo:hi]
}

// RowSum returns the sum of the stored entries in row i.
func (m *CSR) RowSum(i int) float64 {
	var s float64
	for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
		s += m.val[k]
	}
	return s
}

// Each calls fn for every stored entry.
func (m *CSR) Each(fn func(i, j int, v float64)) {
	for i := 0; i < m.n; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			fn(i, m.col[k], m.val[k])
		}
	}
}

// Transpose returns a new matrix Mᵀ.
func (m *CSR) Transpose() *CSR {
	t := &CSR{
		n:      m.n,
		rowPtr: make([]int, m.n+1),
		col:    make([]int, len(m.col)),
		val:    make([]float64, len(m.val)),
	}
	for _, j := range m.col {
		t.rowPtr[j+1]++
	}
	for i := 0; i < m.n; i++ {
		t.rowPtr[i+1] += t.rowPtr[i]
	}
	next := make([]int, m.n)
	copy(next, t.rowPtr[:m.n])
	for i := 0; i < m.n; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			j := m.col[k]
			t.col[next[j]] = i
			t.val[next[j]] = m.val[k]
			next[j]++
		}
	}
	return t
}

// Scale returns a new matrix α·M.
func (m *CSR) Scale(alpha float64) *CSR {
	s := m.clone()
	for i := range s.val {
		s.val[i] *= alpha
	}
	return s
}

// ScaleRows returns a new matrix diag(w)·M, i.e. row i multiplied by w[i].
func (m *CSR) ScaleRows(w []float64) (*CSR, error) {
	if len(w) != m.n {
		return nil, fmt.Errorf("%w: weight length %d for %d×%d matrix", ErrDimension, len(w), m.n, m.n)
	}
	s := m.clone()
	for i := 0; i < s.n; i++ {
		for k := s.rowPtr[i]; k < s.rowPtr[i+1]; k++ {
			s.val[k] *= w[i]
		}
	}
	return s, nil
}

// AddDiagonal returns a new matrix M + diag(d). Diagonal entries that are
// not yet present in the pattern are inserted.
func (m *CSR) AddDiagonal(d []float64) (*CSR, error) {
	if len(d) != m.n {
		return nil, fmt.Errorf("%w: diagonal length %d for %d×%d matrix", ErrDimension, len(d), m.n, m.n)
	}
	ts := make([]Triplet, 0, m.NNZ()+m.n)
	m.Each(func(i, j int, v float64) {
		ts = append(ts, Triplet{Row: i, Col: j, Val: v})
	})
	for i, v := range d {
		if v != 0 {
			ts = append(ts, Triplet{Row: i, Col: i, Val: v})
		}
	}
	return NewFromTriplets(m.n, ts)
}

func (m *CSR) clone() *CSR {
	c := &CSR{
		n:      m.n,
		rowPtr: make([]int, len(m.rowPtr)),
		col:    make([]int, len(m.col)),
		val:    make([]float64, len(m.val)),
	}
	copy(c.rowPtr, m.rowPtr)
	copy(c.col, m.col)
	copy(c.val, m.val)
	return c
}

// MaxAbs returns the largest absolute value of any stored entry,
// or 0 for an empty matrix.
func (m *CSR) MaxAbs() float64 {
	var mx float64
	for _, v := range m.val {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// String renders small matrices for debugging; large matrices are summarised.
func (m *CSR) String() string {
	if m.n > 12 {
		return fmt.Sprintf("CSR{%d×%d, nnz=%d}", m.n, m.n, m.NNZ())
	}
	s := ""
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			s += fmt.Sprintf("%10.4g ", m.At(i, j))
		}
		s += "\n"
	}
	return s
}
