package sparse

import "fmt"

// Builder accumulates triplets for incremental construction of a CSR matrix.
// The zero value is not usable; create one with NewBuilder.
type Builder struct {
	n  int
	ts []Triplet
}

// NewBuilder returns a builder for an n×n matrix.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// Add records entry (i, j) += v. Out-of-range indices surface as an error
// from Build, so call sites can stay unconditional.
func (b *Builder) Add(i, j int, v float64) {
	b.ts = append(b.ts, Triplet{Row: i, Col: j, Val: v})
}

// Len returns the number of recorded triplets (before duplicate merging).
func (b *Builder) Len() int { return len(b.ts) }

// Build assembles the matrix, merging duplicate entries by summation.
func (b *Builder) Build() (*CSR, error) {
	m, err := NewFromTriplets(b.n, b.ts)
	if err != nil {
		return nil, fmt.Errorf("sparse builder: %w", err)
	}
	return m, nil
}

// RowBuilder assembles a CSR matrix row by row from entries given in
// ascending column order, with no triplet sort: the route for matrices
// derived row-wise from an existing CSR. The zero value is not usable;
// create one with NewRowBuilder.
type RowBuilder struct {
	m   *CSR
	row int // the row being filled
	err error
}

// NewRowBuilder returns a builder for an n×n matrix with capacity for nnz
// stored entries.
func NewRowBuilder(n, nnz int) *RowBuilder {
	if n < 0 {
		return &RowBuilder{m: &CSR{rowPtr: []int{0}}, err: fmt.Errorf("%w: n=%d", ErrDimension, n)}
	}
	nnz = max(nnz, 0)
	return &RowBuilder{m: &CSR{n: n, rowPtr: make([]int, 1, n+1), col: make([]int, 0, nnz), val: make([]float64, 0, nnz)}}
}

// Add appends entry (row, j) = v to the current row. Columns must be in
// range and strictly ascending within the row; a violation surfaces as an
// error from Build.
func (b *RowBuilder) Add(j int, v float64) {
	m := b.m
	lo := m.rowPtr[len(m.rowPtr)-1]
	if b.err == nil && (b.row >= m.n || j < 0 || j >= m.n || (len(m.col) > lo && j <= m.col[len(m.col)-1])) {
		b.err = fmt.Errorf("%w: entry (%d,%d) out of range or out of column order in %d×%d", ErrDimension, b.row, j, m.n, m.n)
	}
	m.col = append(m.col, j)
	m.val = append(m.val, v)
}

// EndRow closes the current row and starts the next.
func (b *RowBuilder) EndRow() {
	b.m.rowPtr = append(b.m.rowPtr, len(b.m.col))
	b.row++
}

// Build returns the matrix; every one of the n rows must have been closed.
func (b *RowBuilder) Build() (*CSR, error) {
	if b.err == nil && b.row != b.m.n {
		b.err = fmt.Errorf("%w: %d rows closed for %d×%d", ErrDimension, b.row, b.m.n, b.m.n)
	}
	if b.err != nil {
		return nil, fmt.Errorf("sparse row builder: %w", b.err)
	}
	return b.m, nil
}
