package sparse

// An n×g block is g column vectors of length n stored row-major in one
// slab, element i of column j at [i*g+j]: the layout of Sericola's level
// recursion, which advances its g goal columns through one read of the
// matrix per level.

// MulBlockRows computes rows [lo, hi) of dst = M·src for n×g row-major
// blocks given as raw slabs of length n·g, so callers that manage their
// own slabs (the Sericola level recursion) can run it inside their own
// parallel regions. Each dst row is zeroed and then accumulated in stored-entry
// order, which is the bitwise-identical memory form of the g = 1 register
// accumulation: IEEE-754 rounds each += to a double either way, so column
// j of the result equals the vector product M·src[:, j]. dst and src must
// not alias.
func (m *CSR) MulBlockRows(dst, src []float64, g, lo, hi int) {
	if g < 1 || len(dst) != m.n*g || len(src) != m.n*g || lo < 0 || hi < lo || hi > m.n {
		//lint:ignore bannedcall dimension mismatch is a programmer error on the hottest kernel; an error return would tax every caller
		panic("sparse: MulBlockRows dimension mismatch")
	}
	if g == 1 {
		// Register specialisation: identical arithmetic, fewer stores.
		for i := lo; i < hi; i++ {
			dst[i] = m.rowDot(i, src)
		}
		return
	}
	for i := lo; i < hi; i++ {
		m.rowBlock(i, dst[i*g:(i+1)*g], src, g)
	}
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
