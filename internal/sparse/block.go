package sparse

// Block is a dense n×g column block: g column vectors of length n stored
// row-major in one slab, so data[i*g+j] is element i of column j. The block
// kernels below advance all g columns through one pass over a CSR matrix —
// one read of the matrix's val/col arrays per row instead of g — which is
// the memory-traffic win the multi-vector callers (Sericola goal columns,
// transient weighting vectors, rectangle-until corners) are after.
//
// Blocks are pool-aware: NewBlock draws the slab from a VecPool (nil-safe)
// and Release returns it. DropCol narrows the block in place; Release still
// returns the original slab, so pool keying by exact length stays intact.
type Block struct {
	n, g int
	data []float64 // active n×g view, row-major
	slab []float64 // original allocation, returned by Release
}

// NewBlock returns a zeroed n×g block whose slab comes from pool (a nil
// pool allocates directly).
func NewBlock(n, g int, pool *VecPool) *Block {
	if n < 0 || g < 0 {
		//lint:ignore bannedcall negative dimensions are a programmer error, same contract as the CSR kernels
		panic("sparse: NewBlock negative dimension")
	}
	slab := pool.Get(n * g)
	return &Block{n: n, g: g, data: slab, slab: slab}
}

// Dim returns the number of rows n.
func (b *Block) Dim() int { return b.n }

// Cols returns the current number of columns g (DropCol shrinks it).
func (b *Block) Cols() int { return b.g }

// Data returns the active row-major slab of length n·g. The slice aliases
// the block; it is invalidated by DropCol.
func (b *Block) Data() []float64 {
	//lint:ignore aliasret aliasing is the documented contract: the slab is the kernels' in/out buffer and a copy per sweep level would defeat the single-slab design
	return b.data
}

// Row returns row i as a slice of length g aliasing the block.
func (b *Block) Row(i int) []float64 {
	//lint:ignore aliasret aliasing is the documented contract: per-row views feed the hot accumulation loops and must not allocate
	return b.data[i*b.g : (i+1)*b.g]
}

// At returns element i of column j.
func (b *Block) At(i, j int) float64 { return b.data[i*b.g+j] }

// Set assigns element i of column j.
func (b *Block) Set(i, j int, v float64) { b.data[i*b.g+j] = v }

// SetCol copies src (length n) into column j.
func (b *Block) SetCol(j int, src []float64) {
	if len(src) != b.n {
		//lint:ignore bannedcall dimension mismatch is a programmer error on the hottest kernel; an error return would tax every caller
		panic("sparse: SetCol dimension mismatch")
	}
	for i, v := range src {
		b.data[i*b.g+j] = v
	}
}

// Col copies column j into dst (length n).
func (b *Block) Col(dst []float64, j int) {
	if len(dst) != b.n {
		//lint:ignore bannedcall dimension mismatch is a programmer error on the hottest kernel; an error return would tax every caller
		panic("sparse: Col dimension mismatch")
	}
	for i := range dst {
		dst[i] = b.data[i*b.g+j]
	}
}

// ColAXPY accumulates dst += alpha·column j, visiting rows in ascending
// order — the same element order as AXPY on a standalone vector, so every
// column of a block accumulates bitwise as a one-column block would.
func (b *Block) ColAXPY(alpha float64, j int, dst []float64) {
	if len(dst) != b.n {
		//lint:ignore bannedcall dimension mismatch is a programmer error on the hottest kernel; an error return would tax every caller
		panic("sparse: ColAXPY dimension mismatch")
	}
	if b.g == 1 {
		AXPY(alpha, b.data, dst) // the slab is the column
		return
	}
	for i := range dst {
		dst[i] += alpha * b.data[i*b.g+j]
	}
}

// AXPYIntoCol accumulates column j += alpha·src, the in-block mirror of
// ColAXPY, again in ascending row order.
func (b *Block) AXPYIntoCol(alpha float64, j int, src []float64) {
	if len(src) != b.n {
		//lint:ignore bannedcall dimension mismatch is a programmer error on the hottest kernel; an error return would tax every caller
		panic("sparse: AXPYIntoCol dimension mismatch")
	}
	for i, v := range src {
		b.data[i*b.g+j] += alpha * v
	}
}

// DropCol removes column j in place by left-packing the remaining columns,
// shrinking the block to n×(g−1). The pack walks rows in ascending order,
// so every write lands at or before its read position and no live element
// is clobbered. Slices previously returned by Data or Row are invalidated.
func (b *Block) DropCol(j int) {
	if j < 0 || j >= b.g {
		//lint:ignore bannedcall out-of-range column is a programmer error, same contract as the CSR kernels
		panic("sparse: DropCol column out of range")
	}
	g := b.g
	w := 0
	for i := 0; i < b.n; i++ {
		row := b.data[i*g : (i+1)*g]
		for jj, v := range row {
			if jj == j {
				continue
			}
			b.data[w] = v
			w++
		}
	}
	b.g = g - 1
	b.data = b.data[:b.n*b.g]
}

// Release returns the block's original slab to pool (nil-safe) and clears
// the block. The caller must not use the block afterwards.
func (b *Block) Release(pool *VecPool) {
	pool.Put(b.slab)
	b.data, b.slab, b.n, b.g = nil, nil, 0, 0
}

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
