package sparse

import "math"

// The vector kernels below are the reference the block kernels are pinned
// against, kept here as test oracles: the block kernels must reproduce
// them bit for bit, column by column, at every g (including g = 1, where
// the kernels take their register specialisations) and every workers
// value.

// mulVec computes dst = M·x by one register dot product per row.
func mulVec(m *CSR, dst, x []float64) {
	for i := 0; i < m.n; i++ {
		var s float64
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			s += m.val[k] * x[m.col[k]]
		}
		dst[i] = s
	}
}

// mulVecT computes dst = Mᵀ·x (dst = x·M) by scattering each row whose
// source entry is non-zero; it pins Transpose.
func mulVecT(m *CSR, dst, x []float64) {
	for i := range dst {
		dst[i] = 0
	}
	for i := 0; i < m.n; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			dst[m.col[k]] += m.val[k] * xi
		}
	}
}

// vecBlock wraps x as an n×1 block sharing its storage, so a vector can
// go through the block kernels without a copy.
func vecBlock(x []float64) *Block {
	return &Block{n: len(x), g: 1, data: x, slab: x}
}

// planMul computes dst = M·src by one step of a SweepPlan at the given
// workers value, the partitioned product of every backward sweep. Seed
// writes the fixed rows, which the step leaves out.
func planMul(m *CSR, dst, src *Block, workers int) {
	p := NewSweepPlan(m, src.g, workers)
	p.Seed(src, dst)
	p.Step(dst, src, 0, nil, nil, nil)
}

// colMaxDiff returns max_i |b[i,j] − o[i,j]| in ascending row order, the
// separate steady-test pass the fused sweep step replaces.
func colMaxDiff(b, o *Block, j int) float64 {
	var mx float64
	for i := 0; i < b.n; i++ {
		if d := math.Abs(b.At(i, j) - o.At(i, j)); d > mx {
			mx = d
		}
	}
	return mx
}
