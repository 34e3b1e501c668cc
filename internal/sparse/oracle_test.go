package sparse

import "math"

// The vector kernels below are the reference the row kernels are pinned
// against, kept here as test oracles: MulBlockRows must reproduce them bit
// for bit, column by column, at every g (including g = 1, where it takes
// its register specialisation), and a SweepPlan step at every workers
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

// planMul computes dst = M·src by one step of a SweepPlan at the given
// workers value, the partitioned product of every backward sweep. Seed
// writes the fixed rows, which the step leaves out.
func planMul(m *CSR, dst, src []float64, workers int) {
	p := NewSweepPlan(m, workers)
	p.Seed(dst, src)
	p.Sweep(func() { p.Step(dst, src, 0, nil) })
}

// maxDiff returns max_i |a[i] − b[i]| in ascending row order, the separate
// steady-test pass the fused sweep step replaces.
func maxDiff(a, b []float64) float64 {
	var mx float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > mx {
			mx = d
		}
	}
	return mx
}
