package sparse

import (
	"math"

	"github.com/performability/csrl/internal/parallel"
)

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
// source entry is non-zero.
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

// mulVecTPar computes dst = Mᵀ·x partitioned like MulBlockTPar: each
// worker scatters its rowCuts range into a private buffer, and the buffers
// are reduced into dst in worker order.
func mulVecTPar(m *CSR, dst, x []float64, workers int) {
	w := parallel.Resolve(workers)
	if w == 1 || m.NNZ() < parGrain || m.n < 2 {
		mulVecT(m, dst, x)
		return
	}
	cuts := m.rowCuts(w)
	nParts := len(cuts) - 1
	bufs := make([][]float64, nParts)
	scatter := make([]func(), 0, nParts)
	for c := 0; c < nParts; c++ {
		c := c
		lo, hi := cuts[c], cuts[c+1]
		scatter = append(scatter, func() {
			buf := make([]float64, m.n)
			for i := lo; i < hi; i++ {
				xi := x[i]
				if xi == 0 {
					continue
				}
				for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
					buf[m.col[k]] += m.val[k] * xi
				}
			}
			bufs[c] = buf
		})
	}
	parallel.Do(scatter...)
	for j := range dst {
		var s float64
		for _, buf := range bufs {
			s += buf[j]
		}
		dst[j] = s
	}
}

// vecBlock wraps x as an n×1 block sharing its storage, so a vector can
// go through the block kernels without a copy.
func vecBlock(x []float64) *Block {
	return &Block{n: len(x), g: 1, data: x, slab: x}
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
