// Negative cases for the detorder analyzer: per-iteration accumulators,
// non-worker loops, integer folds, per-element parallel writes and an
// order-invariant annotation with a reason all stay silent.
package fake

import "github.com/performability/csrl/internal/parallel"

// rowCuts partitions n rows into t contiguous chunks.
func rowCuts(n, t int) []int {
	cuts := make([]int, t+1)
	for i := range cuts {
		cuts[i] = i * n / t
	}
	return cuts
}

// tFold deliberately folds per-worker partials over the rowCuts partition.
//
//numerics:order-invariant the partition is pinned by rowCuts so block and vector paths agree
func tFold(xs []float64, workers int) float64 {
	cuts := rowCuts(len(xs), workers)
	s := 0.0
	for w := 0; w+1 < len(cuts); w++ {
		s += xs[cuts[w]]
	}
	return s
}

// A per-iteration accumulator resets each pass: the fold order inside one
// worker's chunk does not depend on the worker count.
func perWorkerPartials(bufs [][]float64, workers int) []float64 {
	out := make([]float64, workers)
	for w := 0; w < workers; w++ {
		s := 0.0
		for _, v := range bufs[w] {
			s += v
		}
		out[w] = s
	}
	return out
}

// Integer accumulation is exact in any order.
func countItems(xs []int, workers int) int {
	n := 0
	for w := 0; w < workers; w++ {
		n += xs[w]
	}
	return n
}

// A loop bounded by the data size, not the worker count.
func plainSum(xs []float64) float64 {
	s := 0.0
	for i := 0; i < len(xs); i++ {
		s += xs[i]
	}
	return s
}

// Per-element indexed writes inside a parallel task are per-index, not a
// shared fold.
func scaleInPlace(y, xs []float64) {
	parallel.For(0, len(xs), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			y[i] += xs[i]
		}
	})
}
