// Positive cases for the detorder analyzer: float reductions whose order
// depends on the worker count, and bad order-invariant annotations.
package fake

import (
	"runtime"

	"github.com/performability/csrl/internal/parallel"
)

// rowCuts partitions n rows into t contiguous chunks.
func rowCuts(n, t int) []int {
	cuts := make([]int, t+1)
	for i := range cuts {
		cuts[i] = i * n / t
	}
	return cuts
}

// Folding per-worker partials in a loop bounded by the worker count.
func sumPartials(partials []float64, workers int) float64 {
	s := 0.0
	for w := 0; w < workers; w++ {
		s += partials[w] // want "float accumulation into s inside a worker-count-shaped loop"
	}
	return s
}

// The buffer count derives from the rowCuts partition, which derives from
// the worker count: ranging over it is worker-count-shaped.
func reduceBufs(xs []float64, workers int) []float64 {
	cuts := rowCuts(len(xs), workers)
	bufs := make([][]float64, len(cuts)-1)
	for i := range bufs {
		bufs[i] = make([]float64, len(xs))
	}
	y := make([]float64, len(xs))
	for i := 0; i < len(xs); i++ {
		for k := range bufs {
			y[i] += bufs[k][i] // want "float accumulation into y"
		}
	}
	return y
}

// runtime.NumCPU seeds the taint directly.
func cpuFold(xs []float64) float64 {
	t := runtime.NumCPU()
	total := 0.0
	for w := 0; w < t; w++ {
		total += xs[w] // want "float accumulation into total"
	}
	return total
}

// A captured scalar accumulated inside a parallel task literal.
func racyFold(xs []float64) float64 {
	s := 0.0
	parallel.For(0, len(xs), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s += xs[i] // want "captured float accumulator s inside a parallel.For task"
		}
	})
	return s
}

// A captured scalar accumulated inside a part of a step team.
func racyTeamFold(xs []float64) float64 {
	s := 0.0
	parallel.Steps(len(xs), func(i int) {
		s += xs[i] // want "captured float accumulator s inside a parallel.Steps task"
	}, func(step func()) {
		step()
	})
	return s
}

// The annotation needs a reason.
//
//numerics:order-invariant // want "needs a reason"
func badReason(partials []float64, workers int) float64 {
	s := 0.0
	for w := 0; w < workers; w++ {
		s += partials[w]
	}
	return s
}
