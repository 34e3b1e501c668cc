package numeric

import (
	"errors"
	"fmt"
	"math"

	"github.com/performability/csrl/internal/sparse"
)

// Solver options for the iterative linear solvers.
type SolveOptions struct {
	// Tolerance on the max-norm difference between successive iterates.
	Tolerance float64
	// MaxIterations bounds the iteration count.
	MaxIterations int
}

// DefaultSolveOptions returns conservative defaults suitable for the
// well-conditioned systems arising in probabilistic model checking.
func DefaultSolveOptions() SolveOptions {
	return SolveOptions{Tolerance: 1e-12, MaxIterations: 100_000}
}

// ErrNoConvergence reports that an iterative method hit its iteration cap.
var ErrNoConvergence = errors.New("numeric: iterative solver did not converge")

// SolveGaussSeidel solves (I - A)·x = b by Gauss–Seidel sweeps, the
// standard fixed-point form for unbounded-until probabilities
// (x = A·x + b with A substochastic). A's diagonal entries must be < 1.
func SolveGaussSeidel(a *sparse.CSR, b []float64, opts SolveOptions) ([]float64, error) {
	n := a.Dim()
	if len(b) != n {
		return nil, fmt.Errorf("numeric: rhs length %d for %d×%d system", len(b), n, n)
	}
	if opts.Tolerance <= 0 {
		opts.Tolerance = 1e-12
	}
	if opts.MaxIterations <= 0 {
		opts.MaxIterations = 100_000
	}
	x := make([]float64, n)
	for iter := 0; iter < opts.MaxIterations; iter++ {
		var maxDelta float64
		for i := 0; i < n; i++ {
			var sum, diag float64
			a.Row(i, func(j int, v float64) {
				if j == i {
					diag = v
					return
				}
				sum += v * x[j]
			})
			denom := 1 - diag
			if denom <= 0 {
				// A absorbing row with self-loop probability 1 contributes
				// x_i = 0 in until systems; treat as fixed.
				continue
			}
			newXi := (b[i] + sum) / denom
			if d := math.Abs(newXi - x[i]); d > maxDelta {
				maxDelta = d
			}
			x[i] = newXi
		}
		if maxDelta < opts.Tolerance {
			return x, nil
		}
	}
	return nil, fmt.Errorf("%w: Gauss-Seidel after %d iterations", ErrNoConvergence, opts.MaxIterations)
}

// GaussianEliminate solves the dense linear system M·x = rhs by Gaussian
// elimination with partial pivoting. Used for small systems (stationary
// distributions of BSCCs) where direct solution beats iteration.
// M is modified in place.
func GaussianEliminate(m [][]float64, rhs []float64) ([]float64, error) {
	n := len(m)
	if len(rhs) != n {
		return nil, fmt.Errorf("numeric: rhs length %d for %d×%d system", len(rhs), n, n)
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(m[pivot][col]) < 1e-300 {
			return nil, fmt.Errorf("numeric: singular matrix at column %d", col)
		}
		m[col], m[pivot] = m[pivot], m[col]
		rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
		inv := 1 / m[col][col]
		for r := col + 1; r < n; r++ {
			f := m[r][col] * inv
			if f == 0 {
				continue
			}
			m[r][col] = 0
			for c := col + 1; c < n; c++ {
				m[r][c] -= f * m[col][c]
			}
			rhs[r] -= f * rhs[col]
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := rhs[i]
		for c := i + 1; c < n; c++ {
			s -= m[i][c] * x[c]
		}
		x[i] = s / m[i][i]
	}
	return x, nil
}
