package numeric

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/performability/csrl/internal/sparse"
)

func mustCSR(t *testing.T, n int, ts []sparse.Triplet) *sparse.CSR {
	t.Helper()
	m, err := sparse.NewFromTriplets(n, ts)
	if err != nil {
		t.Fatalf("matrix: %v", err)
	}
	return m
}

// The fixed-point system of a simple random walk: from state 0, reach the
// right end (prob contributes to b) with p=0.5 or bounce left.
func TestSolveGaussSeidelGamblersRuin(t *testing.T) {
	// States 0..3 internal; absorbing win/lose folded into b. Fair coin.
	// x_i = 0.5 x_{i-1} + 0.5 x_{i+1}, x_{-1}=0 (lose), x_4=1 (win).
	n := 4
	var ts []sparse.Triplet
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			ts = append(ts, sparse.Triplet{Row: i, Col: i - 1, Val: 0.5})
		}
		if i < n-1 {
			ts = append(ts, sparse.Triplet{Row: i, Col: i + 1, Val: 0.5})
		} else {
			b[i] = 0.5
		}
	}
	a := mustCSR(t, n, ts)
	x, err := SolveGaussSeidel(a, b, DefaultSolveOptions())
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	for i := 0; i < n; i++ {
		want := float64(i+1) / 5 // classical gambler's ruin
		if math.Abs(x[i]-want) > 1e-10 {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want)
		}
	}
}

// TestGaussSeidelMatchesGaussianEliminate judges the iterative solver
// against the direct one on random well-posed systems (I - A)·x = b.
func TestGaussSeidelMatchesGaussianEliminate(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		var ts []sparse.Triplet
		b := make([]float64, n)
		// Random substochastic matrix with leak, so (I-A) is an M-matrix.
		for i := 0; i < n; i++ {
			remaining := 0.9 * rng.Float64()
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.5 {
					w := remaining * rng.Float64()
					remaining -= w
					if w > 0 && i != j {
						ts = append(ts, sparse.Triplet{Row: i, Col: j, Val: w})
					}
				}
			}
			b[i] = rng.Float64()
		}
		a, err := sparse.NewFromTriplets(n, ts)
		if err != nil {
			return false
		}
		dense := make([][]float64, n)
		for i := range dense {
			dense[i] = make([]float64, n)
			dense[i][i] = 1
		}
		a.Each(func(i, j int, v float64) { dense[i][j] -= v })
		rhs := append([]float64(nil), b...)
		x1, err1 := SolveGaussSeidel(a, b, DefaultSolveOptions())
		x2, err2 := GaussianEliminate(dense, rhs)
		if err1 != nil || err2 != nil {
			return false
		}
		return maxDiff(x1, x2) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSolveRejectsBadRHS(t *testing.T) {
	a := mustCSR(t, 2, nil)
	if _, err := SolveGaussSeidel(a, []float64{1}, DefaultSolveOptions()); err == nil {
		t.Error("length mismatch accepted by Gauss-Seidel")
	}
}

// TestSolveFixesAbsorbingRows pins the solver's treatment of a row whose
// diagonal is 1, an absorbing state of an until system: it keeps x_i = 0
// instead of dividing by 1 − 1 = 0, and the rows that lead into it see
// that 0.
func TestSolveFixesAbsorbingRows(t *testing.T) {
	a := mustCSR(t, 3, []sparse.Triplet{
		{Row: 0, Col: 1, Val: 0.5},
		{Row: 0, Col: 2, Val: 0.5},
		{Row: 1, Col: 1, Val: 1},
	})
	x, err := SolveGaussSeidel(a, []float64{0, 0, 1}, DefaultSolveOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{0.5, 0, 1} {
		if x[i] != want {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want)
		}
	}
}

func TestSolveNoConvergence(t *testing.T) {
	// x = x + 1 never converges: A = I (diagonal 1 → treated as fixed rows),
	// so instead use a slowly mixing chain with a tiny iteration budget.
	a := mustCSR(t, 2, []sparse.Triplet{
		{Row: 0, Col: 1, Val: 0.999999},
		{Row: 1, Col: 0, Val: 0.999999},
	})
	opts := SolveOptions{Tolerance: 1e-15, MaxIterations: 3}
	if _, err := SolveGaussSeidel(a, []float64{1, 1}, opts); !errors.Is(err, ErrNoConvergence) {
		t.Errorf("want ErrNoConvergence, got %v", err)
	}
}

func TestSolveToleranceDefaults(t *testing.T) {
	// Zero and negative tolerances fall back to the conservative default
	// instead of looping forever (tol 0 can never be undercut) or
	// accepting the first iterate (negative tol).
	a := mustCSR(t, 2, []sparse.Triplet{
		{Row: 0, Col: 1, Val: 0.5},
		{Row: 1, Col: 0, Val: 0.5},
	})
	b := []float64{0.5, 0.5}
	want := []float64{1, 1} // x = 0.5x' + 0.5 with symmetry → x = 1
	for _, tol := range []float64{0, -1, math.Inf(-1)} {
		x, err := SolveGaussSeidel(a, b, SolveOptions{Tolerance: tol})
		if err != nil {
			t.Fatalf("tol=%v: %v", tol, err)
		}
		if maxDiff(x, want) > 1e-9 {
			t.Errorf("tol=%v: x = %v, want %v", tol, x, want)
		}
	}
}

func TestSolveIterationCap(t *testing.T) {
	// The solver must surface ErrNoConvergence (wrapped, so errors.Is)
	// when the cap is too small, rather than returning the stale iterate.
	a := mustCSR(t, 2, []sparse.Triplet{
		{Row: 0, Col: 1, Val: 0.999999},
		{Row: 1, Col: 0, Val: 0.999999},
	})
	opts := SolveOptions{Tolerance: 1e-15, MaxIterations: 2}
	if _, err := SolveGaussSeidel(a, []float64{1, 1}, opts); !errors.Is(err, ErrNoConvergence) {
		t.Errorf("want ErrNoConvergence, got %v", err)
	}
}

func TestGaussianEliminate(t *testing.T) {
	m := [][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	}
	rhs := []float64{8, -11, -3}
	x, err := GaussianEliminate(m, rhs)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestGaussianEliminateSingular(t *testing.T) {
	m := [][]float64{{1, 1}, {2, 2}}
	if _, err := GaussianEliminate(m, []float64{1, 2}); err == nil {
		t.Error("singular matrix accepted")
	}
}

func TestGaussianEliminateNeedsPivoting(t *testing.T) {
	// Zero leading pivot forces a row swap.
	m := [][]float64{{0, 1}, {1, 0}}
	x, err := GaussianEliminate(m, []float64{3, 4})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if x[0] != 4 || x[1] != 3 {
		t.Errorf("x = %v, want [4 3]", x)
	}
}

// maxDiff returns max_i |x[i] − y[i]|.
func maxDiff(x, y []float64) float64 {
	var m float64
	for i, v := range x {
		if d := math.Abs(v - y[i]); d > m {
			m = d
		}
	}
	return m
}
