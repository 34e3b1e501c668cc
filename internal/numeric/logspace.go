package numeric

import (
	"fmt"
	"math"
)

// This file holds the sanctioned log-space probability helpers. The
// expunderflow analyzer (internal/lint) flags hand-rolled exp/log pmf
// terms everywhere else in the module and points here: Poisson terms
// underflow long before their normalised sums do, so they are computed
// as exp of a log-domain sum in exactly one place. Binomial masses need
// no logarithms: BinomialStep builds them by Pascal's rule.

// ApproxEqual reports whether a and b agree to within tol (absolute).
// NaN compares unequal to everything, including itself; infinities are
// equal only to themselves. This is the approved comparison for computed
// floating-point quantities — the floatcmp analyzer flags naked ==/!=.
func ApproxEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	return math.Abs(a-b) <= tol
}

// LogFactorials returns the table lf with lf[i] = ln(i!) for 0 ≤ i ≤ n,
// built by the stable running sum lf[i] = lf[i-1] + ln(i).
//
//numerics:domain log
func LogFactorials(n int) []float64 {
	if n < 0 {
		return nil
	}
	lf := make([]float64, n+1)
	for i := 2; i <= n; i++ {
		lf[i] = lf[i-1] + math.Log(float64(i))
	}
	return lf
}

// PoissonPMFTable returns pmf(n) = e^{-q}·q^n/n! for 0 ≤ n ≤ nMax as a
// closure over a precomputed log-factorial table and cached ln(q) — the
// per-call cost on hot uniformisation loops is one Exp. Arguments outside
// the table range return 0.
//
//numerics:domain q=rate
func PoissonPMFTable(q float64, nMax int) (func(n int) float64, error) {
	if q < 0 || math.IsNaN(q) || math.IsInf(q, 0) {
		return nil, fmt.Errorf("numeric: PoissonPMFTable rate %v out of range", q)
	}
	if nMax < 0 {
		return nil, fmt.Errorf("numeric: PoissonPMFTable nMax %d out of range", nMax)
	}
	if q == 0 {
		return func(n int) float64 {
			if n == 0 {
				return 1
			}
			return 0
		}, nil
	}
	lf := LogFactorials(nMax)
	logQ := math.Log(q)
	return func(n int) float64 {
		if n < 0 || n > nMax {
			return 0
		}
		return math.Exp(-q + float64(n)*logQ - lf[n])
	}, nil
}
