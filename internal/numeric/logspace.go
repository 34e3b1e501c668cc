package numeric

import (
	"fmt"
	"math"
)

// This file holds the sanctioned log-space probability helpers. The
// expunderflow analyzer (internal/lint) flags hand-rolled exp/log pmf
// terms everywhere else in the module and points here: Poisson and
// binomial terms underflow long before their normalised sums do, so they
// are computed as exp of a log-domain sum in exactly one place.

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

// BinomialPMF returns C(n,k)·x^k·(1-x)^(n-k), evaluated in log space so
// that deep tails underflow gracefully to 0 instead of polluting sums with
// Inf/NaN. lf must hold log-factorials at least up to n (LogFactorials).
// The degenerate success probabilities 0 and 1 short-circuit exactly.
//
//numerics:domain prob lf=log x=prob
func BinomialPMF(lf []float64, n, k int, x float64) float64 {
	if k < 0 || k > n {
		return 0
	}
	switch {
	case x == 0:
		if k == 0 {
			return 1
		}
		return 0
	//lint:ignore floatcmp degenerate success probability is set exactly by callers; the general branch handles x in (0,1)
	case x == 1:
		if k == n {
			return 1
		}
		return 0
	}
	//lint:ignore probrange the exponent is the log of a binomial mass, hence <= 0, so Exp stays in [0,1]; interval analysis cannot bound a log-space exponent
	return math.Exp(lf[n] - lf[k] - lf[n-k] +
		float64(k)*math.Log(x) + float64(n-k)*math.Log1p(-x))
}

// minExpArg is the smallest float64 for which math.Exp returns a non-zero
// value (the least subnormal, 5e-324); every argument below it returns +0.
// It is the Underflow bound of the math package's portable Exp, and the
// amd64 assembly Exp agrees (TestMinExpArg).
const minExpArg = -745.1332191019411

// BinomialRow fills dst[k] = BinomialPMF(lf, n, k, x) for 0 ≤ k ≤ n. Entry
// for entry it evaluates the identical log-domain expression as
// BinomialPMF — results are bitwise equal — but hoists log(x) and
// log1p(-x) out of the loop, which matters to callers that need whole rows
// per uniformisation level (the Sericola recursion evaluates O(N²) terms),
// and writes +0 without calling Exp where the exponent is below minExpArg:
// deep tails of long rows underflow (at n = 600 and x ≈ 0.036, 256 of 601
// terms).
//
//numerics:domain lf=log x=prob dst=prob
func BinomialRow(lf []float64, n int, x float64, dst []float64) {
	//lint:ignore floatcmp degenerate success probability is set exactly by callers; the general branch handles x in (0,1)
	if x == 0 || x == 1 {
		for k := 0; k <= n; k++ {
			dst[k] = BinomialPMF(lf, n, k, x)
		}
		return
	}
	lx, l1x := math.Log(x), math.Log1p(-x)
	for k := 0; k <= n; k++ {
		e := lf[n] - lf[k] - lf[n-k] + float64(k)*lx + float64(n-k)*l1x
		if e < minExpArg {
			dst[k] = 0
			continue
		}
		dst[k] = math.Exp(e)
	}
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
