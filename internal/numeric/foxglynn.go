// Package numeric provides the numerical kernels used by the model-checking
// procedures: Fox–Glynn Poisson weight computation for uniformisation,
// iterative linear solvers, and small utilities.
package numeric

import (
	"errors"
	"fmt"
	"math"
)

// PoissonWeights holds truncated, normalised Poisson probabilities as
// produced by FoxGlynn. Weight(i) ≈ e^{-λ}·λ^i/i! for Left ≤ i ≤ Right and
// the total mass outside [Left, Right] is below the requested accuracy.
type PoissonWeights struct {
	Left, Right int
	// W[i-Left] is the unnormalised weight of i; divide by TotalWeight.
	W           []float64
	TotalWeight float64
	// LeftTailMass and RightTailMass bound the true Poisson mass truncated
	// away below Left and above Right. The small-rate path records the
	// exactly accumulated dropped sums; the large-rate path records the
	// Chernoff-style finder bounds it selected the truncation points with.
	// Each is ≤ eps/2 by construction, so their sum is the Fox–Glynn
	// contribution to an error-budget ledger.
	LeftTailMass, RightTailMass float64
}

// Weight returns the normalised Poisson probability of i, or 0 outside the
// truncation window.
//
//numerics:domain prob
func (p *PoissonWeights) Weight(i int) float64 {
	if i < p.Left || i > p.Right {
		return 0
	}
	return p.W[i-p.Left] / p.TotalWeight
}

// ErrAccuracy reports that the requested accuracy cannot be met.
var ErrAccuracy = errors.New("numeric: unachievable accuracy")

// maxPoissonSteps caps the Poisson truncation points FoxGlynn and
// PoissonTruncation accept. Every step up to the right truncation point
// costs one matrix pass (or one Sericola level) in the callers, so a
// larger point is a request no check can finish; it is refused with
// ErrAccuracy before any int conversion or allocation could overflow.
const maxPoissonSteps = 100_000_000

// FoxGlynn computes truncated Poisson probabilities for rate q ≥ 0 with total
// truncation error at most eps, following Fox & Glynn, "Computing Poisson
// probabilities", CACM 31(4), 1988. The weights are scaled to avoid
// underflow; normalise by TotalWeight.
//
//numerics:truncates foxglynn/left-tail foxglynn/right-tail
func FoxGlynn(q, eps float64) (*PoissonWeights, error) {
	switch {
	case math.IsNaN(q) || q < 0:
		return nil, fmt.Errorf("numeric: FoxGlynn rate %v out of range", q)
	case !(eps > 0 && eps < 1):
		// The negated form also refuses NaN, which would end the tail
		// searches at once.
		return nil, fmt.Errorf("numeric: FoxGlynn accuracy %v out of range", eps)
	case math.IsInf(q, 1):
		return nil, fmt.Errorf("%w: FoxGlynn rate %v has no finite truncation point", ErrAccuracy, q)
	}
	if q == 0 {
		return &PoissonWeights{Left: 0, Right: 0, W: []float64{1}, TotalWeight: 1}, nil
	}
	if q < 25 {
		// Small rates: direct stable computation in log space; e^{-q} does
		// not underflow and the simple recurrence is accurate.
		return foxGlynnSmall(q, eps)
	}
	return foxGlynnLarge(q, eps)
}

func foxGlynnSmall(q, eps float64) (*PoissonWeights, error) {
	// Truncate on *cumulative* dropped mass, eps/2 per side. A per-term
	// threshold (the historical p < eps/4 test) is wrong here: near q ≈ 25
	// consecutive terms shrink by only ~q/(q+1) per step, so dozens of
	// just-under-threshold terms could jointly exceed the advertised eps/2.
	// For q < 25 the mode is small, so linear scans are cheap.
	mode := int(q)
	logP := -q + float64(mode)*math.Log(q) - logFactorial(mode)
	pMode := math.Exp(logP)

	// Left truncation: pmf(0..mode) by downward recurrence from the mode,
	// then drop the longest low prefix whose summed mass fits in eps/2.
	low := make([]float64, mode+1)
	low[mode] = pMode
	for i := mode - 1; i >= 0; i-- {
		low[i] = low[i+1] * float64(i+1) / q
	}
	left := 0
	var leftMass float64
	for left < mode {
		if leftMass+low[left] > eps/2 {
			break
		}
		leftMass += low[left]
		left++
	}
	// Right truncation: extend until the total accumulated mass — kept
	// window plus the dropped left prefix — leaves a true upper tail of at
	// most eps/2. The ascending sum over the left prefix plus the kept
	// terms keeps the bound honest in floating point.
	total := leftMass
	for i := left; i <= mode; i++ {
		total += low[i]
	}
	right := mode
	p := pMode
	for 1-total > eps/2 {
		right++
		p *= q / float64(right)
		total += p
		if right > mode+10_000_000 {
			return nil, fmt.Errorf("%w: right truncation did not converge for q=%v", ErrAccuracy, q)
		}
	}
	rightMass := 1 - total
	if rightMass < 0 {
		rightMass = 0
	}
	w := make([]float64, right-left+1)
	// Fill weights by recurrence from the mode outwards for stability.
	w[mode-left] = pMode
	for i := mode - 1; i >= left; i-- {
		w[i-left] = w[i-left+1] * float64(i+1) / q
	}
	for i := mode + 1; i <= right; i++ {
		w[i-left] = w[i-left-1] * q / float64(i)
	}
	var sum float64
	for _, v := range w {
		sum += v
	}
	return &PoissonWeights{
		Left: left, Right: right, W: w, TotalWeight: sum,
		LeftTailMass: leftMass, RightTailMass: rightMass,
	}, nil
}

func foxGlynnLarge(q, eps float64) (*PoissonWeights, error) {
	// Right truncation point via the Chernoff-style bound of Fox–Glynn
	// (their "finder" with a_λ corrected): choose k such that the right
	// tail mass is below eps/2.
	sqrtQ := math.Sqrt(q)
	var right int
	var rightMass float64
	{
		aLambda := (1 + 1/q) * math.Exp(1.0/16) * math.Sqrt2
		k := 4.0
		for {
			d := 1.0 / (1 - math.Exp(-(2.0/9.0)*(k*math.Sqrt2*sqrtQ+1.5)))
			rightMass = aLambda * d * math.Exp(-k*k/2) / (k * math.Sqrt(2*math.Pi))
			if rightMass <= eps/2 {
				break
			}
			k++
			if k > 1e6 {
				return nil, fmt.Errorf("%w: right truncation for q=%v", ErrAccuracy, q)
			}
		}
		// Bound the point in float64 first: int(q) of a huge q is
		// undefined and the window slice below is sized from it.
		rightF := math.Ceil(math.Floor(q) + k*math.Sqrt2*sqrtQ + 1.5)
		if rightF > maxPoissonSteps {
			return nil, fmt.Errorf("%w: Poisson right truncation point %.3g for q=%v exceeds the %d-step cap",
				ErrAccuracy, rightF, q, maxPoissonSteps)
		}
		right = int(rightF)
	}
	mode := int(q)
	// Left truncation point: symmetric bound on the lower tail.
	var left int
	var leftMass float64
	{
		bLambda := (1 + 1/q) * math.Exp(1.0/(8*q))
		k := 4.0
		for {
			leftMass = bLambda * math.Exp(-k*k/2) / (k * math.Sqrt(2*math.Pi))
			if leftMass <= eps/2 {
				break
			}
			k++
			if k > 1e6 {
				return nil, fmt.Errorf("%w: left truncation for q=%v", ErrAccuracy, q)
			}
		}
		// For q just above the small/large switch at 25, mode − k·√q − 1.5
		// goes negative (k ≥ 4 ⇒ mode − 4·5 − 1.5 < 0 up to q ≈ 47): the
		// window then starts at 0 and nothing is truncated on the left.
		left = int(math.Floor(float64(mode) - k*sqrtQ - 1.5))
		if left <= 0 {
			left = 0
			leftMass = 0
		}
	}

	w := make([]float64, right-left+1)
	// Scaled weights: start from a large constant at the mode to protect
	// against underflow at the truncation points, then normalise.
	const scale = 1e280
	w[mode-left] = scale * 1e-20
	for i := mode - 1; i >= left; i-- {
		w[i-left] = w[i-left+1] * float64(i+1) / q
	}
	for i := mode + 1; i <= right; i++ {
		w[i-left] = w[i-left-1] * q / float64(i)
	}
	var total float64
	// Sum smallest-to-largest from both ends for accuracy.
	lo, hi := 0, len(w)-1
	for lo < hi {
		if w[lo] <= w[hi] {
			total += w[lo]
			lo++
		} else {
			total += w[hi]
			hi--
		}
	}
	total += w[lo]
	if total <= 0 || math.IsInf(total, 0) || math.IsNaN(total) {
		return nil, fmt.Errorf("%w: weight normalisation failed for q=%v", ErrAccuracy, q)
	}
	return &PoissonWeights{
		Left: left, Right: right, W: w, TotalWeight: total,
		LeftTailMass: leftMass, RightTailMass: rightMass,
	}, nil
}

// PoissonTruncation returns the smallest N such that the Poisson(q)
// distribution has cumulative mass ≥ 1-eps on {0..N}. This is the a-priori
// step bound N_ε used by the occupation-time algorithm (paper §4.4). An
// eps outside (0, 1), NaN included, is an error.
//
//numerics:truncates sericola/series-remainder
func PoissonTruncation(q, eps float64) (int, error) {
	if q < 0 || math.IsNaN(q) {
		return 0, fmt.Errorf("numeric: PoissonTruncation rate %v out of range", q)
	}
	// A NaN eps would stop the loop below at once and return N = 0.
	if !(eps > 0 && eps < 1) {
		return 0, fmt.Errorf("numeric: PoissonTruncation accuracy %v out of range", eps)
	}
	if q == 0 {
		return 0, nil
	}
	// Accumulate pmf in a numerically safe way using log-space terms.
	logTerm := -q // log pmf(0)
	cum := math.Exp(logTerm)
	n := 0
	for cum < 1-eps {
		n++
		logTerm += math.Log(q) - math.Log(float64(n))
		cum += math.Exp(logTerm)
		if n > maxPoissonSteps {
			return 0, fmt.Errorf("%w: PoissonTruncation for q=%v eps=%v", ErrAccuracy, q, eps)
		}
	}
	return n, nil
}

// PoissonPMF returns the Poisson(q) probability of n, computed in log space.
//
//numerics:domain prob q=rate
func PoissonPMF(q float64, n int) float64 {
	if q == 0 {
		if n == 0 {
			return 1
		}
		return 0
	}
	//lint:ignore probrange the exponent -q + n*log(q) - log(n!) is the log of a Poisson mass, hence <= 0, so Exp stays in [0,1]; interval analysis cannot bound a log-space exponent
	return math.Exp(-q + float64(n)*math.Log(q) - logFactorial(n))
}

// logFactorial returns ln(n!) via the log-gamma function.
//
//numerics:domain log
func logFactorial(n int) float64 {
	lg, _ := math.Lgamma(float64(n) + 1)
	return lg
}
