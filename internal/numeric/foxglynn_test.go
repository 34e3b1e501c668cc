package numeric

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// poissonRef computes the Poisson pmf directly in log space.
func poissonRef(q float64, n int) float64 {
	lg, _ := math.Lgamma(float64(n) + 1)
	return math.Exp(-q + float64(n)*math.Log(q) - lg)
}

func TestFoxGlynnSmallRates(t *testing.T) {
	for _, q := range []float64{0.1, 1, 5, 20, 24.9} {
		w, err := FoxGlynn(q, 1e-12)
		if err != nil {
			t.Fatalf("FoxGlynn(%v): %v", q, err)
		}
		// Weights must match the true pmf pointwise.
		for i := w.Left; i <= w.Right; i++ {
			ref := poissonRef(q, i)
			if got := w.Weight(i); math.Abs(got-ref) > 1e-12*(1+ref) {
				t.Errorf("q=%v: weight(%d) = %v, want %v", q, i, got, ref)
			}
		}
		// Total truncated mass ≥ 1 - eps.
		var mass float64
		for i := w.Left; i <= w.Right; i++ {
			mass += w.Weight(i)
		}
		if mass < 1-1e-10 || mass > 1+1e-10 {
			t.Errorf("q=%v: normalised mass = %v", q, mass)
		}
	}
}

func TestFoxGlynnLargeRates(t *testing.T) {
	for _, q := range []float64{25, 100, 468, 5000, 1e5} {
		w, err := FoxGlynn(q, 1e-10)
		if err != nil {
			t.Fatalf("FoxGlynn(%v): %v", q, err)
		}
		if w.Left < 0 || w.Right <= w.Left {
			t.Fatalf("q=%v: bad window [%d,%d]", q, w.Left, w.Right)
		}
		// The window must contain the mode and hold ≈ all the mass.
		mode := int(q)
		if mode < w.Left || mode > w.Right {
			t.Errorf("q=%v: mode %d outside window [%d,%d]", q, mode, w.Left, w.Right)
		}
		// Compare a few weights around the mode to the reference pmf.
		for _, i := range []int{mode - 1, mode, mode + 1} {
			ref := poissonRef(q, i)
			if got := w.Weight(i); math.Abs(got-ref)/ref > 1e-8 {
				t.Errorf("q=%v: weight(%d) relative error %v", q, i, math.Abs(got-ref)/ref)
			}
		}
		// Window width should be O(sqrt q), not O(q).
		if width := w.Right - w.Left; float64(width) > 30*math.Sqrt(q)+40 {
			t.Errorf("q=%v: window width %d too large", q, width)
		}
	}
}

// TestFoxGlynnSmallCumulativeTail is the regression test for the per-term
// truncation bug: the historical small-rate path cut both walks at the
// first term below eps/4, but near q ≈ 25 consecutive terms shrink by only
// ~q/(q+1), so the *cumulative* dropped mass exceeded the advertised eps/2
// per side (at q = 20..24.9 with eps = 1e-1/1e-2 the true tail outside the
// window reached several times eps). The fix truncates on accumulated
// mass, which this test asserts directly against the exact pmf.
func TestFoxGlynnSmallCumulativeTail(t *testing.T) {
	for _, q := range []float64{1, 5, 20, 24.9} {
		for _, eps := range []float64{1e-1, 1e-2, 1e-4, 1e-8, 1e-12} {
			w, err := FoxGlynn(q, eps)
			if err != nil {
				t.Fatalf("FoxGlynn(%v, %v): %v", q, eps, err)
			}
			var kept float64
			for i := w.Left; i <= w.Right; i++ {
				kept += poissonRef(q, i)
			}
			// The mass truly outside [Left, Right] must fit in eps (eps/2
			// per side); 1e-13 absorbs the reference summation rounding.
			if tail := 1 - kept; tail > eps+1e-13 {
				t.Errorf("q=%v eps=%v: true mass outside window [%d,%d] is %g > eps",
					q, eps, w.Left, w.Right, tail)
			}
			// The ledgered per-side masses must bound the true tails and
			// respect the per-side budget.
			if w.LeftTailMass > eps/2 || w.RightTailMass > eps/2 {
				t.Errorf("q=%v eps=%v: ledgered tails %g/%g exceed eps/2",
					q, eps, w.LeftTailMass, w.RightTailMass)
			}
			var lo float64
			for i := 0; i < w.Left; i++ {
				lo += poissonRef(q, i)
			}
			if lo > w.LeftTailMass+1e-13 {
				t.Errorf("q=%v eps=%v: true left tail %g exceeds ledgered %g",
					q, eps, lo, w.LeftTailMass)
			}
			if hi := 1 - kept - lo; hi > w.RightTailMass+1e-13 {
				t.Errorf("q=%v eps=%v: true right tail %g exceeds ledgered %g",
					q, eps, hi, w.RightTailMass)
			}
		}
	}
}

// TestFoxGlynnBoundaryContinuity pins the small/large hand-off at q = 25:
// both paths must reproduce the exact pmf at their own rate on the shared
// support, the large path's left truncation must clamp at 0 (for q just
// above 25 the finder's mode − k·√q − 1.5 is negative), and the two
// windows may not drift apart by more than the pmf's own sensitivity to
// the 2e-6 rate difference.
func TestFoxGlynnBoundaryContinuity(t *testing.T) {
	const eps = 1e-12
	qLo, qHi := 25-1e-6, 25+1e-6
	lo, err := FoxGlynn(qLo, eps) // small-rate path
	if err != nil {
		t.Fatal(err)
	}
	hi, err := FoxGlynn(qHi, eps) // large-rate path
	if err != nil {
		t.Fatal(err)
	}
	if hi.Left != 0 {
		t.Errorf("large path at q=%v: left = %d, want the 0 clamp", qHi, hi.Left)
	}
	if hi.LeftTailMass != 0 {
		t.Errorf("clamped left truncation must ledger zero mass, got %g", hi.LeftTailMass)
	}
	from, to := lo.Left, lo.Right
	if hi.Left > from {
		from = hi.Left
	}
	if hi.Right < to {
		to = hi.Right
	}
	if to-from < 20 {
		t.Fatalf("shared support [%d,%d] suspiciously narrow (windows [%d,%d] and [%d,%d])",
			from, to, lo.Left, lo.Right, hi.Left, hi.Right)
	}
	for i := from; i <= to; i++ {
		refLo, refHi := poissonRef(qLo, i), poissonRef(qHi, i)
		if d := math.Abs(lo.Weight(i) - refLo); d > 1e-12*(1+refLo) {
			t.Errorf("small path weight(%d) off by %g", i, d)
		}
		if d := math.Abs(hi.Weight(i) - refHi); d > 1e-12*(1+refHi) {
			t.Errorf("large path weight(%d) off by %g", i, d)
		}
		// Cross-path continuity: the pmf itself moves by O(Δq·|i−q|/q·pmf)
		// ≈ 1e-7 at most across the 2e-6 rate gap; 1e-6 gives slack.
		if d := math.Abs(lo.Weight(i) - hi.Weight(i)); d > 1e-6 {
			t.Errorf("paths disagree at %d by %g across the q=25 boundary", i, d)
		}
	}
}

func TestFoxGlynnRejectsBadInput(t *testing.T) {
	if _, err := FoxGlynn(-1, 1e-6); err == nil {
		t.Error("negative rate accepted")
	}
	if _, err := FoxGlynn(math.NaN(), 1e-6); err == nil {
		t.Error("NaN rate accepted")
	}
	if _, err := FoxGlynn(1, 0); err == nil {
		t.Error("zero accuracy accepted")
	}
	if _, err := FoxGlynn(1, 1.5); err == nil {
		t.Error("accuracy > 1 accepted")
	}
	if _, err := FoxGlynn(1, math.NaN()); err == nil {
		t.Error("NaN accuracy accepted")
	}
}

// TestFoxGlynnRefusesHugeRates pins the step cap: a rate whose right
// truncation point lies beyond maxPoissonSteps — up to +Inf, where int(q)
// is undefined — is an ErrAccuracy error, not a makeslice panic.
func TestFoxGlynnRefusesHugeRates(t *testing.T) {
	for _, q := range []float64{math.Inf(1), 1e300, 1e18, 2e8} {
		w, err := FoxGlynn(q, 1e-8)
		if !errors.Is(err, ErrAccuracy) {
			t.Errorf("FoxGlynn(%v) = %v, %v; want an ErrAccuracy error", q, w, err)
		}
	}
}

func TestFoxGlynnZeroRate(t *testing.T) {
	w, err := FoxGlynn(0, 1e-6)
	if err != nil {
		t.Fatalf("FoxGlynn(0): %v", err)
	}
	if w.Weight(0) != 1 || w.Weight(1) != 0 {
		t.Errorf("degenerate weights wrong: %v, %v", w.Weight(0), w.Weight(1))
	}
}

func TestWeightOutsideWindowIsZero(t *testing.T) {
	w, err := FoxGlynn(100, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if w.Weight(w.Left-1) != 0 || w.Weight(w.Right+1) != 0 {
		t.Error("weights outside the truncation window must be zero")
	}
}

func TestPoissonTruncation(t *testing.T) {
	// The paper's Table 2 N-column: λt = 19.5·24 = 468.
	rows := []struct {
		eps  float64
		want int
	}{
		{1e-1, 496}, {1e-2, 519}, {1e-3, 536}, {1e-4, 551},
		{1e-5, 563}, {1e-6, 574}, {1e-7, 585}, {1e-8, 594},
	}
	for _, row := range rows {
		got, err := PoissonTruncation(468, row.eps)
		if err != nil {
			t.Fatalf("PoissonTruncation(468, %v): %v", row.eps, err)
		}
		if got != row.want {
			t.Errorf("N(468, %.0e) = %d, paper Table 2 says %d", row.eps, got, row.want)
		}
	}
}

// TestPoissonTruncationRejectsBadAccuracy pins the accuracy guard: an eps
// outside (0, 1) or not finite is an error. NaN used to slip through the
// comparisons and return N = 0, which turned a Sericola check into 0.
func TestPoissonTruncationRejectsBadAccuracy(t *testing.T) {
	for _, eps := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1e-9, 1, 1.5} {
		if n, err := PoissonTruncation(468, eps); err == nil {
			t.Errorf("PoissonTruncation(468, %v) = %d, want an error", eps, n)
		}
	}
}

func TestPoissonTruncationProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := rng.Float64() * 200
		n, err := PoissonTruncation(q, 1e-6)
		if err != nil {
			return false
		}
		// Cumulative mass up to n must reach 1-eps; up to n-1 must not.
		var cum float64
		for i := 0; i <= n; i++ {
			cum += poissonRef(q, i)
		}
		if cum < 1-1e-6-1e-12 {
			return false
		}
		if n > 0 {
			cum -= poissonRef(q, n)
			if cum >= 1-1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPoissonPMF(t *testing.T) {
	if got := PoissonPMF(0, 0); got != 1 {
		t.Errorf("PMF(0,0) = %v, want 1", got)
	}
	if got := PoissonPMF(0, 3); got != 0 {
		t.Errorf("PMF(0,3) = %v, want 0", got)
	}
	if got, want := PoissonPMF(2, 2), 2*math.Exp(-2); math.Abs(got-want) > 1e-15 {
		t.Errorf("PMF(2,2) = %v, want %v", got, want)
	}
}
