package numeric

import (
	"math"
	"testing"
)

func TestApproxEqual(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	cases := []struct {
		a, b, tol float64
		want      bool
	}{
		{1, 1 + 1e-13, 1e-12, true},
		{1, 1 + 1e-11, 1e-12, false},
		{0, 0, 0, true},
		{-2, -2.5, 0.5, true},
		{inf, inf, 1e-9, true},
		{inf, -inf, 1e-9, false},
		{inf, 1e308, 1e308, false},
		{nan, nan, math.Inf(1), false},
		{nan, 1, 1, false},
		{1, nan, 1, false},
	}
	for _, c := range cases {
		if got := ApproxEqual(c.a, c.b, c.tol); got != c.want {
			t.Errorf("ApproxEqual(%v, %v, %v) = %v, want %v", c.a, c.b, c.tol, got, c.want)
		}
	}
}

func TestLogFactorials(t *testing.T) {
	lf := LogFactorials(20)
	if len(lf) != 21 {
		t.Fatalf("len = %d, want 21", len(lf))
	}
	fact := 1.0
	for i := 1; i <= 20; i++ {
		fact *= float64(i)
		if math.Abs(lf[i]-math.Log(fact)) > 1e-9 {
			t.Errorf("lf[%d] = %v, want ln(%v) = %v", i, lf[i], fact, math.Log(fact))
		}
	}
	if LogFactorials(-1) != nil {
		t.Error("LogFactorials(-1) should be nil")
	}
}

func TestBinomialPMF(t *testing.T) {
	lf := LogFactorials(40)
	// Against direct evaluation for moderate n.
	binom := func(n, k int) float64 {
		c := 1.0
		for i := 0; i < k; i++ {
			c = c * float64(n-i) / float64(i+1)
		}
		return c
	}
	for _, x := range []float64{0.1, 0.5, 0.9} {
		for n := 0; n <= 12; n++ {
			for k := 0; k <= n; k++ {
				want := binom(n, k) * math.Pow(x, float64(k)) * math.Pow(1-x, float64(n-k))
				if got := BinomialPMF(lf, n, k, x); math.Abs(got-want) > 1e-12 {
					t.Fatalf("BinomialPMF(%d, %d, %v) = %v, want %v", n, k, x, got, want)
				}
			}
		}
	}
	// Degenerate probabilities are exact, and out-of-range k is 0.
	if got := BinomialPMF(lf, 5, 0, 0); got != 1 {
		t.Errorf("BinomialPMF(5, 0, x=0) = %v, want 1", got)
	}
	if got := BinomialPMF(lf, 5, 3, 0); got != 0 {
		t.Errorf("BinomialPMF(5, 3, x=0) = %v, want 0", got)
	}
	if got := BinomialPMF(lf, 5, 5, 1); got != 1 {
		t.Errorf("BinomialPMF(5, 5, x=1) = %v, want 1", got)
	}
	if got := BinomialPMF(lf, 5, 2, 1); got != 0 {
		t.Errorf("BinomialPMF(5, 2, x=1) = %v, want 0", got)
	}
	if got := BinomialPMF(lf, 5, -1, 0.5); got != 0 {
		t.Errorf("BinomialPMF(5, -1, 0.5) = %v, want 0", got)
	}
	if got := BinomialPMF(lf, 5, 6, 0.5); got != 0 {
		t.Errorf("BinomialPMF(5, 6, 0.5) = %v, want 0", got)
	}
}

// TestMinExpArg pins the underflow bound BinomialRow skips Exp below:
// Exp(minExpArg) is the least subnormal, and Exp returns +0 one ulp lower,
// over the next 10⁵ ulps and at arguments spread down to −10⁶.
func TestMinExpArg(t *testing.T) {
	if got := math.Exp(minExpArg); got != 5e-324 {
		t.Fatalf("Exp(minExpArg) = %v, want 5e-324", got)
	}
	x := minExpArg
	for i := 0; i < 100000; i++ {
		x = math.Nextafter(x, math.Inf(-1))
		if got := math.Exp(x); math.Float64bits(got) != 0 {
			t.Fatalf("Exp(%v) = %v, want +0", x, got)
		}
	}
	for x := minExpArg - 1e-9; x > -1e6; x *= 1.01 {
		if got := math.Exp(x); math.Float64bits(got) != 0 {
			t.Fatalf("Exp(%v) = %v, want +0", x, got)
		}
	}
}

// TestBinomialRowMatchesPMF pins BinomialRow bit for bit against
// BinomialPMF on rows whose tails underflow.
func TestBinomialRowMatchesPMF(t *testing.T) {
	lf := LogFactorials(1200)
	for _, n := range []int{0, 1, 300, 600, 1200} {
		for _, x := range []float64{0, 0.036, 0.5, 0.97, 1} {
			row := make([]float64, n+1)
			BinomialRow(lf, n, x, row)
			zeros := 0
			for k, got := range row {
				if want := BinomialPMF(lf, n, k, x); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("BinomialRow(%d, %v)[%d] = %v, BinomialPMF %v", n, x, k, got, want)
				}
				if got == 0 {
					zeros++
				}
			}
			if n == 600 && x == 0.036 && zeros == 0 {
				t.Fatalf("BinomialRow(600, 0.036) has no underflowing term")
			}
		}
	}
}

func TestPoissonPMFTable(t *testing.T) {
	pmf, err := PoissonPMFTable(3.5, 60)
	if err != nil {
		t.Fatalf("PoissonPMFTable: %v", err)
	}
	total := 0.0
	for n := 0; n <= 60; n++ {
		got := pmf(n)
		if want := PoissonPMF(3.5, n); math.Abs(got-want) > 1e-14 {
			t.Errorf("pmf(%d) = %v, want %v", n, got, want)
		}
		total += got
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("pmf mass over [0,60] = %v, want ≈1", total)
	}
	if pmf(-1) != 0 || pmf(61) != 0 {
		t.Error("out-of-table arguments should return 0")
	}

	zero, err := PoissonPMFTable(0, 5)
	if err != nil {
		t.Fatalf("PoissonPMFTable(0): %v", err)
	}
	if zero(0) != 1 || zero(1) != 0 {
		t.Error("q=0 pmf should be a point mass at 0")
	}

	for _, q := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := PoissonPMFTable(q, 5); err == nil {
			t.Errorf("rate %v accepted", q)
		}
	}
	if _, err := PoissonPMFTable(1, -1); err == nil {
		t.Error("negative nMax accepted")
	}
}
