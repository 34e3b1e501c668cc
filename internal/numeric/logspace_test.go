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
