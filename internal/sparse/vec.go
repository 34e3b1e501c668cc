package sparse

import "math"

// Vector helpers shared by the numerical procedures. All operate on plain
// []float64 so callers can reuse buffers.

// Dot returns the inner product of x and y.
func Dot(x, y []float64) float64 {
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// AXPY computes y += alpha·x in place, four elements at a time; each
// element gets the one expression y[i] += alpha·x[i] whatever the order.
func AXPY(alpha float64, x, y []float64) {
	y = y[:len(x)]
	i := 0
	for ; i+4 <= len(x); i += 4 {
		xs := x[i : i+4 : i+4]
		ys := y[i : i+4 : i+4]
		ys[0] += alpha * xs[0]
		ys[1] += alpha * xs[1]
		ys[2] += alpha * xs[2]
		ys[3] += alpha * xs[3]
	}
	for ; i < len(x); i++ {
		y[i] += alpha * x[i]
	}
}

// Scale multiplies x by alpha in place.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Fill sets every element of x to v.
func Fill(x []float64, v float64) {
	for i := range x {
		x[i] = v
	}
}

// Sum returns the sum of the elements of x.
func Sum(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

// MaxDiff returns max_i |x[i]-y[i]|.
func MaxDiff(x, y []float64) float64 {
	var m float64
	for i, v := range x {
		if d := math.Abs(v - y[i]); d > m {
			m = d
		}
	}
	return m
}

// NormInf returns max_i |x[i]|.
func NormInf(x []float64) float64 {
	var m float64
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Clone returns a copy of x.
func Clone(x []float64) []float64 {
	c := make([]float64, len(x))
	copy(c, x)
	return c
}
