package numeric

import (
	"math"
	"math/big"
	"testing"
)

// exactPrec is the big.Float precision of the reference rows. Every
// reference operation rounds at 2⁻²⁰⁴⁸ relative, far below the float64
// errors the test measures.
const exactPrec = 2048

// exactBinomialRow returns C(n,k)·x^k·(1−x)^(n−k) for 0 ≤ k ≤ n at
// exactPrec bits: C(n,k) is an exact big.Int and 1 − x is exact for a
// float64 x in [0,1].
func exactBinomialRow(n int, x float64) []*big.Float {
	newF := func() *big.Float { return new(big.Float).SetPrec(exactPrec) }
	bx := newF().SetFloat64(x)
	by := newF().Sub(newF().SetInt64(1), bx)
	xs := make([]*big.Float, n+1) // x^k
	ys := make([]*big.Float, n+1) // (1−x)^k
	xs[0], ys[0] = newF().SetInt64(1), newF().SetInt64(1)
	for k := 1; k <= n; k++ {
		xs[k] = newF().Mul(xs[k-1], bx)
		ys[k] = newF().Mul(ys[k-1], by)
	}
	row := make([]*big.Float, n+1)
	c := big.NewInt(1) // C(n,k)
	for k := 0; k <= n; k++ {
		row[k] = newF().SetInt(c)
		row[k].Mul(row[k], xs[k]).Mul(row[k], ys[n-k])
		c.Mul(c, big.NewInt(int64(n-k))).Quo(c, big.NewInt(int64(k+1)))
	}
	return row
}

// TestBinomialStepExact checks rows advanced by BinomialStep from [1]
// against the exact binomial masses: at every checked level n the summed
// absolute error is at most n·2⁻⁵², and at x = 0 and x = 1 the rows are
// exact. x = 0.036 is the worst case, where 1 − x rounds.
func TestBinomialStepExact(t *testing.T) {
	levels := []int{0, 1, 100, 600, 1200}
	nMax := levels[len(levels)-1]
	for _, x := range []float64{0, 0.036, 0.3125, 0.5, 0.9375, 1} {
		row := make([]float64, nMax+1)
		row[0] = 1
		n := 0
		for _, level := range levels {
			for ; n < level; n++ {
				BinomialStep(row[:n+2], x)
			}
			exact := exactBinomialRow(n, x)
			var errSum float64
			for k, want := range exact {
				got := row[k]
				if x == 0 || x == 1 {
					if w, _ := want.Float64(); math.Float64bits(got) != math.Float64bits(w) {
						t.Fatalf("x=%v n=%d: b[%d] = %v, want exactly %v", x, n, k, got, w)
					}
				}
				d := new(big.Float).SetPrec(exactPrec).SetFloat64(got)
				e, _ := d.Sub(d, want).Abs(d).Float64()
				errSum += e
			}
			if bound := float64(n) * 0x1p-52; errSum > bound {
				t.Errorf("x=%v n=%d: Σₖ|bₖ − exact| = %.3g, bound n·2⁻⁵² = %.3g", x, n, errSum, bound)
			}
		}
	}
}
