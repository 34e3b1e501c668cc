package sparse

import (
	"fmt"
	"testing"
)

// randomBlock returns an n×g row-major slab of deterministic values;
// roughly one in eight entries is exactly zero. At g = 1 it is a vector.
func randomBlock(n, g int, seed uint64) []float64 {
	r := lcg(seed)
	b := make([]float64, n*g)
	for k := range b {
		v := r.next()*2 - 1
		if r.next() < 0.125 {
			v = 0
		}
		b[k] = v
	}
	return b
}

func TestMulBlockMatchesMulVecBitwise(t *testing.T) {
	for _, n := range []int{1, 3, 50, 400} {
		for _, g := range []int{1, 2, 3, 5} {
			m := randomCSR(t, n, 8, uint64(n*31+g))
			src := randomBlock(n, g, uint64(n+g))
			dst := make([]float64, n*g)
			m.MulBlockRows(dst, src, g, 0, n)
			x := make([]float64, n)
			want := make([]float64, n)
			for j := 0; j < g; j++ {
				for i := range x {
					x[i] = src[i*g+j]
				}
				mulVec(m, want, x)
				for i := 0; i < n; i++ {
					if dst[i*g+j] != want[i] {
						t.Fatalf("n=%d g=%d: dst[%d,%d] = %g, mulVec %g (must be bitwise equal)",
							n, g, i, j, dst[i*g+j], want[i])
					}
				}
			}
		}
	}
}

// BenchmarkMulBlock runs the row kernel on a 2000-state random matrix at
// g = 1 (the vector product) and g = 4 (four vectors in one matrix pass,
// the shape of Sericola's level recursion).
func BenchmarkMulBlock(b *testing.B) {
	m := benchCSR(b, 2000, 20)
	for _, g := range []int{1, 4} {
		b.Run(fmt.Sprintf("g=%d", g), func(b *testing.B) {
			src := randomBlock(2000, g, 1)
			dst := make([]float64, 2000*g)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.MulBlockRows(dst, src, g, 0, m.n)
			}
		})
	}
}
