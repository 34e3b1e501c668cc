package sparse

import (
	"fmt"
	"testing"
)

// blockWorkers is the worker grid the ISSUE pins for the bitwise suite.
var blockWorkers = []int{0, 1, 2, 4, 8}

// randomBlock fills an n×g block with deterministic values; roughly one in
// eight entries is exactly zero.
func randomBlock(n, g int, seed uint64) *Block {
	r := lcg(seed)
	b := NewBlock(n, g, nil)
	for i := 0; i < n; i++ {
		for j := 0; j < g; j++ {
			v := r.next()*2 - 1
			if r.next() < 0.125 {
				v = 0
			}
			b.Set(i, j, v)
		}
	}
	return b
}

func TestMulBlockMatchesMulVecBitwise(t *testing.T) {
	for _, n := range []int{1, 3, 50, 400} {
		for _, g := range []int{1, 2, 3, 5} {
			m := randomCSR(t, n, 8, uint64(n*31+g))
			src := randomBlock(n, g, uint64(n+g))
			dst := NewBlock(n, g, nil)
			m.MulBlockRows(dst.data, src.data, g, 0, n)
			x := make([]float64, n)
			want := make([]float64, n)
			for j := 0; j < g; j++ {
				src.Col(x, j)
				mulVec(m, want, x)
				for i := 0; i < n; i++ {
					if dst.At(i, j) != want[i] {
						t.Fatalf("n=%d g=%d: dst[%d,%d] = %g, mulVec %g (must be bitwise equal)",
							n, g, i, j, dst.At(i, j), want[i])
					}
				}
			}
		}
	}
}

// TestSweepPlanStepMatchesMulVecBitwise pins the product of a sweep-plan
// step, partitioned or not, against the vector oracle column by column.
func TestSweepPlanStepMatchesMulVecBitwise(t *testing.T) {
	for _, n := range []int{1, 50, 400} {
		for _, g := range []int{1, 3, 6} {
			m := randomCSR(t, n, 8, uint64(n*17+g))
			src := randomBlock(n, g, uint64(n*7+g))
			x := make([]float64, n)
			want := make([]float64, n)
			for _, workers := range blockWorkers {
				dst := NewBlock(n, g, nil)
				planMul(m, dst, src, workers)
				for j := 0; j < g; j++ {
					src.Col(x, j)
					mulVec(m, want, x)
					for i := 0; i < n; i++ {
						if dst.At(i, j) != want[i] {
							t.Fatalf("n=%d g=%d workers=%d: dst[%d,%d] = %g, mulVec %g (must be bitwise equal)",
								n, g, workers, i, j, dst.At(i, j), want[i])
						}
					}
				}
			}
		}
	}
}

// TestBlockColumnOps runs the column helpers at g = 3 and at g = 1, where
// ColAXPY takes its whole-slab specialisation.
func TestBlockColumnOps(t *testing.T) {
	const n = 7
	for _, g := range []int{1, 3} {
		jc := g / 2
		b := NewBlock(n, g, nil)
		col := randomVec(n, 21)
		b.SetCol(jc, col)
		got := make([]float64, n)
		b.Col(got, jc)
		for i := range col {
			if got[i] != col[i] {
				t.Fatalf("g=%d: Col round-trip mismatch at %d: %g != %g", g, i, got[i], col[i])
			}
		}
		// ColAXPY must equal AXPY on the extracted column, bitwise.
		dst1 := randomVec(n, 5)
		dst2 := make([]float64, n)
		copy(dst2, dst1)
		b.ColAXPY(0.75, jc, dst1)
		AXPY(0.75, col, dst2)
		for i := range dst1 {
			if dst1[i] != dst2[i] {
				t.Fatalf("g=%d: ColAXPY != AXPY at %d: %g != %g", g, i, dst1[i], dst2[i])
			}
		}
		// AXPYIntoCol mirrors it into the block.
		src := randomVec(n, 9)
		want := make([]float64, n)
		copy(want, col)
		AXPY(-0.5, src, want)
		b.AXPYIntoCol(-0.5, jc, src)
		b.Col(got, jc)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("g=%d: AXPYIntoCol mismatch at %d: %g != %g", g, i, got[i], want[i])
			}
		}
	}
}

func TestBlockDropCol(t *testing.T) {
	const n, g = 6, 4
	b := randomBlock(n, g, 31)
	cols := make([][]float64, g)
	for j := 0; j < g; j++ {
		cols[j] = make([]float64, n)
		b.Col(cols[j], j)
	}
	b.DropCol(1)
	if b.Cols() != g-1 {
		t.Fatalf("Cols() = %d after DropCol, want %d", b.Cols(), g-1)
	}
	keep := [][]float64{cols[0], cols[2], cols[3]}
	got := make([]float64, n)
	for j, want := range keep {
		b.Col(got, j)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("after DropCol, col %d row %d = %g, want %g", j, i, got[i], want[i])
			}
		}
	}
	// Dropping down to a single column must keep it intact.
	b.DropCol(0)
	b.DropCol(1)
	b.Col(got, 0)
	for i := range got {
		if got[i] != cols[2][i] {
			t.Fatalf("after drops, remaining col row %d = %g, want %g", i, got[i], cols[2][i])
		}
	}
}

func TestBlockPoolRoundTrip(t *testing.T) {
	pool := NewVecPool()
	const n, g = 10, 4
	b := NewBlock(n, g, pool)
	b.DropCol(2) // narrow the view; Release must still return the full slab
	b.Release(pool)
	if got := pool.Len(n * g); got != 1 {
		t.Fatalf("pool holds %d buffers of the original slab length %d, want 1", got, n*g)
	}
	if got := pool.Len(n * (g - 1)); got != 0 {
		t.Fatalf("pool holds %d buffers of the narrowed length, want 0", got)
	}
	// The recycled slab must come back zeroed at full size.
	b2 := NewBlock(n, g, pool)
	for i := 0; i < n; i++ {
		for j := 0; j < g; j++ {
			if b2.At(i, j) != 0 {
				t.Fatalf("recycled block not zeroed at (%d,%d)", i, j)
			}
		}
	}
	stats := pool.Stats()
	if stats.Reuses != 1 {
		t.Fatalf("pool reuses = %d, want 1", stats.Reuses)
	}
}

// BenchmarkMulBlock runs the row kernel on a 2000-state random matrix at
// g = 1 (the vector product) and g = 4 (four vectors in one matrix pass);
// the g = 4 time against four g = 1 times is the block layout's traffic
// win.
func BenchmarkMulBlock(b *testing.B) {
	m := benchCSR(b, 2000, 20)
	for _, g := range []int{1, 4} {
		b.Run(fmt.Sprintf("g=%d", g), func(b *testing.B) {
			src := randomBlock(2000, g, 1)
			dst := NewBlock(2000, g, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.MulBlockRows(dst.data, src.data, g, 0, m.n)
			}
		})
	}
}
