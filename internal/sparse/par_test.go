package sparse

import "testing"

// lcg is a tiny deterministic generator so tests need no seeding policy.
type lcg uint64

func (r *lcg) next() float64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return float64(*r>>11) / float64(1<<53)
}

func randomCSR(t *testing.T, n int, perRow int, seed uint64) *CSR {
	t.Helper()
	r := lcg(seed)
	var ts []Triplet
	for i := 0; i < n; i++ {
		// Skewed rows: row 0 is dense to stress nnz-balanced cuts.
		k := perRow
		if i == 0 {
			k = n / 2
		}
		for j := 0; j < k; j++ {
			col := int(r.next() * float64(n))
			if col >= n {
				col = n - 1
			}
			ts = append(ts, Triplet{Row: i, Col: col, Val: r.next()*2 - 1})
		}
	}
	m, err := NewFromTriplets(n, ts)
	if err != nil {
		t.Fatalf("NewFromTriplets: %v", err)
	}
	return m
}

func randomVec(n int, seed uint64) []float64 {
	r := lcg(seed)
	v := make([]float64, n)
	for i := range v {
		v[i] = r.next()*2 - 1
	}
	return v
}

// TestMulVecParMatchesSequentialBitwise pins the vector product — a
// sweep-plan step at g = 1 — against the sequential oracle at every
// workers value: the row partition must not move a bit.
func TestMulVecParMatchesSequentialBitwise(t *testing.T) {
	for _, n := range []int{1, 3, 50, 400} {
		m := randomCSR(t, n, 8, uint64(n)+1)
		x := randomVec(n, 99)
		want := make([]float64, n)
		mulVec(m, want, x)
		for _, workers := range []int{0, 1, 2, 3, 7, 16, 100} {
			got := make([]float64, n)
			planMul(m, vecBlock(got), vecBlock(x), workers)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d workers=%d: dst[%d] = %g, sequential %g (must be bitwise equal)",
						n, workers, i, got[i], want[i])
				}
			}
		}
	}
}

func TestRowCutsPartition(t *testing.T) {
	m := randomCSR(t, 200, 10, 5)
	for _, w := range []int{1, 2, 3, 7, 50, 200, 1000} {
		cuts := m.rowCuts(w)
		if cuts[0] != 0 || cuts[len(cuts)-1] != m.Dim() {
			t.Fatalf("w=%d: cuts %v do not span [0,%d]", w, cuts, m.Dim())
		}
		for c := 1; c < len(cuts); c++ {
			if cuts[c] <= cuts[c-1] {
				t.Fatalf("w=%d: cuts %v not strictly increasing", w, cuts)
			}
		}
	}
}

func TestParKernelsSmallMatrixFallback(t *testing.T) {
	// Below the grain a plan step must still be correct (one worker runs
	// the whole range).
	m := randomCSR(t, 5, 2, 11)
	x := randomVec(5, 3)
	want := make([]float64, 5)
	got := make([]float64, 5)
	mulVec(m, want, x)
	planMul(m, vecBlock(got), vecBlock(x), 8)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("small plan step mismatch at %d", i)
		}
	}
}

func benchCSR(b *testing.B, n, perRow int) *CSR {
	b.Helper()
	r := lcg(uint64(n))
	var ts []Triplet
	for i := 0; i < n; i++ {
		for j := 0; j < perRow; j++ {
			col := int(r.next() * float64(n))
			if col >= n {
				col = n - 1
			}
			ts = append(ts, Triplet{Row: i, Col: col, Val: r.next()})
		}
	}
	m, err := NewFromTriplets(n, ts)
	if err != nil {
		b.Fatalf("NewFromTriplets: %v", err)
	}
	return m
}
