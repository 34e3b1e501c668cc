package sparse

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func mustCSR(t *testing.T, n int, ts []Triplet) *CSR {
	t.Helper()
	m, err := NewFromTriplets(n, ts)
	if err != nil {
		t.Fatalf("NewFromTriplets: %v", err)
	}
	return m
}

func TestNewFromTriplets(t *testing.T) {
	m := mustCSR(t, 3, []Triplet{
		{Row: 0, Col: 1, Val: 2},
		{Row: 2, Col: 0, Val: 5},
		{Row: 0, Col: 1, Val: 3}, // duplicate: summed
		{Row: 1, Col: 1, Val: -1},
	})
	if got := m.At(0, 1); got != 5 {
		t.Errorf("At(0,1) = %v, want 5 (duplicate merge)", got)
	}
	if got := m.At(1, 1); got != -1 {
		t.Errorf("At(1,1) = %v, want -1", got)
	}
	if got := m.At(0, 0); got != 0 {
		t.Errorf("At(0,0) = %v, want 0", got)
	}
	if got := m.NNZ(); got != 3 {
		t.Errorf("NNZ = %d, want 3", got)
	}
}

// TestNewFromTripletsSortedMatchesShuffled pins the sort skip: triplets
// with distinct (row, col) given strictly increasing, which skip the sort,
// and the same triplets shuffled give identical arrays bit for bit; so do
// sorted triplets holding a duplicate, which take the sort.
func TestNewFromTripletsSortedMatchesShuffled(t *testing.T) {
	const n = 60
	r := rand.New(rand.NewSource(3))
	var sorted []Triplet
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if r.Intn(5) == 0 {
				sorted = append(sorted, Triplet{Row: i, Col: j, Val: r.NormFloat64()})
			}
		}
	}
	sorted[7].Val = math.Copysign(0, -1)
	withDup := append([]Triplet{sorted[0]}, sorted...)
	for _, ts := range [][]Triplet{sorted, withDup} {
		want := mustCSR(t, n, ts)
		for round := 0; round < 5; round++ {
			shuffled := append([]Triplet(nil), ts...)
			r.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
			got := mustCSR(t, n, shuffled)
			if !reflect.DeepEqual(got.rowPtr, want.rowPtr) || !reflect.DeepEqual(got.col, want.col) {
				t.Fatalf("round %d: shuffled input gives another pattern", round)
			}
			for k := range want.val {
				if math.Float64bits(got.val[k]) != math.Float64bits(want.val[k]) {
					t.Fatalf("round %d: val[%d] = %v, sorted input %v", round, k, got.val[k], want.val[k])
				}
			}
		}
	}
}

func TestNewFromTripletsRejectsOutOfRange(t *testing.T) {
	if _, err := NewFromTriplets(2, []Triplet{{Row: 2, Col: 0, Val: 1}}); err == nil {
		t.Error("row out of range not rejected")
	}
	if _, err := NewFromTriplets(2, []Triplet{{Row: 0, Col: -1, Val: 1}}); err == nil {
		t.Error("negative column not rejected")
	}
	if _, err := NewFromTriplets(-1, nil); err == nil {
		t.Error("negative dimension not rejected")
	}
}

func TestMulVec(t *testing.T) {
	m := mustCSR(t, 3, []Triplet{
		{Row: 0, Col: 0, Val: 1}, {Row: 0, Col: 2, Val: 2},
		{Row: 1, Col: 1, Val: 3},
		{Row: 2, Col: 0, Val: 4},
	})
	x := []float64{1, 2, 3}
	dst := make([]float64, 3)
	m.MulBlockRows(dst, x, 1, 0, 3)
	want := []float64{7, 6, 4}
	if !reflect.DeepEqual(dst, want) {
		t.Errorf("M·x = %v, want %v", dst, want)
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		var ts []Triplet
		for k := 0; k < rng.Intn(20); k++ {
			ts = append(ts, Triplet{Row: rng.Intn(n), Col: rng.Intn(n), Val: rng.NormFloat64()})
		}
		m, err := NewFromTriplets(n, ts)
		if err != nil {
			return false
		}
		tt := m.Transpose().Transpose()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if m.At(i, j) != tt.At(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulVecTMatchesTransposeMulVec(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		var ts []Triplet
		for k := 0; k < 3*n; k++ {
			ts = append(ts, Triplet{Row: rng.Intn(n), Col: rng.Intn(n), Val: rng.NormFloat64()})
		}
		m, err := NewFromTriplets(n, ts)
		if err != nil {
			return false
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		a := make([]float64, n)
		b := make([]float64, n)
		mulVecT(m, a, x)
		m.Transpose().MulBlockRows(b, x, 1, 0, n)
		return maxDiff(a, b) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRowIterationAndSums(t *testing.T) {
	m := mustCSR(t, 3, []Triplet{
		{Row: 1, Col: 0, Val: 1}, {Row: 1, Col: 2, Val: 2.5},
	})
	if got := m.RowSum(1); got != 3.5 {
		t.Errorf("RowSum(1) = %v, want 3.5", got)
	}
	if got := m.RowSum(0); got != 0 {
		t.Errorf("RowSum(0) = %v, want 0", got)
	}
	var cols []int
	m.Row(1, func(j int, v float64) { cols = append(cols, j) })
	if !reflect.DeepEqual(cols, []int{0, 2}) {
		t.Errorf("Row(1) columns = %v, want [0 2]", cols)
	}
}

func TestBuilder(t *testing.T) {
	b := NewBuilder(2)
	b.Add(0, 1, 1)
	b.Add(0, 1, 2)
	if b.Len() != 2 {
		t.Errorf("Len = %d, want 2", b.Len())
	}
	m, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if m.At(0, 1) != 3 {
		t.Errorf("built At(0,1) = %v, want 3", m.At(0, 1))
	}
	bad := NewBuilder(2)
	bad.Add(5, 0, 1)
	if _, err := bad.Build(); err == nil {
		t.Error("out-of-range add not surfaced at Build")
	}
}

func TestVectorHelpers(t *testing.T) {
	x := []float64{1, -2, 3}
	y := []float64{4, 5, -6}
	z := Clone(y)
	AXPY(2, x, z)
	if !reflect.DeepEqual(z, []float64{6, 1, 0}) {
		t.Errorf("AXPY = %v", z)
	}
	Scale(0.5, z)
	if !reflect.DeepEqual(z, []float64{3, 0.5, 0}) {
		t.Errorf("Scale = %v", z)
	}
	Fill(z, 7)
	if !reflect.DeepEqual(z, []float64{7, 7, 7}) {
		t.Errorf("Fill = %v", z)
	}
	if got := Sum(x); got != 2 {
		t.Errorf("Sum = %v", got)
	}
}
