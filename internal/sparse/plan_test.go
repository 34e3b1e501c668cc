package sparse

import (
	"fmt"
	"math"
	"testing"
)

// planCSR returns a random n×n matrix (n ≥ 8) whose special rows are the
// edge cases of the fixed-row test: lone unit diagonals (fixed) at the
// start, in the middle and near the end, so every partition holds some; a
// unit diagonal plus an explicit stored 0 pointing at column n−1, which is
// not fixed because 0·Inf is NaN and planSrc puts Inf there; an empty row;
// and a lone diagonal of 0.999. Row n−1 is empty too, so the Inf in
// column n−1 reaches nothing else. Random rows draw their columns from
// [0, n−1).
func planCSR(t *testing.T, n int, seed uint64) (*CSR, []int) {
	t.Helper()
	r := lcg(seed)
	fixed := []int{0, n / 2, n/2 + 1, n - 3}
	special := map[int][]Triplet{
		1: {{1, 1, 1}, {1, n - 1, 0}},
		2: nil,
		3: {{3, 3, 0.999}},
	}
	for _, i := range fixed {
		special[i] = []Triplet{{i, i, 1}}
	}
	special[n-1] = nil
	var ts []Triplet
	for i := 0; i < n; i++ {
		if row, ok := special[i]; ok {
			ts = append(ts, row...)
			continue
		}
		for k := 0; k < 8; k++ {
			col := int(r.next() * float64(n-1))
			if col >= n-1 {
				col = n - 2
			}
			ts = append(ts, Triplet{Row: i, Col: col, Val: r.next()*2 - 1})
		}
	}
	m, err := NewFromTriplets(n, ts)
	if err != nil {
		t.Fatal(err)
	}
	return m, fixed
}

// planSrc returns the start block: random values, −0, a negative and a
// > 1 entry on fixed rows, and Inf at row n−1.
func planSrc(n, g int, fixed []int, seed uint64) *Block {
	b := randomBlock(n, g, seed)
	for j := 0; j < g; j++ {
		b.Set(fixed[0], j, math.Copysign(0, -1))
		b.Set(fixed[1], j, -0.75)
		b.Set(fixed[3], j, 3.5)
		b.Set(n-1, j, math.Inf(1))
	}
	return b
}

func cloneBlock(b *Block) *Block {
	c := NewBlock(b.n, b.g, nil)
	copy(c.data, b.data)
	return c
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestSweepPlanMatchesUnfusedKernels pins the fused plan step against the
// unfused sequence it replaces — the row kernel MulBlockRows over every
// row, then ColAXPY per column, then the colMaxDiff oracle — bit for bit,
// over three steps with a column dropped after the first, for every
// shape, worker count — an odd one among them, so the parts are not a
// power-of-two split — and with the accumulate on and off.
func TestSweepPlanMatchesUnfusedKernels(t *testing.T) {
	const n = 400
	for _, g := range []int{1, 3} {
		for _, workers := range []int{1, 2, 3, 4} {
			for _, accumulate := range []bool{false, true} {
				name := fmt.Sprintf("g=%d workers=%d accumulate=%v", g, workers, accumulate)
				t.Run(name, func(t *testing.T) {
					// Several start blocks, so the column maxima land on
					// many different rows.
					for seed := uint64(1); seed <= 8; seed++ {
						checkPlanAgainstOracle(t, n, g, workers, accumulate, seed)
					}
				})
			}
		}
	}
}

func checkPlanAgainstOracle(t *testing.T, n, g, workers int, accumulate bool, seed uint64) {
	m, fixed := planCSR(t, n, uint64(n+g))
	plan := NewSweepPlan(m, g, workers)
	if fmt.Sprint(plan.fixed) != fmt.Sprint(fixed) {
		t.Fatalf("fixed rows %v, want %v", plan.fixed, fixed)
	}
	checkPlanSteps(t, m, planSrc(n, g, fixed, 7*seed+uint64(g)), workers, accumulate)
}

// checkPlanSteps runs three steps of a plan on m from src and of the
// unfused oracle, dropping a column after the first when g > 1, and fails
// on the first element, accumulator or column maximum whose bits differ.
func checkPlanSteps(t *testing.T, m *CSR, src *Block, workers int, accumulate bool) {
	t.Helper()
	n, g := src.n, src.g
	// The plan's and the oracle's own blocks and accumulators. The
	// accumulators start from random values: the sweep's start from +0,
	// and neither holds −0, the one value the seeding's 0 + 1·v could
	// change an accumulate on.
	pCur, pNext := cloneBlock(src), NewBlock(n, g, nil)
	oCur, oNext := cloneBlock(src), NewBlock(n, g, nil)
	pAccs, oAccs := make([][]float64, g), make([][]float64, g)
	for j := range pAccs {
		pAccs[j] = randomVec(n, uint64(j+3))
		oAccs[j] = Clone(pAccs[j])
	}
	active := make([]int, g)
	for j := range active {
		active[j] = j
	}
	plan := NewSweepPlan(m, g, workers)
	plan.Seed(pCur, pNext)
	diffs := make([]float64, g)
	for step := 0; step < 3; step++ {
		weight := 0.25 + float64(step)/8
		var stepAccs [][]float64
		if accumulate {
			stepAccs = pAccs
		}
		plan.Step(pNext, pCur, weight, stepAccs, active, diffs)

		m.MulBlockRows(oNext.data, oCur.data, oCur.g, 0, n)
		for c, j := range active {
			if accumulate {
				oCur.ColAXPY(weight, c, oAccs[j])
			}
			if want := colMaxDiff(oNext, oCur, c); !sameBits(diffs[c], want) {
				t.Fatalf("step %d column %d: diff %v, oracle %v", step, c, diffs[c], want)
			}
		}
		for i := 0; i < n; i++ {
			for c := range active {
				if got, want := pNext.At(i, c), oNext.At(i, c); !sameBits(got, want) {
					t.Fatalf("step %d: next[%d,%d] = %v, oracle %v", step, i, c, got, want)
				}
			}
		}
		for j := range pAccs {
			for i := 0; i < n; i++ {
				if !sameBits(pAccs[j][i], oAccs[j][i]) {
					t.Fatalf("step %d: acc %d [%d] = %v, oracle %v", step, j, i, pAccs[j][i], oAccs[j][i])
				}
			}
		}
		if step == 0 && g > 1 {
			// A converged column leaves mid-sweep: both sides compact.
			for _, b := range []*Block{pCur, pNext, oCur, oNext} {
				b.DropCol(1)
			}
			active = append(active[:1], active[2:]...)
		}
		pCur, pNext = pNext, pCur
		oCur, oNext = oNext, oCur
	}
}

// TestSweepPlanSeedsFixedRows pins the seeding: a fixed row holds
// 0 + 1·v[i] in both blocks, so −0 becomes +0 and every other value stays.
func TestSweepPlanSeedsFixedRows(t *testing.T) {
	const n = 40
	m, fixed := planCSR(t, n, 5)
	cur := planSrc(n, 1, fixed, 9)
	next := NewBlock(n, 1, nil)
	wants := []float64{0, -0.75, cur.At(fixed[2], 0), 3.5}
	NewSweepPlan(m, 1, 1).Seed(cur, next)
	for k, want := range wants {
		i := fixed[k]
		if !sameBits(cur.At(i, 0), want) || !sameBits(next.At(i, 0), want) {
			t.Fatalf("fixed row %d: cur %v, next %v, want %v", i, cur.At(i, 0), next.At(i, 0), want)
		}
	}
}
