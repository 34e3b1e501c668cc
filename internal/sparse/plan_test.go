package sparse

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"
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

// planSrc returns the start vector: random values, −0, a negative and a
// > 1 entry on fixed rows, and Inf at row n−1.
func planSrc(n int, fixed []int, seed uint64) []float64 {
	v := randomBlock(n, 1, seed)
	v[fixed[0]] = math.Copysign(0, -1)
	v[fixed[1]] = -0.75
	v[fixed[3]] = 3.5
	v[n-1] = math.Inf(1)
	return v
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestSweepPlanMatchesUnfusedKernels pins the fused plan step against the
// unfused sequence it replaces — the row kernel MulBlockRows over every
// row, then AXPY, then the maxDiff oracle — bit for bit, over three steps,
// at every worker count — an odd one among them, so the parts are not a
// power-of-two split — and with the accumulate on and off. The subtest
// names carry the vector's width, g=1.
func TestSweepPlanMatchesUnfusedKernels(t *testing.T) {
	const n = 400
	for _, workers := range []int{1, 2, 3, 4} {
		for _, accumulate := range []bool{false, true} {
			name := fmt.Sprintf("g=1 workers=%d accumulate=%v", workers, accumulate)
			t.Run(name, func(t *testing.T) {
				// Several start vectors, so the maxima land on many
				// different rows.
				for seed := uint64(1); seed <= 8; seed++ {
					checkPlanAgainstOracle(t, n, workers, accumulate, seed)
				}
			})
		}
	}
}

func checkPlanAgainstOracle(t *testing.T, n, workers int, accumulate bool, seed uint64) {
	m, fixed := planCSR(t, n, uint64(n+1))
	plan := NewSweepPlan(m, workers)
	if fmt.Sprint(plan.fixed) != fmt.Sprint(fixed) {
		t.Fatalf("fixed rows %v, want %v", plan.fixed, fixed)
	}
	checkPlanSteps(t, m, planSrc(n, fixed, 7*seed+1), workers, accumulate)
}

// checkPlanSteps runs three steps of a plan on m from src and of the
// unfused oracle, and fails on the first element, accumulator or maximum
// whose bits differ.
func checkPlanSteps(t *testing.T, m *CSR, src []float64, workers int, accumulate bool) {
	t.Helper()
	n := len(src)
	// The plan's and the oracle's own vectors and accumulators. The
	// accumulators start from random values: the sweep's start from +0,
	// and neither holds −0, the one value the seeding's 0 + 1·v could
	// change an accumulate on.
	pCur, pNext := Clone(src), make([]float64, n)
	oCur, oNext := Clone(src), make([]float64, n)
	pAcc := randomVec(n, 3)
	oAcc := Clone(pAcc)
	plan := NewSweepPlan(m, workers)
	plan.Seed(pNext, pCur)
	// Inside Sweep, so that a plan that fans out runs its parts on its
	// team.
	plan.Sweep(func() {
		for step := 0; step < 3; step++ {
			weight := 0.25 + float64(step)/8
			var stepAcc []float64
			if accumulate {
				stepAcc = pAcc
			}
			diff := plan.Step(pNext, pCur, weight, stepAcc)

			m.MulBlockRows(oNext, oCur, 1, 0, n)
			if accumulate {
				AXPY(weight, oCur, oAcc)
			}
			if want := maxDiff(oNext, oCur); !sameBits(diff, want) {
				t.Fatalf("step %d: diff %v, oracle %v", step, diff, want)
			}
			for i := 0; i < n; i++ {
				if !sameBits(pNext[i], oNext[i]) {
					t.Fatalf("step %d: next[%d] = %v, oracle %v", step, i, pNext[i], oNext[i])
				}
				if !sameBits(pAcc[i], oAcc[i]) {
					t.Fatalf("step %d: acc[%d] = %v, oracle %v", step, i, pAcc[i], oAcc[i])
				}
			}
			pCur, pNext = pNext, pCur
			oCur, oNext = oNext, oCur
		}
	})
}

// TestSweepPlanSeedsFixedRows pins the seeding: a fixed row holds
// 0 + 1·v[i] in both vectors, so −0 becomes +0 and every other value
// stays.
func TestSweepPlanSeedsFixedRows(t *testing.T) {
	const n = 40
	m, fixed := planCSR(t, n, 5)
	cur := planSrc(n, fixed, 9)
	next := make([]float64, n)
	wants := []float64{0, -0.75, cur[fixed[2]], 3.5}
	NewSweepPlan(m, 1).Seed(next, cur)
	for k, want := range wants {
		i := fixed[k]
		if !sameBits(cur[i], want) || !sameBits(next[i], want) {
			t.Fatalf("fixed row %d: cur %v, next %v, want %v", i, cur[i], next[i], want)
		}
	}
}

// TestSweepPlanStepMatchesMulVecBitwise pins the product of a sweep-plan
// step, partitioned or not, against the vector oracle.
func TestSweepPlanStepMatchesMulVecBitwise(t *testing.T) {
	for _, n := range []int{1, 50, 400} {
		for seed := uint64(1); seed <= 3; seed++ {
			m := randomCSR(t, n, 8, uint64(n*17)+seed)
			src := randomBlock(n, 1, uint64(n*7)+seed)
			want := make([]float64, n)
			mulVec(m, want, src)
			for _, workers := range []int{0, 1, 2, 4, 8} {
				dst := make([]float64, n)
				planMul(m, dst, src, workers)
				for i := 0; i < n; i++ {
					if dst[i] != want[i] {
						t.Fatalf("n=%d seed=%d workers=%d: dst[%d] = %g, mulVec %g (must be bitwise equal)",
							n, seed, workers, i, dst[i], want[i])
					}
				}
			}
		}
	}
}

// TestSweepTeamExits pins the lifetime of a plan's team: once Sweep
// returns, runtime.NumGoroutine() is back to its baseline, whether the
// step loop ran to its end, broke off early (as at a steady-state
// detection) or returned an error.
func TestSweepTeamExits(t *testing.T) {
	const n = 400
	m := randomCSR(t, n, 8, 11)
	p := NewSweepPlan(m, 4)
	if len(p.parts) < 2 {
		t.Fatal("the plan does not fan out")
	}
	errStop := errors.New("stop")
	ends := map[string]func(step int) (bool, error){
		"normal end":  func(int) (bool, error) { return false, nil },
		"early break": func(step int) (bool, error) { return step == 3, nil },
		"error return": func(step int) (bool, error) {
			if step == 3 {
				return false, errStop
			}
			return false, nil
		},
	}
	for name, end := range ends {
		base := runtime.NumGoroutine()
		cur, next := randomVec(n, 5), make([]float64, n)
		p.Seed(next, cur)
		var err error
		steps := 0
		p.Sweep(func() {
			for step := 0; step < 20; step++ {
				p.Step(next, cur, 0.5, nil)
				steps++
				var stop bool
				if stop, err = end(step); stop || err != nil {
					return
				}
				cur, next = next, cur
			}
		})
		if wantErr := name == "error return"; (err != nil) != wantErr || (steps == 20) != (name == "normal end") {
			t.Fatalf("%s: %d steps, error %v", name, steps, err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines after Sweep, %d before", name, runtime.NumGoroutine(), base)
			}
			runtime.Gosched()
		}
	}
}

// TestSweepPlanStepOutsideSweepPanics pins that a Step has a team to run
// on: called outside Sweep it panics instead of running without one.
func TestSweepPlanStepOutsideSweepPanics(t *testing.T) {
	const n = 50
	p := NewSweepPlan(randomCSR(t, n, 4, 3), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Step outside Sweep did not panic")
		}
	}()
	p.Step(make([]float64, n), randomVec(n, 1), 0.5, nil)
}
