package sparse

import (
	"fmt"
	"math"
	"testing"
)

// erlangCSR returns the shape of an Erlang-k expansion's uniformised
// matrix: states·k phase rows and a fixed barrier row last. Phase row
// s·k+i stores a diagonal, two transitions to the neighbouring states'
// phase i and a phase advance to s·k+i+1, or to the barrier from the last
// phase, with values that depend on s alone; so phases 0 … k−2 of each
// state form one shift-invariant run. With broken set, every other phase
// row's diagonal moves by one ulp: no two rows form a run, and the
// arithmetic per step is unchanged.
func erlangCSR(tb testing.TB, states, k int, broken bool) *CSR {
	tb.Helper()
	n := states*k + 1
	r := lcg(uint64(states*k) + 11)
	var ts []Triplet
	for s := 0; s < states; s++ {
		up, down, diag, adv := r.next()/4, r.next()/4, r.next()/4, r.next()/4
		for i := 0; i < k; i++ {
			row := s*k + i
			d := diag
			if broken && i%2 == 1 {
				d = math.Nextafter(d, 1)
			}
			ts = append(ts,
				Triplet{row, (s+1)%states*k + i, up},
				Triplet{row, (s+states-1)%states*k + i, down},
				Triplet{row, row, d})
			if i < k-1 {
				ts = append(ts, Triplet{row, row + 1, adv})
			} else {
				ts = append(ts, Triplet{row, n - 1, adv})
			}
		}
	}
	ts = append(ts, Triplet{n - 1, n - 1, 1})
	m, err := NewFromTriplets(n, ts)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// runsOf returns the bounds of p's shift-invariant runs.
func runsOf(p *SweepPlan) [][2]int {
	var out [][2]int
	for _, sp := range p.spans {
		if !sp.fixed {
			out = append(out, [2]int{sp.lo, sp.hi})
		}
	}
	return out
}

// TestSweepPlanFindsErlangRuns pins the detection on the Erlang shape:
// one run of k−1 rows per state, the last phase and the barrier outside,
// except that the last state's last phase advances to the barrier, the
// next row, and so joins its run.
func TestSweepPlanFindsErlangRuns(t *testing.T) {
	const states, k = 5, 8
	p := NewSweepPlan(erlangCSR(t, states, k, false), 1)
	var want [][2]int
	for s := 0; s < states; s++ {
		want = append(want, [2]int{s * k, s*k + k - 1})
	}
	want[states-1][1]++
	if fmt.Sprint(runsOf(p)) != fmt.Sprint(want) {
		t.Fatalf("runs %v, want %v", runsOf(p), want)
	}
	if want := (states*(k-1) + 1) * 4; p.runNNZ != want {
		t.Fatalf("runNNZ %d, want %d", p.runNNZ, want)
	}
	if fmt.Sprint(p.fixed) != fmt.Sprint([]int{states * k}) {
		t.Fatalf("fixed rows %v, want the barrier", p.fixed)
	}
	if p := NewSweepPlan(erlangCSR(t, states, k, true), 1); len(runsOf(p)) != 0 {
		t.Fatalf("ulp-broken matrix has runs %v", runsOf(p))
	}
}

// shiftCSR returns an n-row matrix in which every row is row 0 shifted by
// its index (three entries at columns i, i+1 and i+3, clipped at n), and
// then applies edit to the triplets before assembly.
func shiftCSR(t *testing.T, n int, edit func(ts []Triplet) []Triplet) *CSR {
	t.Helper()
	var ts []Triplet
	for i := 0; i < n; i++ {
		for _, e := range []struct {
			off int
			v   float64
		}{{0, 0.5}, {1, -0.25}, {3, 0.125}} {
			if i+e.off < n {
				ts = append(ts, Triplet{i, i + e.off, e.v})
			}
		}
	}
	m, err := NewFromTriplets(n, edit(ts))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// setVal replaces the value of entry (i, j) in ts.
func setVal(ts []Triplet, i, j int, v float64) []Triplet {
	for k := range ts {
		if ts[k].Row == i && ts[k].Col == j {
			ts[k].Val = v
		}
	}
	return ts
}

// TestSweepPlanRunBreaks pins what ends a run: a one-ulp value change, +0
// against −0, an interleaved fixed row, an explicit zero entry, a row of
// another length. Rows n−3 and n−2 lose their +3 entry past column n−1,
// so they form a run of their own, and row n−1 keeps one entry.
func TestSweepPlanRunBreaks(t *testing.T) {
	const n = 24
	cases := []struct {
		name string
		edit func(ts []Triplet) []Triplet
		want [][2]int
	}{
		{"unbroken", func(ts []Triplet) []Triplet { return ts }, [][2]int{{0, 21}, {21, 23}}},
		{"one ulp", func(ts []Triplet) []Triplet {
			return setVal(ts, 9, 10, math.Nextafter(-0.25, 0))
		}, [][2]int{{0, 9}, {10, 21}, {21, 23}}},
		{"signed zero", func(ts []Triplet) []Triplet {
			// Rows 5 and 6 hold +0 at their +3 entry, row 7 holds −0.
			for _, i := range []int{5, 6} {
				ts = setVal(ts, i, i+3, 0)
			}
			return setVal(ts, 7, 10, math.Copysign(0, -1))
		}, [][2]int{{0, 5}, {5, 7}, {8, 21}, {21, 23}}},
		{"fixed row", func(ts []Triplet) []Triplet {
			var out []Triplet
			for _, tr := range ts {
				if tr.Row != 12 {
					out = append(out, tr)
				}
			}
			return append(out, Triplet{12, 12, 1})
		}, [][2]int{{0, 12}, {13, 21}, {21, 23}}},
		{"explicit zero", func(ts []Triplet) []Triplet {
			return append(ts, Triplet{4, 0, 0})
		}, [][2]int{{0, 4}, {5, 21}, {21, 23}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := shiftCSR(t, n, tc.edit)
			p := NewSweepPlan(m, 1)
			if fmt.Sprint(runsOf(p)) != fmt.Sprint(tc.want) {
				t.Fatalf("runs %v, want %v", runsOf(p), tc.want)
			}
			for _, workers := range []int{1, 2, 4} {
				checkPlanSteps(t, m, runSrc(n), workers, true)
			}
		})
	}
}

// TestSweepPlanRunsMatchRowKernel pins the run kernel against the per-row
// kernel (MulBlockRows computes every row one by one) bit for bit on the
// Erlang shape at Workers 1, 2 and 4, through checkPlanSteps. The matrix
// is large enough to fan out, so the part cuts split runs.
func TestSweepPlanRunsMatchRowKernel(t *testing.T) {
	m := erlangCSR(t, 7, 1500, false)
	for _, workers := range []int{1, 2, 4} {
		p := NewSweepPlan(m, workers)
		if workers > 1 {
			if p.tasks == nil {
				t.Fatalf("workers=%d: the plan does not fan out", workers)
			}
			cuts := m.rowCuts(p.fanout(workers))
			split := false
			for _, cut := range cuts {
				for _, r := range runsOf(p) {
					split = split || (r[0] < cut && cut < r[1])
				}
			}
			if !split {
				t.Fatalf("workers=%d: no cut in %v splits a run", workers, cuts)
			}
		}
		checkPlanSteps(t, m, runSrc(m.Dim()), workers, true)
	}
}

// runSrc returns a random start vector of length n with −0 in row n/3.
func runSrc(n int) []float64 {
	src := randomBlock(n, 1, uint64(n))
	src[n/3] = math.Copysign(0, -1)
	return src
}

// BenchmarkSweepPlanRuns times one accumulating backward step on the
// Erlang shape at a few sizes, with its runs and with every run broken by
// an ulp (the same arithmetic through the per-row kernel), at Workers 1
// and 2: the per-entry cost of the two kernels and where each fans out.
func BenchmarkSweepPlanRuns(b *testing.B) {
	for _, k := range []int{64, 256, 1024, 4096} {
		for _, broken := range []bool{false, true} {
			m := erlangCSR(b, 5, k, broken)
			for _, workers := range []int{1, 2} {
				name := fmt.Sprintf("nnz=%d/broken=%v/workers=%d", m.NNZ(), broken, workers)
				b.Run(name, func(b *testing.B) {
					n := m.Dim()
					cur, next := randomBlock(n, 1, 3), make([]float64, n)
					acc := make([]float64, n)
					p := NewSweepPlan(m, workers)
					p.Seed(next, cur)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						p.Step(next, cur, 0.5, acc)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(m.NNZ()), "ns/entry")
				})
			}
		}
	}
}
