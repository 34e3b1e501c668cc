package sericola

import (
	"runtime"
	"testing"

	"github.com/performability/csrl/internal/mrm"
	"github.com/performability/csrl/internal/parallel"
)

// gridModel builds an n-state ring with three distinct rewards and every
// fourth state in the goal set, so the recursion carries ⌈n/4⌉ columns.
func gridModel(t *testing.T, n int) *mrm.MRM {
	t.Helper()
	b := mrm.NewBuilder(n)
	for s := 0; s < n; s++ {
		b.Rate(s, (s+1)%n, 2.0+0.01*float64(s%7))
		b.Rate(s, (s+n-1)%n, 0.5)
		b.Reward(s, float64(s%3)) // rewards {0, 1, 2}
		if s%4 == 0 {
			b.Label(s, "goal")
		}
	}
	b.InitialState(0)
	m, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return m
}

// fansOut runs fn and reports whether it dispatched parallel chunks.
func fansOut(fn func()) bool {
	before := parallel.ChunkCount()
	fn()
	return parallel.ChunkCount() > before
}

func TestReachProbAllParallelEquivalence(t *testing.T) {
	// 100 states carry 25 goal columns: n·g = 2500 ≥ runGrain, so the
	// per-level row sweeps fan out.
	m := gridModel(t, 100)
	goal := m.Label("goal")
	if n, g := m.N(), goal.Len(); n*g < runGrain {
		t.Fatalf("n·g = %d·%d below runGrain %d: the recursion would not fan out", n, g, runGrain)
	}
	const tb, rb = 0.8, 0.9 // binds: max accumulable reward is 2·tb
	seq, err := ReachProbAll(m, goal, tb, rb, Options{Epsilon: 1e-9, Workers: 1})
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	for _, workers := range []int{0, 2, 3, runtime.NumCPU()} {
		var par *Result
		fanned := fansOut(func() {
			par, err = ReachProbAll(m, goal, tb, rb, Options{Epsilon: 1e-9, Workers: workers})
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if parallel.Resolve(workers) > 1 && !fanned {
			t.Errorf("workers=%d: the recursion dispatched no parallel chunks", workers)
		}
		if par.N != seq.N {
			t.Fatalf("workers=%d: N=%d, sequential N=%d", workers, par.N, seq.N)
		}
		for s := range par.Values {
			// Row-partitioned sweeps preserve sequential per-row arithmetic
			// order, so the parallel result must be bitwise identical.
			if par.Values[s] != seq.Values[s] {
				t.Fatalf("workers=%d: state %d: %g != sequential %g",
					workers, s, par.Values[s], seq.Values[s])
			}
		}
	}
}

func TestReachProbAllParallelVacuousBound(t *testing.T) {
	// Vacuous reward bound exercises the transientGoal fallback's parallel
	// kernels instead of the recursion. 400 states store 1 200 entries of
	// the uniformised matrix, above the sparse kernels' fan-out grain.
	m := gridModel(t, 400)
	goal := m.Label("goal")
	const tb = 0.8
	rb := 2*tb + 1 // exceeds max accumulable reward
	seq, err := ReachProbAll(m, goal, tb, rb, Options{Epsilon: 1e-9, Workers: 1})
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	var par *Result
	if !fansOut(func() { par, err = ReachProbAll(m, goal, tb, rb, Options{Epsilon: 1e-9, Workers: 2}) }) {
		t.Error("the transient sweep dispatched no parallel chunks")
	}
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	for s := range par.Values {
		if par.Values[s] != seq.Values[s] {
			t.Fatalf("state %d: %g != sequential %g", s, par.Values[s], seq.Values[s])
		}
	}
}
