package transient

import (
	"math"
	"runtime"
	"testing"

	"github.com/performability/csrl/internal/mrm"
)

// bigRing builds a ring CTMC with forward/backward/skip transitions, large
// enough (nnz ≈ 3n) that the parallel sparse kernels fan out rather than
// falling back to the sequential path.
func bigRing(t *testing.T, n int) *mrm.MRM {
	t.Helper()
	b := mrm.NewBuilder(n)
	for s := 0; s < n; s++ {
		b.Rate(s, (s+1)%n, 1.5+0.001*float64(s))
		b.Rate(s, (s+n-1)%n, 0.7)
		b.Rate(s, (s+7)%n, 0.2)
		if s%5 == 0 {
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

func TestBackwardWeightedParallelEquivalence(t *testing.T) {
	m := bigRing(t, 600)
	goal := m.Label("goal")
	seqOpts := Options{Epsilon: 1e-12, Workers: 1}
	want, err := ReachProbAll(m, goal, 1.3, seqOpts)
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	for _, workers := range []int{0, 2, 4, runtime.NumCPU()} {
		got, err := ReachProbAll(m, goal, 1.3, Options{Epsilon: 1e-12, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for s := range got {
			if got[s] != want[s] {
				t.Fatalf("workers=%d: state %d: %g != sequential %g", workers, s, got[s], want[s])
			}
		}
	}
}

// TestDistributionParallelEquivalence pins that the forward result does
// not depend on the worker count: the windowed sweep runs sequentially.
// Distribution from the initial state and DistributionFrom from a
// two-point start must give the Workers-1 bits at every worker count,
// with steady-state detection off and on and with truncation on.
func TestDistributionParallelEquivalence(t *testing.T) {
	m := bigRing(t, 600)
	init := make([]float64, m.N())
	init[17], init[301] = 0.5, 0.5
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"steady=off", Options{Epsilon: 1e-12, SteadyDetect: SteadyOff}},
		{"steady=auto", Options{Epsilon: 1e-12, SteadyDetect: SteadyAuto}},
		{"truncated", Options{Epsilon: 1e-12, Truncate: 1e-16}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(workers int) [][]float64 {
				opts := tc.opts
				opts.Workers = workers
				point, err := Distribution(m, 0.9, opts)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				spread, err := DistributionFrom(m, init, 0.9, opts)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				return [][]float64{point, spread}
			}
			want := run(1)
			for _, workers := range []int{0, 2, 4} {
				for k, got := range run(workers) {
					var sum float64
					for s := range got {
						if math.Float64bits(got[s]) != math.Float64bits(want[k][s]) {
							t.Fatalf("workers=%d start %d: state %d: %g vs sequential %g (must be bitwise equal)",
								workers, k, s, got[s], want[k][s])
						}
						sum += got[s]
					}
					if math.Abs(sum-1) > 1e-9 {
						t.Fatalf("workers=%d start %d: distribution sums to %g", workers, k, sum)
					}
				}
			}
		})
	}
}
