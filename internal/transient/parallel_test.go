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
			// The backward sweep uses MulBlockPar, which is bitwise-stable
			// under partitioning.
			if got[s] != want[s] {
				t.Fatalf("workers=%d: state %d: %g != sequential %g", workers, s, got[s], want[s])
			}
		}
	}
}

func TestDistributionParallelEquivalence(t *testing.T) {
	m := bigRing(t, 600)
	want, err := Distribution(m, 0.9, Options{Epsilon: 1e-12, Workers: 1})
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	for _, workers := range []int{0, 2, 4} {
		got, err := Distribution(m, 0.9, Options{Epsilon: 1e-12, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var sum float64
		for s := range got {
			// The forward sweep uses MulBlockTPar whose reduce step may
			// reassociate additions; allow roundoff-level slack.
			if d := math.Abs(got[s] - want[s]); d > 1e-13 {
				t.Fatalf("workers=%d: state %d: %g vs sequential %g (Δ=%g)", workers, s, got[s], want[s], d)
			}
			sum += got[s]
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("workers=%d: distribution sums to %g", workers, sum)
		}
	}
}
