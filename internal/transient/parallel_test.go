package transient

import (
	"math"
	"runtime"
	"testing"
	"time"

	"github.com/performability/csrl/internal/mrm"
	"github.com/performability/csrl/internal/obs"
	"github.com/performability/csrl/internal/parallel"
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

// TestSweepTeamExits pins the lifetime of a sweep's team: after
// ReachProbAll returns, at the end of the Poisson window or at a
// steady-state break, runtime.NumGoroutine() is back to its baseline.
// The goal states are absorbing, so the iterate converges well inside the
// window. The sweep fans out (parallel.ChunkCount moves).
func TestSweepTeamExits(t *testing.T) {
	ring := bigRing(t, 600)
	goal := ring.Label("goal")
	m, err := ring.MakeAbsorbing(goal, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"window end", Options{Epsilon: 1e-12, Workers: 4, SteadyDetect: SteadyOff}},
		{"steady break", Options{Epsilon: 1e-6, Workers: 4}},
	} {
		base := runtime.NumGoroutine()
		chunks := parallel.ChunkCount()
		rec := obs.New()
		tc.opts.Obs = rec
		if _, err := ReachProbAll(m, goal, 40, tc.opts); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if parallel.ChunkCount() == chunks {
			t.Fatalf("%s: the sweep did not fan out", tc.name)
		}
		steady := rec.Counter("steady.detections").Value() > 0
		if steady != (tc.name == "steady break") {
			t.Fatalf("%s: steady-state detections %v", tc.name, steady)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines after the sweep, %d before", tc.name, runtime.NumGoroutine(), base)
			}
			runtime.Gosched()
		}
	}
}

// TestSweepOneCoreBitwise runs a Workers 4 sweep, whose team has three
// helpers, with one scheduling core: it finishes and gives the Workers 1
// bits.
func TestSweepOneCoreBitwise(t *testing.T) {
	m := bigRing(t, 600)
	goal := m.Label("goal")
	want, err := ReachProbAll(m, goal, 1.3, Options{Epsilon: 1e-12, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	got, err := ReachProbAll(m, goal, 1.3, Options{Epsilon: 1e-12, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(got, want) {
		t.Fatal("Workers 4 at GOMAXPROCS=1 differs from Workers 1")
	}
}
