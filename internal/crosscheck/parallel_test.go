package crosscheck

import (
	"math"
	"runtime"
	"testing"

	"github.com/performability/csrl/internal/adhoc"
	"github.com/performability/csrl/internal/discretise"
	"github.com/performability/csrl/internal/erlang"
	"github.com/performability/csrl/internal/parallel"
	"github.com/performability/csrl/internal/runenv"
	"github.com/performability/csrl/internal/sericola"
	"github.com/performability/csrl/internal/transient"
)

// TestAdhocParallelEquivalence is the sequential-vs-parallel equivalence
// suite of the parallel-engine work: on the paper's ad-hoc case study
// (Q3's Theorem 1 reduction), each of the three P3 procedures must agree
// between Workers: 1 (one goroutine) and parallel worker counts
// within 1e-12, the pseudo-Erlang one bit for bit. It runs under -race in
// CI, covering every concurrent path.
func TestAdhocParallelEquivalence(t *testing.T) {
	red, err := adhoc.Q3Reduced()
	if err != nil {
		t.Fatal(err)
	}
	m := red.Model
	goal := m.Label("goal")
	tb, rb := adhoc.Q3TimeBound, adhoc.Q3PaperRewardBound
	workerGrid := []int{0, 4, runtime.NumCPU()}

	t.Run("sericola", func(t *testing.T) {
		seq, err := sericola.ReachProbAll(m, goal, tb, rb, sericola.Options{Epsilon: 1e-8, Env: runenv.Env{Workers: 1}})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workerGrid {
			par, err := sericola.ReachProbAll(m, goal, tb, rb, sericola.Options{Epsilon: 1e-8, Env: runenv.Env{Workers: w}})
			if err != nil {
				t.Fatalf("workers=%d: %v", w, err)
			}
			if par.N != seq.N {
				t.Fatalf("workers=%d: truncation N=%d vs sequential %d", w, par.N, seq.N)
			}
			for s := range par.Values {
				if d := math.Abs(par.Values[s] - seq.Values[s]); d > 1e-12 {
					t.Errorf("workers=%d: state %d differs by %g", w, s, d)
				}
			}
		}
	})

	t.Run("erlang", func(t *testing.T) {
		// k = 512 expands to 2561 states and ≈ 8k stored entries. The
		// 1025 fixed rows (the goal and the other absorbing state in
		// every phase, and the barrier) and the run entries counted at
		// their discount put the sweep above the sparse kernels' grain,
		// so it genuinely runs in parallel; k = 256, the checker's
		// default, runs in one part. The backward sweep is bitwise
		// stable across worker counts.
		opts := func(w int) erlang.Options {
			return erlang.Options{K: 512, Transient: transient.Options{Epsilon: 1e-12, Env: runenv.Env{Workers: w}}}
		}
		seq, err := erlang.ReachProbAll(m, goal, tb, rb, opts(1))
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workerGrid {
			before := parallel.ChunkCount()
			par, err := erlang.ReachProbAll(m, goal, tb, rb, opts(w))
			if err != nil {
				t.Fatalf("workers=%d: %v", w, err)
			}
			if parallel.Resolve(w) > 1 && parallel.ChunkCount() == before {
				t.Fatalf("workers=%d: the sweep never fanned out", w)
			}
			for s := range par {
				if math.Float64bits(par[s]) != math.Float64bits(seq[s]) {
					t.Errorf("workers=%d: state %d: %v, sequential %v", w, s, par[s], seq[s])
				}
			}
		}
	})

	t.Run("discretise", func(t *testing.T) {
		// Shorter bounds than Table 4 keep the d⁻² cost affordable under
		// the race detector; same adhoc model, same code paths (the
		// per-source fan-out plus the per-state inner loop above its
		// grain: n·(R+1) = 9·1601).
		dtb, drb := 2.0, 50.0
		opts := discretise.Options{D: 1.0 / 32, Env: runenv.Env{Workers: 1}}
		seq, err := discretise.ReachProbAll(m, goal, dtb, drb, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workerGrid {
			opts.Workers = w
			par, err := discretise.ReachProbAll(m, goal, dtb, drb, opts)
			if err != nil {
				t.Fatalf("workers=%d: %v", w, err)
			}
			for s := range par {
				if d := math.Abs(par[s] - seq[s]); d > 1e-12 {
					t.Errorf("workers=%d: state %d differs by %g", w, s, d)
				}
			}
		}
	})
}
