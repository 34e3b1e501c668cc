package crosscheck

import (
	"math"
	"testing"

	"github.com/performability/csrl/internal/adhoc"
	"github.com/performability/csrl/internal/sericola"
	"github.com/performability/csrl/internal/sparse"
	"github.com/performability/csrl/internal/transient"
)

// TestBatchedSericolaBitwiseEqualsVectorPathOnAdhoc is the PR's exactness
// gate for the block kernels: on the paper's ad-hoc model (Q3's Theorem 1
// reduction), the batched recursion — all reward bounds advancing together
// through one matrix pass per level — must reproduce the single-bound
// path bit for bit at every bound and worker count. The block kernels keep
// the vector product's per-row accumulation order in every column, so any
// deviation, even in the last ulp, means the batching touched the
// arithmetic and the test fails.
func TestBatchedSericolaBitwiseEqualsVectorPathOnAdhoc(t *testing.T) {
	red, err := adhoc.Q3Reduced()
	if err != nil {
		t.Fatal(err)
	}
	m := red.Model
	goal := m.Label("goal")
	tb := adhoc.Q3TimeBound
	// Bounds straddling several bands of the paper's Table 2 sweep, the
	// headline bound among them.
	rs := []float64{adhoc.Q3PaperRewardBound, 150, 350, 700}

	for _, workers := range []int{1, 2, 4, 8} {
		opts := sericola.Options{Epsilon: 1e-8, Workers: workers, Pool: sparse.NewVecPool()}
		batch, err := sericola.ReachProbBatch(m, goal, tb, rs, opts)
		if err != nil {
			t.Fatalf("workers=%d: batch: %v", workers, err)
		}
		for ri, rb := range rs {
			single, err := sericola.ReachProbAll(m, goal, tb, rb, opts)
			if err != nil {
				t.Fatalf("workers=%d r=%v: single: %v", workers, rb, err)
			}
			if batch[ri].N != single.N {
				t.Errorf("workers=%d r=%v: truncation N=%d batched vs %d single", workers, rb, batch[ri].N, single.N)
			}
			for s := range single.Values {
				if math.Float64bits(batch[ri].Values[s]) != math.Float64bits(single.Values[s]) {
					t.Errorf("workers=%d r=%v state %d: batched %v vs single %v not bitwise equal",
						workers, rb, s, batch[ri].Values[s], single.Values[s])
				}
			}
		}
	}
}

// TestBlockTransientBitwiseEqualsVectorPathOnAdhoc runs the block-threaded
// backward sweep (g > 1) on the ad-hoc model against one g = 1 call per
// vector, with several weighting vectors (among them the goal indicator,
// i.e. ReachProbAll's input) and steady-state detection both off and in
// its default mode.
func TestBlockTransientBitwiseEqualsVectorPathOnAdhoc(t *testing.T) {
	red, err := adhoc.Q3Reduced()
	if err != nil {
		t.Fatal(err)
	}
	m := red.Model
	goal := m.Label("goal")
	n := m.N()
	tb := adhoc.Q3TimeBound

	ind := make([]float64, n)
	goal.Each(func(s int) { ind[s] = 1 })
	ramp := make([]float64, n)
	half := make([]float64, n)
	for i := range ramp {
		ramp[i] = float64(i+1) / float64(n)
		half[i] = 0.5
	}
	vs := [][]float64{ind, ramp, half}

	for _, mode := range []transient.SteadyMode{transient.SteadyOff, transient.SteadyAuto} {
		for _, workers := range []int{1, 2, 4, 8} {
			opts := transient.Options{Epsilon: 1e-10, Workers: workers, SteadyDetect: mode, Pool: sparse.NewVecPool()}
			multi, err := transient.BackwardWeightedMulti(m, vs, tb, opts)
			if err != nil {
				t.Fatalf("mode=%v workers=%d: backward multi: %v", mode, workers, err)
			}
			for j, v := range vs {
				single, err := transient.BackwardWeighted(m, v, tb, opts)
				if err != nil {
					t.Fatalf("mode=%v workers=%d vec=%d: backward single: %v", mode, workers, j, err)
				}
				for s := range single {
					if math.Float64bits(multi[j][s]) != math.Float64bits(single[s]) {
						t.Errorf("mode=%v workers=%d vec=%d state %d: block %v vs vector %v not bitwise equal",
							mode, workers, j, s, multi[j][s], single[s])
					}
				}
			}
		}
	}
}
