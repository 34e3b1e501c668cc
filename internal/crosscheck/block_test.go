package crosscheck

import (
	"math"
	"testing"

	"github.com/performability/csrl/internal/adhoc"
	"github.com/performability/csrl/internal/runenv"
	"github.com/performability/csrl/internal/sericola"
	"github.com/performability/csrl/internal/sparse"
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
		opts := sericola.Options{Epsilon: 1e-8, Env: runenv.Env{Workers: workers, Pool: sparse.NewVecPool()}}
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
