package transient_test

import (
	"testing"

	"github.com/performability/csrl/internal/sparse"
)

// planStepAllocs returns the allocations of one sweep-plan step on the
// uniformised cluster:n model with down made absorbing — the matrix of the
// cluster until — accumulate and steady test included.
func planStepAllocs(t *testing.T, n, workers int) float64 {
	t.Helper()
	c := clusterModel(t, n)
	abs, err := c.MakeAbsorbing(c.Label("down"), false)
	if err != nil {
		t.Fatal(err)
	}
	p, err := abs.Uniformised(abs.UniformisationRate())
	if err != nil {
		t.Fatal(err)
	}
	dim := p.Dim()
	cur, next := c.Label("down").Indicator(), make([]float64, dim)
	acc := make([]float64, dim)
	plan := sparse.NewSweepPlan(p, workers)
	plan.Seed(next, cur)
	var allocs float64
	plan.Sweep(func() {
		allocs = testing.AllocsPerRun(20, func() {
			plan.Step(next, cur, 0.5, acc)
			cur, next = next, cur
		})
	})
	return allocs
}

// TestSweepPlanStepAllocs pins that the per-pass setup lives in the plan
// and its team: a step inside Sweep allocates nothing, sequential or
// partitioned.
func TestSweepPlanStepAllocs(t *testing.T) {
	for _, workers := range []int{1, 4} {
		if a := planStepAllocs(t, 60, workers); a != 0 {
			t.Errorf("Workers=%d step allocates %v times, want 0", workers, a)
		}
	}
}
