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
	return testing.AllocsPerRun(20, func() {
		plan.Step(next, cur, 0.5, acc)
		cur, next = next, cur
	})
}

// TestSweepPlanStepAllocs pins that the per-pass setup lives in the plan:
// a sequential step allocates nothing, and a partitioned step allocates
// only the fan-out's own bookkeeping, the same amount at every model size.
func TestSweepPlanStepAllocs(t *testing.T) {
	if a := planStepAllocs(t, 60, 1); a != 0 {
		t.Errorf("Workers=1 step allocates %v times, want 0", a)
	}
	small, large := planStepAllocs(t, 20, 4), planStepAllocs(t, 60, 4)
	if small != large {
		t.Errorf("Workers=4 step allocates %v times on cluster:20 but %v on cluster:60", small, large)
	}
}
