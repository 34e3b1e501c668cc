package transient

import (
	"fmt"
	"testing"

	"github.com/performability/csrl/internal/cluster"
	"github.com/performability/csrl/internal/lump"
	"github.com/performability/csrl/internal/numeric"
)

// BenchmarkUntilSweep times the dense sweep of the cluster time-bounded
// until `!down U{t<=96} down` at ε = 1e-8 on the lumped cluster:60
// quotient: one backward sweep over the uniformised quotient with down
// made absorbing, the layer the transient.sweep span measures. Lumping,
// the absorbing model, the matrix and the Fox–Glynn table are built
// outside the timer.
func BenchmarkUntilSweep(b *testing.B) {
	p, err := cluster.Default(60)
	if err != nil {
		b.Fatal(err)
	}
	m, err := p.Build()
	if err != nil {
		b.Fatal(err)
	}
	res, err := lump.QuotientLimited(m, []string{"down"}, 64)
	if err != nil {
		b.Fatal(err)
	}
	down := res.Model.Label("down")
	// Φ = ¬down, Ψ = down: ¬(Φ∨Ψ) ∪ Ψ is down.
	abs, err := res.Model.MakeAbsorbing(down, false)
	if err != nil {
		b.Fatal(err)
	}
	lambda := abs.UniformisationRate()
	pm, err := abs.Uniformised(lambda)
	if err != nil {
		b.Fatal(err)
	}
	const t = 96
	opts := Options{Epsilon: 1e-8}.normalise()
	fgEps, _, _ := opts.budgetSplit(false)
	w, err := numeric.FoxGlynn(lambda*t, fgEps)
	if err != nil {
		b.Fatal(err)
	}
	vs := [][]float64{down.Indicator()}
	for _, workers := range []int{1, 0} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts.Workers = workers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sweep(pm, vs, w, lambda*t, opts)
			}
		})
	}
}
