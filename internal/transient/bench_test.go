package transient

import (
	"fmt"
	"runtime"
	"sync/atomic"
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
//
// The contended sub-benchmarks time the same sweep beside other work in
// the process: "concurrent" runs GOMAXPROCS sweeps at once (RunParallel;
// ns/op is wall time over all of them), as concurrent csrld requests do,
// and "beside-spin" runs each sweep while one goroutine keeps a core busy
// with arithmetic. "oversubscribed" is beside-spin at GOMAXPROCS
// NumCPU+1: the busy goroutine, the caller and the team's helpers then
// run on more threads than the host has cores, as when another process
// keeps a core busy, so the host's scheduler, not Go's, decides which of
// them waits.
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
	v := down.Indicator()
	for _, workers := range []int{1, 0} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts.Workers = workers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sweep(pm, v, w, lambda*t, opts)
			}
		})
		b.Run(fmt.Sprintf("workers=%d/concurrent", workers), func(b *testing.B) {
			opts.Workers = workers
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					sweep(pm, v, w, lambda*t, opts)
				}
			})
		})
		besideSpin := func(b *testing.B) {
			opts.Workers = workers
			var stop atomic.Bool
			spun := make(chan float64)
			go func() {
				x := 1.0
				for !stop.Load() {
					for range 1 << 10 {
						x = x*1.0000001 + 1e-9
					}
				}
				spun <- x
			}()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sweep(pm, v, w, lambda*t, opts)
			}
			b.StopTimer()
			stop.Store(true)
			<-spun
		}
		b.Run(fmt.Sprintf("workers=%d/beside-spin", workers), besideSpin)
		b.Run(fmt.Sprintf("workers=%d/oversubscribed", workers), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU() + 1))
			besideSpin(b)
		})
	}
}
