package csrl_test

// One benchmark per table and figure of the paper's evaluation (Section 5),
// plus ablation benchmarks for the design choices called out in DESIGN.md.
// Run them all with:
//
//	go test -bench=. -benchmem
//
// The absolute numbers land on modern hardware, so they will not match the
// paper's 1 GHz Pentium III; the *relative* behaviour (cost growth in ε, k
// and d) is what reproduces Tables 2–4.

import (
	"fmt"
	"math"
	"testing"

	"github.com/performability/csrl/internal/adhoc"
	"github.com/performability/csrl/internal/core"
	"github.com/performability/csrl/internal/discretise"
	"github.com/performability/csrl/internal/erlang"
	"github.com/performability/csrl/internal/lint"
	"github.com/performability/csrl/internal/logic"
	"github.com/performability/csrl/internal/lump"
	"github.com/performability/csrl/internal/mrm"
	"github.com/performability/csrl/internal/numeric"
	"github.com/performability/csrl/internal/runenv"
	"github.com/performability/csrl/internal/sericola"
	"github.com/performability/csrl/internal/sim"
	"github.com/performability/csrl/internal/srn"
	"github.com/performability/csrl/internal/transient"
)

func q3Setup(b *testing.B) (*mrm.MRM, *mrm.StateSet, int) {
	b.Helper()
	red, err := adhoc.Q3Reduced()
	if err != nil {
		b.Fatal(err)
	}
	return red.Model, red.Model.Label("goal"), red.Model.InitialState()
}

// BenchmarkTable2Sericola regenerates Table 2: the occupation-time
// distribution algorithm across error bounds ε at the paper's λ, plus the
// call the station-p3 benchmark workload makes (the checker's default
// ε = 1e-9 and the automatic λ) and the batched shape of the csrld-sweep
// workload: two reward bounds sharing one time bound in one
// ReachProbBatch call, at t = 24 and at the workload's shortest t = 12,
// where both bounds of r150+r450 fall in the first reward band. Every
// case reports the probability of its first bound.
func BenchmarkTable2Sericola(b *testing.B) {
	m, goal, init := q3Setup(b)
	paper := []float64{adhoc.Q3PaperRewardBound}
	for _, bc := range []struct {
		name           string
		eps, lambda, t float64
		rs             []float64
	}{
		{"eps=1e-02", 1e-2, adhoc.PaperLambda, adhoc.Q3TimeBound, paper},
		{"eps=1e-04", 1e-4, adhoc.PaperLambda, adhoc.Q3TimeBound, paper},
		{"eps=1e-08", 1e-8, adhoc.PaperLambda, adhoc.Q3TimeBound, paper},
		{"eps=1e-09,lambda=auto", 1e-9, 0, adhoc.Q3TimeBound, paper},
		{"eps=1e-09,lambda=auto,batch=r300+r600", 1e-9, 0, adhoc.Q3TimeBound, []float64{300, 600}},
		{"eps=1e-09,lambda=auto,t=12,batch=r150+r450", 1e-9, 0, 12, []float64{150, 450}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var v float64
			for i := 0; i < b.N; i++ {
				res, err := sericola.ReachProbBatch(m, goal, bc.t, bc.rs,
					sericola.Options{Epsilon: bc.eps, Lambda: bc.lambda})
				if err != nil {
					b.Fatal(err)
				}
				v = res[0].Values[init]
			}
			b.ReportMetric(v, "probability")
		})
	}
}

// BenchmarkTable3Erlang regenerates Table 3: the pseudo-Erlang
// approximation across phase counts k, plus the call the station-p3
// benchmark workload makes (the checker's default k = 256 and ε = 1e-9).
func BenchmarkTable3Erlang(b *testing.B) {
	m, goal, init := q3Setup(b)
	for _, bc := range []struct {
		name string
		k    int
		eps  float64
	}{
		{"k=16", 16, 0},
		{"k=128", 128, 0},
		{"k=1024", 1024, 0},
		{"k=256,eps=1e-09", 256, 1e-9},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var v float64
			for i := 0; i < b.N; i++ {
				vals, err := erlang.ReachProbAll(m, goal, adhoc.Q3TimeBound, adhoc.Q3PaperRewardBound,
					erlang.Options{K: bc.k, Transient: transient.Options{Epsilon: bc.eps}})
				if err != nil {
					b.Fatal(err)
				}
				v = vals[init]
			}
			b.ReportMetric(v, "probability")
		})
	}
}

// BenchmarkTable4Discretise regenerates Table 4: the Tijms–Veldman
// discretisation across step sizes d.
func BenchmarkTable4Discretise(b *testing.B) {
	m, goal, init := q3Setup(b)
	for _, den := range []int{16, 32, 64} {
		b.Run(fmt.Sprintf("d=1over%d", den), func(b *testing.B) {
			b.ReportAllocs()
			var v float64
			for i := 0; i < b.N; i++ {
				got, err := discretise.ReachProb(m, goal, adhoc.Q3TimeBound, adhoc.Q3PaperRewardBound, init,
					discretise.Options{D: 1 / float64(den), AllowCoarse: den < 20})
				if err != nil {
					b.Fatal(err)
				}
				v = got
			}
			b.ReportMetric(v, "probability")
		})
	}
}

// BenchmarkDiscretiseReachProbAll times the discretisation call the
// station-p3 workload of bench/ makes for its one Tijms–Veldman check:
// ReachProbAll at d = 1/32 over the reduced Q3 model, all CPUs. Its
// per-source fan-out covers the live sources only; the absorbing ones are
// answered in closed form.
func BenchmarkDiscretiseReachProbAll(b *testing.B) {
	m, goal, init := q3Setup(b)
	b.ReportAllocs()
	var v float64
	for i := 0; i < b.N; i++ {
		vals, err := discretise.ReachProbAll(m, goal, adhoc.Q3TimeBound, adhoc.Q3PaperRewardBound,
			discretise.Options{D: 1.0 / 32})
		if err != nil {
			b.Fatal(err)
		}
		v = vals[init]
	}
	b.ReportMetric(v, "probability")
}

// BenchmarkFigure1Simulation regenerates Figure 1's process: Monte-Carlo
// sampling of the 2-D process (X_t, Y_t) with the absorbing reward barrier.
func BenchmarkFigure1Simulation(b *testing.B) {
	b.ReportAllocs()
	m, goal, init := q3Setup(b)
	s := sim.New(m, 1)
	hits := 0
	for i := 0; i < b.N; i++ {
		est, err := s.ReachProb(init, goal, adhoc.Q3TimeBound, adhoc.Q3PaperRewardBound, 1)
		if err != nil {
			b.Fatal(err)
		}
		if est.Value > 0 {
			hits++
		}
	}
	b.ReportMetric(float64(hits)/float64(b.N), "hit-fraction")
}

// BenchmarkFigure2SRNGeneration regenerates Figure 2's model: SRN
// reachability-graph construction of the battery-powered station.
func BenchmarkFigure2SRNGeneration(b *testing.B) {
	b.ReportAllocs()
	net, init := adhoc.Net()
	for i := 0; i < b.N; i++ {
		m, _, err := net.BuildMRM(init, srn.Options{Reward: adhoc.Power})
		if err != nil {
			b.Fatal(err)
		}
		if m.N() != 9 {
			b.Fatalf("state space changed: %d", m.N())
		}
	}
}

// BenchmarkQ1RewardBoundedUntil benchmarks the P2 procedure (duality +
// transient analysis) behind property Q1.
func BenchmarkQ1RewardBoundedUntil(b *testing.B) {
	b.ReportAllocs()
	m, err := adhoc.Model()
	if err != nil {
		b.Fatal(err)
	}
	c := core.New(m, core.DefaultOptions())
	f := logic.MustParse("P=? [ F{r<=600} call_incoming ]")
	for i := 0; i < b.N; i++ {
		if _, err := c.Values(f); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQ2TimeBoundedUntil benchmarks the P1 procedure (transient
// analysis of the transformed MRM) behind property Q2.
func BenchmarkQ2TimeBoundedUntil(b *testing.B) {
	b.ReportAllocs()
	m, err := adhoc.Model()
	if err != nil {
		b.Fatal(err)
	}
	c := core.New(m, core.DefaultOptions())
	f := logic.MustParse("P=? [ F{t<=24} call_incoming ]")
	for i := 0; i < b.N; i++ {
		if _, err := c.Values(f); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQ3FullChecker benchmarks the complete Q3 pipeline — parsing,
// satisfaction sets, Theorem 1 reduction and the P3 procedure — for each
// algorithm.
func BenchmarkQ3FullChecker(b *testing.B) {
	m, err := adhoc.Model()
	if err != nil {
		b.Fatal(err)
	}
	f := logic.MustParse("P>0.5 [ (call_idle | doze) U{t<=24, r<=600} call_initiated ]")
	for _, alg := range []core.Algorithm{core.AlgSericola, core.AlgErlang, core.AlgDiscretise} {
		b.Run(alg.String(), func(b *testing.B) {
			b.ReportAllocs()
			opts := core.DefaultOptions()
			opts.P3 = alg
			opts.Epsilon = 1e-8
			opts.ErlangK = 256
			opts.DiscretiseStep = 1.0 / 32
			c := core.New(m, opts)
			for i := 0; i < b.N; i++ {
				if _, err := c.Check(f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRectangleUntil benchmarks the general-interval until — the
// rectangle hot path whose four F(t,r) corners now advance through the
// checker in two reward-bound batches (one per distinct time bound),
// against the same query on a fresh checker per iteration so the memo
// cannot amortise the reduction across iterations.
func BenchmarkRectangleUntil(b *testing.B) {
	m, err := adhoc.Model()
	if err != nil {
		b.Fatal(err)
	}
	f := logic.MustParse("P=? [ (call_idle | doze) U{t in [6,24], r in [150,600]} call_initiated ]")
	opts := core.DefaultOptions()
	opts.Epsilon = 1e-8
	b.Run("memoised", func(b *testing.B) {
		b.ReportAllocs()
		c := core.New(m, opts)
		for i := 0; i < b.N; i++ {
			if _, err := c.Values(f); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold-checker", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.New(m, opts).Values(f); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkParallelWorkers is the sequential-vs-parallel pair for the P3
// procedures' parallel engine: each sub-benchmark runs the same workload
// with Workers: 1 (one goroutine) and Workers: 0 (all CPUs). On a
// single-core machine the pair should be a wash.
func BenchmarkParallelWorkers(b *testing.B) {
	m, goal, _ := q3Setup(b)
	for _, bench := range []struct {
		name string
		run  func(workers int) error
	}{
		{"sericola", func(workers int) error {
			_, err := sericola.ReachProbAll(m, goal, adhoc.Q3TimeBound, adhoc.Q3PaperRewardBound,
				sericola.Options{Epsilon: 1e-6, Lambda: adhoc.PaperLambda, Env: runenv.Env{Workers: workers}})
			return err
		}},
		{"erlang", func(workers int) error {
			_, err := erlang.ReachProbAll(m, goal, adhoc.Q3TimeBound, adhoc.Q3PaperRewardBound,
				erlang.Options{K: 256, Transient: transient.Options{Epsilon: 1e-12, Env: runenv.Env{Workers: workers}}})
			return err
		}},
		{"discretise", func(workers int) error {
			_, err := discretise.ReachProbAll(m, goal, 6, 150, discretise.Options{D: 1.0 / 32, Env: runenv.Env{Workers: workers}})
			return err
		}},
	} {
		for _, w := range []struct {
			label   string
			workers int
		}{{"workers=1", 1}, {"workers=all", 0}} {
			b.Run(bench.name+"/"+w.label, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := bench.run(w.workers); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- Ablations -----------------------------------------------------------

// BenchmarkAblationPoissonWeights compares Fox–Glynn against the naive
// log-space pmf evaluation for the weight vector of a uniformisation run.
func BenchmarkAblationPoissonWeights(b *testing.B) {
	const q = 468 // λt of the case study
	b.Run("fox-glynn", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := numeric.FoxGlynn(q, 1e-12); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive-pmf", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n, err := numeric.PoissonTruncation(q, 1e-12)
			if err != nil {
				b.Fatal(err)
			}
			sum := 0.0
			for k := 0; k <= n; k++ {
				sum += numeric.PoissonPMF(q, k)
			}
			if math.Abs(sum-1) > 1e-6 {
				b.Fatal("weights do not sum to 1")
			}
		}
	})
}

// BenchmarkAblationBackwardVsForwardUntil compares the backward
// uniformisation sweep (one pass for all states) against forward transient
// analysis per initial state for a P1-type until.
func BenchmarkAblationBackwardVsForwardUntil(b *testing.B) {
	m, err := adhoc.Model()
	if err != nil {
		b.Fatal(err)
	}
	phi := mrm.NewStateSet(m.N()).Complement()
	psi := m.Label("call_incoming")
	abs, err := m.MakeAbsorbing(psi, false)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("backward-single-sweep", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := transient.TimeBoundedUntil(m, phi, psi, 24, transient.DefaultOptions()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("forward-per-state", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for s := 0; s < m.N(); s++ {
				init := make([]float64, m.N())
				init[s] = 1
				pi, err := transient.DistributionFrom(abs, init, 24, transient.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				var v float64
				psi.Each(func(j int) { v += pi[j] })
			}
		}
	})
}

// BenchmarkAblationLumping measures formula-dependent lumping (the
// reduction MRMC-style tools apply before CSRL checking) against checking
// the unreduced model, on a left/right-symmetric repairable cluster.
func BenchmarkAblationLumping(b *testing.B) {
	buildCluster := func() *mrm.MRM {
		arc := func(p int) []srn.Arc { return []srn.Arc{{Place: p, Weight: 1}} }
		net := &srn.Net{
			Places: []string{"lu", "ld", "ru", "rd"},
			Transitions: []srn.Transition{
				{Name: "fl", In: arc(0), Out: arc(1), RateFn: func(m srn.Marking) float64 { return 0.1 * float64(m[0]) }},
				{Name: "fr", In: arc(2), Out: arc(3), RateFn: func(m srn.Marking) float64 { return 0.1 * float64(m[2]) }},
				{Name: "rl", In: arc(1), Out: arc(0), Rate: 2},
				{Name: "rr", In: arc(3), Out: arc(2), Rate: 2},
			},
		}
		const perSide = 8
		init := srn.Marking{perSide, 0, perSide, 0}
		m, _, err := net.BuildMRM(init, srn.Options{
			Reward: func(mk srn.Marking) float64 { return float64(mk[1] + mk[3]) },
			Labels: func(mk srn.Marking) []string {
				var ls []string
				if mk[0]+mk[2] >= perSide {
					ls = append(ls, "qos")
				}
				if mk[1]+mk[3] == 0 {
					ls = append(ls, "pristine")
				}
				return ls
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		return m
	}
	m := buildCluster()
	formula := logic.MustParse("P=? [ qos U{t<=24, r<=20} pristine ]")
	opts := core.DefaultOptions()
	opts.Epsilon = 1e-7
	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		c := core.New(m, opts)
		for i := 0; i < b.N; i++ {
			if _, err := c.Values(formula); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lump-then-check", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := lump.QuotientRespecting(m, []string{"qos", "pristine"})
			if err != nil {
				b.Fatal(err)
			}
			c := core.New(res.Model, opts)
			vals, err := c.Values(formula)
			if err != nil {
				b.Fatal(err)
			}
			_ = res.Lift(vals)
		}
	})
}

// BenchmarkLintModule times the mrmlint analyzer suite over the whole
// module. All registered analyzers share one inspector traversal per
// package, and the dataflow analyzers (epsbudget, ledgercharge, poolescape)
// add CFG construction plus interprocedural summaries on top; running every
// package keeps the whole-module wall time inside the bench-smoke budget
// honest. Each iteration loads the packages afresh with the timer stopped,
// so every timed iteration is a cold analysis pass: a package's CFG, SSA
// and summary caches never carry over from the one before.
func BenchmarkLintModule(b *testing.B) {
	b.ReportAllocs()
	runner := lint.NewRunner(lint.All())
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pkgs := loadModule(b)
		b.StartTimer()
		for _, pkg := range pkgs {
			if _, err := runner.RunPackage(pkg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// loadModule parses and type-checks every package of the module with a
// new loader, so none of its packages has been analysed yet.
func loadModule(b *testing.B) []*lint.Package {
	b.Helper()
	loader, err := lint.NewLoader(".")
	if err != nil {
		b.Fatal(err)
	}
	dirs, err := loader.Expand(loader.ModuleDir, []string{"./..."})
	if err != nil {
		b.Fatal(err)
	}
	var pkgs []*lint.Package
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			b.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs
}
