package transient

import (
	"math"
	"testing"

	"github.com/performability/csrl/internal/adhoc"
	"github.com/performability/csrl/internal/mrm"
	"github.com/performability/csrl/internal/obs"
	"github.com/performability/csrl/internal/sparse"
)

// multiWorkers is the worker grid the ISSUE pins for the bitwise suite.
var multiWorkers = []int{1, 2, 4, 8}

// ringModel builds a CTMC large enough that the uniformised matrix clears
// the parallel kernels' grain, with an absorbing tail so steady-state
// detection has something to detect: states 0..n-3 hop forward along a
// ring with a drift towards the two absorbing sinks n-2 and n-1.
func ringModel(t *testing.T, n int) *mrm.MRM {
	t.Helper()
	b := mrm.NewBuilder(n)
	for i := 0; i < n-2; i++ {
		b.Rate(i, (i+1)%(n-2), 1.0+float64(i%5))
		b.Rate(i, (i+7)%(n-2), 0.5+float64(i%3))
		b.Rate(i, (i+13)%(n-2), 0.25)
		b.Rate(i, n-2, 0.1+0.01*float64(i%7))
		b.Rate(i, n-1, 0.05)
	}
	b.Label(n-2, "sinkA")
	b.Label(n-1, "sinkB")
	b.InitialState(0)
	m, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return m
}

// weightVecs returns g deterministic weighting vectors, including exact
// zeros.
func weightVecs(n, g int) [][]float64 {
	vs := make([][]float64, g)
	seed := uint64(g*977 + n)
	for j := range vs {
		vs[j] = make([]float64, n)
		for i := range vs[j] {
			seed = seed*6364136223846793005 + 1442695040888963407
			x := float64(seed>>11) / float64(1<<53)
			if x < 0.2 {
				x = 0
			}
			vs[j][i] = x
		}
	}
	return vs
}

func bitwiseCols(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %x (%g), want %x (%g) — must be bitwise equal",
				label, i, math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

func TestBackwardWeightedMultiBitwiseEqualsSingle(t *testing.T) {
	m := ringModel(t, 300)
	vs := weightVecs(m.N(), 4)
	for _, mode := range []SteadyMode{SteadyOff, SteadyAuto} {
		for _, workers := range multiWorkers {
			opts := Options{Epsilon: 1e-10, Workers: workers, SteadyDetect: mode, Pool: sparse.NewVecPool()}
			multi, err := BackwardWeightedMulti(m, vs, 2.5, opts)
			if err != nil {
				t.Fatalf("multi: %v", err)
			}
			for j, v := range vs {
				single, err := BackwardWeighted(m, v, 2.5, opts)
				if err != nil {
					t.Fatalf("single %d: %v", j, err)
				}
				bitwiseCols(t, "backward mode/workers/vec", multi[j], single)
			}
		}
	}
}

// TestMultiSteadyDetectPerColumn pins the per-column freeze in two
// regimes. (a) All columns at the sweep's fixed point (scaled all-ones
// vectors — P is stochastic): every column freezes at the first step and
// the block sweep's pass count collapses to a handful, versus the full
// Fox–Glynn window with detection off. (b) A frozen column next to a live
// one: block passes run as long as the live column needs (passes track the
// slowest column, not the sum), and compacting the frozen column out must
// not disturb the live column's bitwise value.
func TestMultiSteadyDetectPerColumn(t *testing.T) {
	m := ringModel(t, 300)
	n := m.N()
	const tb, eps = 60.0, 1e-10
	lambda := m.UniformisationRate()
	q := lambda * tb
	p, err := m.Uniformised(lambda)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Epsilon: eps, Workers: 1}
	fgEps, _, _ := opts.budgetSplit(false)
	w, err := opts.poissonWeights(q, fgEps)
	if err != nil {
		t.Fatal(err)
	}
	ones := make([]float64, n)
	quarter := make([]float64, n)
	for i := range ones {
		ones[i] = 1
		quarter[i] = 0.25
	}
	on := Options{Epsilon: eps, Workers: 1}
	off := Options{Epsilon: eps, Workers: 1, SteadyDetect: SteadyOff}

	// (a) Both columns are exact fixed points: all freeze, passes collapse.
	fixed := [][]float64{ones, quarter}
	accOn, prodOn := sweep(p, fixed, w, q, on)
	_, prodOff := sweep(p, fixed, w, q, off)
	if prodOff != w.Right {
		t.Fatalf("detection off applied %d block passes, want the full window %d", prodOff, w.Right)
	}
	if prodOn >= prodOff/10 {
		t.Fatalf("all-frozen block sweep still applied %d of %d passes", prodOn, prodOff)
	}
	for j, v := range fixed {
		want, _ := sweep(p, [][]float64{v}, w, q, on)
		bitwiseCols(t, "all-frozen column", accOn[j], want[0])
	}

	// (b) One frozen column, one live: passes track the live column, and
	// the frozen column's compaction leaves the live result bitwise intact.
	mixed := [][]float64{ones, weightVecs(n, 1)[0]}
	accMix, prodMix := sweep(p, mixed, w, q, on)
	for j, v := range mixed {
		want, prodSingle := sweep(p, [][]float64{v}, w, q, on)
		bitwiseCols(t, "mixed column", accMix[j], want[0])
		if j == 1 && prodMix != prodSingle {
			t.Errorf("block passes %d, live column alone needs %d — passes must track the slowest column", prodMix, prodSingle)
		}
	}
	// Detection stays within ε of the full summation, per column.
	accOffMix, _ := sweep(p, mixed, w, q, off)
	for j := range mixed {
		if d := sparse.MaxDiff(accMix[j], accOffMix[j]); d > eps {
			t.Errorf("column %d: steady-detect differs from full summation by %g > ε", j, d)
		}
	}
}

func TestMultiDegenerateInputs(t *testing.T) {
	m := ringModel(t, 50)
	if out, err := BackwardWeightedMulti(m, nil, 1, DefaultOptions()); err != nil || out != nil {
		t.Fatalf("empty input: out=%v err=%v", out, err)
	}
	vs := weightVecs(m.N(), 2)
	out, err := BackwardWeightedMulti(m, vs, 0, DefaultOptions())
	if err != nil {
		t.Fatalf("t=0: %v", err)
	}
	for j := range vs {
		bitwiseCols(t, "t=0 clone", out[j], vs[j])
	}
	if _, err := BackwardWeightedMulti(m, [][]float64{{1, 2}}, 1, DefaultOptions()); err == nil {
		t.Fatal("length mismatch must error")
	}
	if _, err := BackwardWeightedMulti(m, vs, -1, DefaultOptions()); err == nil {
		t.Fatal("negative t must error")
	}
	// A batch of one is the same path as the single-vector call.
	one := [][]float64{vs[0]}
	got, err := BackwardWeightedMulti(m, one, 1.5, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want, err := BackwardWeighted(m, vs[0], 1.5, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	bitwiseCols(t, "g=1 batch", got[0], want)
}

// TestBlockSweepCostsOneProductPerStep pins the matrix-pass contrast that
// motivates the multi-vector kernels, on the paper's Q3 reduction: with
// steady-state detection off both counts are structural, so g single-vector
// backward sweeps must cost exactly g times the block sweep's products.
func TestBlockSweepCostsOneProductPerStep(t *testing.T) {
	red, err := adhoc.Q3Reduced()
	if err != nil {
		t.Fatal(err)
	}
	m := red.Model
	n := m.N()
	vs := make([][]float64, 4)
	vs[0] = m.Label("goal").Indicator()
	for j := 1; j < len(vs); j++ {
		vs[j] = make([]float64, n)
		for i := range vs[j] {
			vs[j][i] = float64((i*j+1)%5) / 4
		}
	}
	opts := Options{Epsilon: 1e-12, Workers: 1, SteadyDetect: SteadyOff}
	products := func(rec *obs.Recorder) int64 { return rec.Report(1e-12).Counters["sweep.products"] }

	opts.Obs = obs.New()
	if _, err := BackwardWeightedMulti(m, vs, adhoc.Q3TimeBound, opts); err != nil {
		t.Fatal(err)
	}
	block := products(opts.Obs)
	opts.Obs = obs.New()
	for _, v := range vs {
		if _, err := BackwardWeighted(m, v, adhoc.Q3TimeBound, opts); err != nil {
			t.Fatal(err)
		}
	}
	vector := products(opts.Obs)
	if block == 0 || vector != int64(len(vs))*block {
		t.Errorf("sweep.products: block %d, vector %d; want vector = %d × block > 0", block, vector, len(vs))
	}
}
