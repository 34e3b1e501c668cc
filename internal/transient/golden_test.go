package transient_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"github.com/performability/csrl/internal/adhoc"
	"github.com/performability/csrl/internal/cluster"
	"github.com/performability/csrl/internal/erlang"
	"github.com/performability/csrl/internal/mrm"
	"github.com/performability/csrl/internal/obs"
	"github.com/performability/csrl/internal/transient"
)

// The golden cases freeze the IEEE-754 bit patterns of the sweeps on the
// paper's P1 and pseudo-Erlang workloads and on the cluster scale model,
// so the bitwise contract outlives any reference implementation: a change
// to the kernels or the sweep that moves a single ulp, or one matrix pass,
// fails here. Each case runs at explicit worker counts 1 and 4
// (parallel.Resolve maps explicit counts independently of the host), so
// the partitioned backward kernel is pinned too, and every case must give
// the same bits at both.

// goldenHash returns the hex SHA-256 of the little-endian IEEE-754 bits of
// the concatenated vectors.
func goldenHash(vs ...[]float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range vs {
		for _, x := range v {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

type goldenCase struct {
	name string
	// run computes the case's result vectors at the given options.
	run func(opts transient.Options) ([][]float64, error)
	// want maps a Workers value to the expected hash and sweep.products.
	want map[int]goldenWant
}

type goldenWant struct {
	hash     string
	products int64
}

func clusterModel(t *testing.T, n int) *mrm.MRM {
	t.Helper()
	p, err := cluster.Default(n)
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func goldenCases(t *testing.T) []goldenCase {
	red, err := adhoc.Q3Reduced()
	if err != nil {
		t.Fatal(err)
	}
	exp, err := erlang.Expand(red.Model, adhoc.Q3PaperRewardBound, 256)
	if err != nil {
		t.Fatal(err)
	}
	erlGoal := exp.GoalSet(red.Model.Label("goal")).Indicator()

	c60 := clusterModel(t, 60)
	down := c60.Label("down")
	up := down.Complement()
	reward := make([]float64, c60.N())
	for s := range reward {
		reward[s] = c60.Reward(s)
	}
	vs := [][]float64{down.Indicator(), c60.Label("degraded").Indicator(), reward}

	// A constant column is a fixed point of P, so it converges at step 0
	// and is charged its tail and dropped while down keeps sweeping.
	ones := make([]float64, c60.N())
	for s := range ones {
		ones[s] = 1
	}
	withOnes := [][]float64{down.Indicator(), ones}

	// down made absorbing: its rows are lone unit diagonals. The terminal
	// vector puts −0, a negative and a > 1 entry on three of them, so the
	// first product's 0 + 1·v[i] on those rows is pinned (−0 becomes +0).
	abs60, err := c60.MakeAbsorbing(down, false)
	if err != nil {
		t.Fatal(err)
	}
	odd := down.Indicator()
	var downStates []int
	down.Each(func(s int) { downStates = append(downStates, s) })
	odd[downStates[0]] = math.Copysign(0, -1)
	odd[downStates[len(downStates)/2]] = -0.75
	odd[downStates[len(downStates)-1]] = 3.5

	one := func(v []float64, err error) ([][]float64, error) { return [][]float64{v}, err }
	return []goldenCase{
		{
			name: "erlang-q3-k256-backward",
			run: func(opts transient.Options) ([][]float64, error) {
				opts.Epsilon = 1e-9
				return one(transient.BackwardWeighted(exp.Model, erlGoal, adhoc.Q3TimeBound, opts))
			},
			want: map[int]goldenWant{
				1: {"b91d186ceedb6fb813529ebfe17a34db9fc6be03aac351521645cd995bf19dae", 2334},
				4: {"b91d186ceedb6fb813529ebfe17a34db9fc6be03aac351521645cd995bf19dae", 2334},
			},
		},
		{
			name: "cluster60-until",
			run: func(opts transient.Options) ([][]float64, error) {
				opts.Epsilon = 1e-8
				return one(transient.TimeBoundedUntil(c60, up, down, 96, opts))
			},
			want: map[int]goldenWant{
				1: {"5430cd47ebdebf474a7d6bc16a98de3e2c5eb134541de62688958da02e716011", 631},
				4: {"5430cd47ebdebf474a7d6bc16a98de3e2c5eb134541de62688958da02e716011", 631},
			},
		},
		{
			name: "cluster60-forward-steady",
			run: func(opts transient.Options) ([][]float64, error) {
				opts.Epsilon = 1e-8
				return one(transient.DistributionFrom(c60, c60.InitView(), 96, opts))
			},
			want: map[int]goldenWant{
				1: {"3638aaf41c898600a4a9fca47a19647b748a874e7b24ee352196c8268b8b5a25", 97},
				4: {"3638aaf41c898600a4a9fca47a19647b748a874e7b24ee352196c8268b8b5a25", 97},
			},
		},
		{
			name: "cluster60-forward-nosteady",
			run: func(opts transient.Options) ([][]float64, error) {
				opts.Epsilon = 1e-8
				opts.SteadyDetect = transient.SteadyOff
				return one(transient.DistributionFrom(c60, c60.InitView(), 96, opts))
			},
			want: map[int]goldenWant{
				1: {"f3da4b9f6be8875c460d5a09836922e3b6478fb5ed97550b69ac3fc048f6154c", 631},
				4: {"f3da4b9f6be8875c460d5a09836922e3b6478fb5ed97550b69ac3fc048f6154c", 631},
			},
		},
		{
			name: "cluster60-forward-truncated",
			run: func(opts transient.Options) ([][]float64, error) {
				opts.Epsilon = 1e-8
				opts.Truncate = 1e-14
				return one(transient.DistributionFrom(c60, c60.InitView(), 96, opts))
			},
			want: map[int]goldenWant{
				1: {"02efa3b1ac10156341c305b6dd9f76cc9043d3b78ed77de1c79fad35a881d935", 99},
				4: {"02efa3b1ac10156341c305b6dd9f76cc9043d3b78ed77de1c79fad35a881d935", 99},
			},
		},
		{
			name: "cluster60-backward-multi-g3",
			run: func(opts transient.Options) ([][]float64, error) {
				opts.Epsilon = 1e-8
				return transient.BackwardWeightedMulti(c60, vs, 24, opts)
			},
			want: map[int]goldenWant{
				1: {"9dd47b5b7f0a65502d57093707e53702d62c9c16233dbafe8d2e9a19dfe0400f", 204},
				4: {"9dd47b5b7f0a65502d57093707e53702d62c9c16233dbafe8d2e9a19dfe0400f", 204},
			},
		},
		{
			name: "cluster60-backward-multi-constant-col",
			run: func(opts transient.Options) ([][]float64, error) {
				opts.Epsilon = 1e-8
				return transient.BackwardWeightedMulti(c60, withOnes, 24, opts)
			},
			want: map[int]goldenWant{
				1: {"2d4df732be6867e491bd71f3a389adf5707627af47f31b86d8cf8c97ed47afdb", 52},
				4: {"2d4df732be6867e491bd71f3a389adf5707627af47f31b86d8cf8c97ed47afdb", 52},
			},
		},
		{
			name: "cluster60-absorbing-signed-terminal",
			run: func(opts transient.Options) ([][]float64, error) {
				opts.Epsilon = 1e-8
				return one(transient.BackwardWeighted(abs60, odd, 96, opts))
			},
			want: map[int]goldenWant{
				1: {"3086a38e268061a89b300d1e6e7f6f059da914f0710a860278b8466ea3203ff3", 631},
				4: {"3086a38e268061a89b300d1e6e7f6f059da914f0710a860278b8466ea3203ff3", 631},
			},
		},
	}
}

func TestGoldenSweepBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Go may fuse x*y+z into one FMA on other architectures, which
		// legitimately changes the last bits the hashes freeze.
		t.Skipf("golden bits are recorded for amd64, not %s", runtime.GOARCH)
	}
	for _, tc := range goldenCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				rec := obs.New()
				out, err := tc.run(transient.Options{Workers: workers, Obs: rec})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				got := goldenWant{goldenHash(out...), rec.Counter("sweep.products").Value()}
				if want := tc.want[workers]; got != want {
					t.Errorf("workers=%d: got {%q, %d}, want {%q, %d}",
						workers, got.hash, got.products, want.hash, want.products)
				}
			}
		})
	}
}
