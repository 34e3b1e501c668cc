package sericola_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"

	"github.com/performability/csrl/internal/adhoc"
	"github.com/performability/csrl/internal/cluster"
	"github.com/performability/csrl/internal/mrm"
	"github.com/performability/csrl/internal/sericola"
)

// The golden cases freeze the IEEE-754 bit patterns and truncation points
// of ReachProbBatch, so the bitwise contract of the C(h,n,k) recursion
// outlives any reference implementation: a change to the kernel that moves
// a single ulp of any value fails here. Each case runs sliced and
// full-width (the two must agree bit for bit) at explicit worker counts 1
// and 4.
//
// On Q3 (rewards 0, 20, 100, 200 at t = 24, so bands [0, 480), [480, 2400)
// and [2400, 4800)) the batch holds bounds in all three bands, one on a
// band edge and one vacuous one. The cluster:4 case has n·g ≥ runGrain at
// both widths (50 states, 48 of them degraded), so its recursion runs
// the row-partitioned parallel region.
//
// Three cases hold rows that no positive-reward state can be reached from,
// whose C(h,n,k) rows are zero at every level. deadRowsModel mixes six
// such rows' neighbours with four of them — a closed zero-reward 2-cycle,
// a zero-reward state leading into it and the absorbing goal — at g = 1
// and full width. The two Theorem-1 reductions of the cluster model
// (Φ = "not exactly one station broken", Ψ = down) start with a dead row
// (the pristine state, whose every move breaks one station) and end with
// the absorbing goal and fail rows: cluster:7's 49 states run the
// parallel region at full width (n·g ≥ runGrain), and cluster:46's 2 116
// states run it at g = 1, with the full-width run beyond maxWork.

// goldenHash returns the hex SHA-256 of every result's N and the
// little-endian IEEE-754 bits of its values, in batch order.
func goldenHash(res []*sericola.Result) string {
	h := sha256.New()
	var buf [8]byte
	for _, r := range res {
		binary.LittleEndian.PutUint64(buf[:], uint64(r.N))
		h.Write(buf[:])
		for _, x := range r.Values {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGoldenReachProbBatchBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other architectures may fuse the recursion's multiply-adds, which
		// moves the low bits.
		t.Skipf("golden bits are recorded for amd64, not %s", runtime.GOARCH)
	}
	red, err := adhoc.Q3Reduced()
	if err != nil {
		t.Fatal(err)
	}
	params, err := cluster.Default(4)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := params.Build()
	if err != nil {
		t.Fatal(err)
	}

	dead := deadRowsModel(t)
	cl7 := reducedCluster(t, 7)
	cl46 := reducedCluster(t, 46)

	type goldenCase struct {
		name string
		m    *mrm.MRM
		goal *mrm.StateSet
		t    float64
		rs   []float64
		eps  float64
		// slicedOnly skips the full-width run, for a model whose n×n
		// recursion is beyond maxWork.
		slicedOnly bool
		want       string
	}
	q3Bounds := []float64{100, 479, 480, adhoc.Q3PaperRewardBound, 3000, 5000}
	cases := []goldenCase{
		{
			name: "q3/eps=1e-4", m: red.Model, goal: red.Model.Label("goal"),
			t: adhoc.Q3TimeBound, rs: q3Bounds, eps: 1e-4,
			want: "4e787fec4986c8a8e9fabd5ae3082b79e742ba830263e68902141a4eee84e81a",
		},
		{
			name: "q3/eps=1e-9", m: red.Model, goal: red.Model.Label("goal"),
			t: adhoc.Q3TimeBound, rs: q3Bounds, eps: 1e-9,
			want: "a8fac1e96346a44e27a312cb7657bc28bfd131ab236ba0db076ab329211121b5",
		},
		{
			name: "cluster:4/degraded", m: cl, goal: cl.Label("degraded"),
			t: 2, rs: []float64{1, 3.5, 7}, eps: 1e-8,
			want: "003cfa11643ac2ad51e22b3e171f2174fcb9fccd3c92cb8538835ed974c3b2d7",
		},
		{
			name: "dead-rows", m: dead, goal: dead.Label("goal"),
			t: 2, rs: []float64{0.5, 2.5, 4, 5.9, 7}, eps: 1e-9,
			want: "7ef95fca61841b6d7e576f22b65d71b173498b323882c7912dba7a38c1ec37aa",
		},
		{
			name: "cluster:7/reduced", m: cl7, goal: cl7.Label("goal"),
			t: 2, rs: []float64{0.5, 3, 9, 20}, eps: 1e-8,
			want: "6526116fc79c0e23ed98999ba417848348419f03cd6dd137b12cd584273a66aa",
		},
		{
			name: "cluster:46/reduced", m: cl46, goal: cl46.Label("goal"),
			t: 0.25, rs: []float64{0.1, 1, 5}, eps: 1e-8, slicedOnly: true,
			want: "421b563fdb878143b7691ec62552816b36b6797d0d4bc192261825132e6389a8",
		},
	}
	for _, tc := range cases {
		for _, fullWidth := range []bool{false, true} {
			if fullWidth && tc.slicedOnly {
				continue
			}
			for _, workers := range []int{1, 4} {
				name := fmt.Sprintf("%s/fullwidth=%v/workers=%d", tc.name, fullWidth, workers)
				res, err := sericola.ReachProbBatch(tc.m, tc.goal, tc.t, tc.rs, sericola.Options{
					Epsilon: tc.eps, Workers: workers, FullWidth: fullWidth,
				})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if h := goldenHash(res); h != tc.want {
					t.Errorf("%s: hash %s, want %s", name, h, tc.want)
				}
			}
		}
	}
}

// deadRowsModel is a ten-state model whose six live states (0, 1, 3, 4, 7
// and 9: a full group of four and a remainder of two at g = 1) sit among
// four dead ones: the zero-reward 2-cycle 5 ⇄ 6, state 2 leading into it
// and the absorbing goal 8. State 3 has reward 0 but an edge to state 4
// of reward 2, so it is live.
func deadRowsModel(t *testing.T) *mrm.MRM {
	t.Helper()
	b := mrm.NewBuilder(10)
	for _, r := range []struct {
		from, to int
		rate     float64
	}{
		{0, 1, 1}, {0, 2, 0.4},
		{1, 3, 0.8}, {1, 0, 0.5}, {1, 8, 0.3},
		{2, 5, 1.2},
		{3, 4, 2}, {3, 8, 0.6},
		{4, 6, 0.25}, {4, 7, 1}, {4, 1, 0.3},
		{5, 6, 1.5},
		{6, 5, 0.9},
		{7, 0, 0.7}, {7, 8, 0.5},
		{9, 4, 1}, {9, 2, 0.5},
	} {
		b.Rate(r.from, r.to, r.rate)
	}
	for s, rho := range []float64{3, 1, 0, 0, 2, 0, 0, 1, 0, 2} {
		b.Reward(s, rho)
	}
	b.Label(8, "goal").InitialState(0)
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// reducedCluster returns the Theorem-1 reduction of cluster:n for
// Φ = "not exactly one station broken" and Ψ = down.
func reducedCluster(t *testing.T, n int) *mrm.MRM {
	t.Helper()
	params, err := cluster.Default(n)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := params.Build()
	if err != nil {
		t.Fatal(err)
	}
	phi := mrm.NewStateSet(cl.N())
	for s := range cl.N() {
		if cl.Reward(s) != 1 {
			phi.Add(s)
		}
	}
	red, err := mrm.ReduceForUntil(cl, phi, cl.Label("down"))
	if err != nil {
		t.Fatal(err)
	}
	return red.Model
}
