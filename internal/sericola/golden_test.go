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

	type goldenCase struct {
		name string
		m    *mrm.MRM
		goal *mrm.StateSet
		t    float64
		rs   []float64
		eps  float64
		want string
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
	}
	for _, tc := range cases {
		for _, fullWidth := range []bool{false, true} {
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
