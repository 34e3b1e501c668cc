package discretise_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"

	"github.com/performability/csrl/internal/adhoc"
	"github.com/performability/csrl/internal/discretise"
	"github.com/performability/csrl/internal/mrm"
)

// The golden cases freeze the IEEE-754 bit patterns of ReachProbAll on the
// paper's Q3 model (Table 4's workload) across steps and reward bounds, on
// the AllowCoarse d = 1/16 row, and on an impulse model, so the bitwise
// contract of the recursion outlives any reference implementation: a
// change to the kernel that moves a single ulp of any source's value fails
// here. Each case runs at explicit worker counts 1 and 4 (the fan-out and
// the per-run kernel must both be independent of the worker count).

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

// impulseModel is a four-state chain whose impulses shift the reward index
// on some transitions (into the absorbing goal among them), so the golden
// hash pins the impulse path of the kernel too.
func impulseModel(t *testing.T) *mrm.MRM {
	t.Helper()
	b := mrm.NewBuilder(4)
	b.Rate(0, 1, 3).Rate(1, 0, 1.5).Rate(1, 2, 2).Rate(0, 3, 0.5).Rate(2, 0, 1)
	b.Reward(0, 1).Reward(1, 0).Reward(2, 2)
	b.Impulse(0, 1, 0.25).Impulse(1, 2, 0.5).Impulse(0, 3, 1)
	b.Label(2, "goal").Label(3, "goal")
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestGoldenReachProbAllBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other architectures may fuse the recursion's multiply-adds, which
		// moves the low bits.
		t.Skipf("golden bits are recorded for amd64, not %s", runtime.GOARCH)
	}
	red, err := adhoc.Q3Reduced()
	if err != nil {
		t.Fatal(err)
	}
	q3, q3Goal := red.Model, red.Model.Label("goal")
	imp := impulseModel(t)

	type goldenCase struct {
		name string
		m    *mrm.MRM
		goal *mrm.StateSet
		t, r float64
		opts discretise.Options
		want string
	}
	q3Case := func(den, r int, want string) goldenCase {
		return goldenCase{
			name: fmt.Sprintf("q3/d=1over%d/r=%d", den, r),
			m:    q3, goal: q3Goal, t: adhoc.Q3TimeBound, r: float64(r),
			opts: discretise.Options{D: 1 / float64(den)},
			want: want,
		}
	}
	cases := []goldenCase{
		q3Case(32, 100, "b12a9b06f1685f1c60445a5f6f8ce7f252af0e50bec8e3beb2271073d04fe6a4"),
		q3Case(32, 300, "563915f7e7e9a8d9540aa466e57b432e29c8c6d65841451ef67029bc44d05f41"),
		q3Case(32, 550, "e5399cf4ecd43603d75647e41e97f1cb55f748501eb77660b7822212de797482"),
		q3Case(32, 600, "15b09e22c04ca29bfe4e329cf10b8ffbcb3ab5cb77746c0026c9c3a6e3dd975b"),
		q3Case(64, 100, "068945f25e947f42d7fe834a11c757fb74f07de82926f9a314e9a19b4304e0e0"),
		q3Case(64, 300, "412ec4234a4a85e2a0e9eb2bb6b24d0e52510a925735ba571934874217435652"),
		q3Case(64, 550, "b95a094aafc91e61c217c23bb565e823d064d2bc1e87608efb08637d3a01133b"),
		q3Case(64, 600, "5179ac65b6ae7a7b60db62e5f3b3569c88848bcc51d2e867ee7ab5e927e7eef3"),
		{
			name: "q3/coarse/d=1over16/r=550",
			m:    q3, goal: q3Goal, t: adhoc.Q3TimeBound, r: adhoc.Q3PaperRewardBound,
			opts: discretise.Options{D: 1.0 / 16, AllowCoarse: true},
			want: "0adcae0f28f74fa456dd14947652a53e727cafd27934640bb3ad6405e5ccdc80",
		},
		{
			name: "impulse/d=1over64/r=3",
			m:    imp, goal: imp.Label("goal"), t: 2, r: 3,
			opts: discretise.Options{D: 1.0 / 64},
			want: "e1f7d1e919c57ab37b33e26140e535e7c1ac167c7422f537e5db5297fec854fa",
		},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			opts := tc.opts
			opts.Workers = workers
			got, err := discretise.ReachProbAll(tc.m, tc.goal, tc.t, tc.r, opts)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, workers, err)
			}
			if h := goldenHash(got); h != tc.want {
				t.Errorf("%s workers=%d: hash %s, want %s (values %v)", tc.name, workers, h, tc.want, got)
			}
		}
	}
}
