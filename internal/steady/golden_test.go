package steady

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"github.com/performability/csrl/internal/adhoc"
	"github.com/performability/csrl/internal/mrm"
)

// goldenHash returns the hex SHA-256 of the little-endian IEEE-754 bits of
// v.
func goldenHash(v []float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// sinkRing is an n-state chain whose states 0..n−4 hop along a ring and
// leak into two bottom components: the absorbing state n−3 and the
// two-state cycle {n−2, n−1}, of which only n−2 carries "phi". The leak
// rates vary by state, so the reachability solve has no trivial answer.
func sinkRing(t *testing.T, n int) *mrm.MRM {
	t.Helper()
	b := mrm.NewBuilder(n)
	ring := n - 3
	for i := 0; i < ring; i++ {
		b.Rate(i, (i+1)%ring, 1+float64(i%5))
		b.Rate(i, (i+7)%ring, 0.5+float64(i%3))
		b.Rate(i, n-3, 0.01+0.001*float64(i%11))
		b.Rate(i, n-2, 0.02*float64(1+i%4))
	}
	b.Rate(n-2, n-1, 2).Rate(n-1, n-2, 3)
	b.Label(n-3, "sink").Label(n-2, "phi")
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestGoldenSteadyBits freezes the IEEE-754 bit patterns of steady-state
// probabilities, whose reachability part is a Gauss–Seidel solve, on a
// ring with two bottom components and on the station model with
// call_initiated made absorbing: a change to the solver that moves a
// single ulp fails here.
func TestGoldenSteadyBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other architectures may fuse the solver's multiply-adds, which
		// moves the low bits.
		t.Skipf("golden bits are recorded for amd64, not %s", runtime.GOARCH)
	}
	ring := sinkRing(t, 300)
	station, err := adhoc.Model()
	if err != nil {
		t.Fatal(err)
	}
	absStation, err := station.MakeAbsorbing(station.Label("call_initiated"), false)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		m    *mrm.MRM
		phi  *mrm.StateSet
		want string
	}{
		{"ring-phi", ring, ring.Label("phi"),
			"b365ed2d034ba1070cf7524b0ad692275f4d3e1b5136731444c1faf2a23df8ee"},
		{"ring-sink", ring, ring.Label("sink"),
			"08664e1d7973c1515c0da79940fd38d0bbe29d55304e5c3595c668e442fa9904"},
		{"station-absorbing", absStation, absStation.Label("call_initiated"),
			"dfa5f8e040ae65d841cb15bfc7c406e7c3f325f86f30d3764135ffc6f14886e2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			vals, err := Probabilities(tc.m, tc.phi)
			if err != nil {
				t.Fatal(err)
			}
			if got := goldenHash(vals); got != tc.want {
				t.Errorf("hash %q, want %q", got, tc.want)
			}
		})
	}
}
