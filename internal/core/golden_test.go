package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"github.com/performability/csrl/internal/adhoc"
	"github.com/performability/csrl/internal/cluster"
	"github.com/performability/csrl/internal/logic"
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

// TestGoldenUnboundedUntilBits freezes the IEEE-754 bit patterns of
// unbounded-until values, the Gauss–Seidel solve of untilUnbounded, on the
// station model and on cluster:20 with the lumping pre-pass off: a change
// to the solver or the system assembly that moves a single ulp fails here.
func TestGoldenUnboundedUntilBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other architectures may fuse the solver's multiply-adds, which
		// moves the low bits.
		t.Skipf("golden bits are recorded for amd64, not %s", runtime.GOARCH)
	}
	station, err := adhoc.Model()
	if err != nil {
		t.Fatal(err)
	}
	p, err := cluster.Default(20)
	if err != nil {
		t.Fatal(err)
	}
	c20, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		m       *mrm.MRM
		formula string
		want    string
	}{
		{"station", station, "P=? [ (call_idle | doze) U call_initiated ]",
			"ced4de24277e1da0e2691e6b9c75be87aad4e1ce64bb6013896053a0f1bfbea3"},
		{"cluster20-qos", c20, "P=? [ qos U down ]",
			"e8f22b65354cdc0e98d9fbbc4d1f6ab6b20505b6bdf83b8ecf6a9464d482e15e"},
		{"cluster20-degraded", c20, "P=? [ degraded U down ]",
			"985346da2f4d08a3a68b65ed6cef64e81edd5dab4268436375975e6ad9d98772"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.Lump = LumpOff
			vals, err := New(tc.m, opts).Values(logic.MustParse(tc.formula))
			if err != nil {
				t.Fatal(err)
			}
			if got := goldenHash(vals); got != tc.want {
				t.Errorf("hash %q, want %q", got, tc.want)
			}
		})
	}
}
