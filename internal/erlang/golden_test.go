package erlang_test

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
	"github.com/performability/csrl/internal/erlang"
	"github.com/performability/csrl/internal/mrm"
	"github.com/performability/csrl/internal/obs"
	"github.com/performability/csrl/internal/transient"
)

// The golden cases freeze the IEEE-754 bit patterns and matrix-pass counts
// of ReachProbAll, so the bitwise contract of the expansion and its
// backward sweep outlives any reference implementation: a change to
// Expand, the matrix assembly or the sweep kernels that moves a single ulp
// of any value, or one pass, fails here. Each case runs at explicit worker
// counts 1 and 4 (parallel.Resolve maps explicit counts independently of
// the host).
//
// Q3's reduced model is swept over the phase counts of Table 3's range and
// three reward bounds; its expansions stay small enough to run in one
// part. The cluster:4 expansion (12 801 states, ≈ 68k stored entries) is
// large enough that its sweep fans out at Workers 4.

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

func TestGoldenReachProbAllBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other architectures may fuse the sweep's multiply-adds, which
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
		name     string
		m        *mrm.MRM
		goal     *mrm.StateSet
		t, r     float64
		k        int
		hash     string
		products int64
	}
	q3 := func(k int, r float64, hash string, products int64) goldenCase {
		return goldenCase{
			name: fmt.Sprintf("q3/k=%d/r=%g", k, r), m: red.Model, goal: red.Model.Label("goal"),
			t: adhoc.Q3TimeBound, r: r, k: k, hash: hash, products: products,
		}
	}
	cases := []goldenCase{
		q3(1, 100, "edb71a1185eaa04145bda7ce662c3eed8dfe8aa7092426fb98e4c3c9be58c09b", 552),
		q3(1, 550, "4838e30dcd686f28feac2f8508b3b88728a4fec42f2f8bcfeb7ab57c681e782f", 700),
		q3(1, 3000, "b8b61888620dd7ae09f0e9eb98ad6f5656065e2e72831d9d15a512322cd2b1c5", 696),
		q3(2, 100, "11293a37e91ada8995b553a75110c1989365939ffb5146fc05e7d205ba46db92", 438),
		q3(2, 550, "c65656ea44a24c137d8b612156167460c05ef8e057814dd4f2a6b6b6620977d9", 706),
		q3(2, 3000, "04089aa26f80d5c56a27d05df53e1586067aa2b8fb55cbe3c6c5dcb324eaab30", 697),
		q3(16, 100, "a8b1245183505b2beda871350e89df0536e9c0c29e60ed521693d113bb186e70", 445),
		q3(16, 550, "6517642fee43285863bb4a125685bff95a79263cb7027f6c4c1d51e1340f073c", 672),
		q3(16, 3000, "a75ce330b960a4cfdaff5f970a5315f292dbe164c58052e9a51556ec806638f5", 711),
		q3(256, 100, "717a966dbcd93431975a5f2e6a9375fe937a7be75513f0b8ebec0fac01899481", 3080),
		q3(256, 550, "6a6019a284440c0ffdd253240e86e339cb5670b342a3d4d3dcb3fa31d1d5be60", 2334),
		q3(256, 3000, "70f19065050b12acaaee9cb0cbdd03a4472ef1be95632d3b68ff86eaef020372", 1107),
		q3(1024, 100, "f7fed29cc3584b2e34a74708a505587437b1e1475a472ac6c983ce46877a8469", 11158),
		q3(1024, 550, "2f6f2e48c8303a2b92870ac8bcd39e800432b7ec2d934f0b10fbd61e52e4184f", 7992),
		q3(1024, 3000, "b33617bc8a1d99cd5fb5d7c64380512f655f4e1b45fa32244a96272ed44960af", 2528),
		{
			name: "cluster:4/down/k=256", m: cl, goal: cl.Label("down"),
			t: 2, r: 10, k: 256, hash: "0764386fcb4060c7380ae4c4bf20dee39b2e20a9be4ce04a899bdb62e7ece8a1", products: 631,
		},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("%s/workers=%d", tc.name, workers)
			rec := obs.New()
			got, err := erlang.ReachProbAll(tc.m, tc.goal, tc.t, tc.r, erlang.Options{
				K: tc.k, Transient: transient.Options{Epsilon: 1e-9, Workers: workers, Obs: rec},
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			h, products := goldenHash(got), rec.Counter("sweep.products").Value()
			if h != tc.hash || products != tc.products {
				t.Errorf("%s: hash %s, %d passes; want %s, %d", name, h, products, tc.hash, tc.products)
			}
		}
	}
}
