package lump_test

import (
	"testing"

	"github.com/performability/csrl/internal/cluster"
	"github.com/performability/csrl/internal/lump"
)

// BenchmarkQuotient times one capped quotient of the cluster family for
// `!down U down`: cluster:N lumps the model respecting the atom down, the
// atom-keyed pre-pass; cluster:N/reduced lumps the until's Theorem-1 view,
// the model with the down states absorbing, respecting down, which is what
// the checker lumps for a top-level time-bounded until. cluster:224
// (101 250 states) is skipped under -short.
func BenchmarkQuotient(b *testing.B) {
	for _, tc := range []struct {
		name    string
		n       int
		reduced bool
	}{
		{"cluster:60", 60, false},
		{"cluster:224", 224, false},
		{"cluster:224/reduced", 224, true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			if tc.n > 60 && testing.Short() {
				b.Skip("cluster:224 skipped under -short")
			}
			p, err := cluster.Default(tc.n)
			if err != nil {
				b.Fatal(err)
			}
			m, err := p.Build()
			if err != nil {
				b.Fatal(err)
			}
			down := m.Label("down")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if tc.reduced {
					_, err = lump.QuotientAbsorbing(m, down, down, 64)
				} else {
					_, err = lump.QuotientLimited(m, []string{"down"}, 64)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
