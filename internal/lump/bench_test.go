package lump_test

import (
	"fmt"
	"testing"

	"github.com/performability/csrl/internal/cluster"
	"github.com/performability/csrl/internal/lump"
)

// BenchmarkQuotient times one capped quotient of the cluster family for
// the atoms of `!down U down`, the pre-pass of the cluster time-bounded
// until. cluster:224 (101 250 states) is skipped under -short.
func BenchmarkQuotient(b *testing.B) {
	for _, n := range []int{60, 224} {
		b.Run(fmt.Sprintf("cluster:%d", n), func(b *testing.B) {
			if n > 60 && testing.Short() {
				b.Skip("cluster:224 skipped under -short")
			}
			p, err := cluster.Default(n)
			if err != nil {
				b.Fatal(err)
			}
			m, err := p.Build()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := lump.QuotientLimited(m, []string{"down"}, 64); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
