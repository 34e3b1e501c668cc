package mrm

import "github.com/performability/csrl/internal/sparse"

// WithRates returns a copy of m with rate matrix r and exit rates its row
// sums. It lets external tests build models the Builder rejects, such as
// ones with a stored self-loop.
func WithRates(m *MRM, r *sparse.CSR) *MRM {
	c := *m
	c.rates = r
	c.exit = make([]float64, r.Dim())
	for s := range c.exit {
		c.exit[s] = r.RowSum(s)
	}
	return &c
}
