package numeric

// BinomialStep advances a row of binomial masses by one level, in place,
// by Pascal's rule. With n = len(row) − 1 ≥ 1, row[k] holds
// C(n−1,k)·x^k·(1−x)^(n−1−k) for 0 ≤ k ≤ n−1 on entry (row[n] is
// ignored), and C(n,k)·x^k·(1−x)^(n−k) for 0 ≤ k ≤ n on return:
//
//	b[n] = x·b[n−1], b[k] = x·b[k−1] + (1−x)·b[k] for k = n−1…1,
//	b[0] = (1−x)·b[0].
//
// Starting from the level-0 row [1], n steps cost n²/2 multiply-adds and
// no Exp. Each entry is a convex combination of the previous level's
// entries, so the error of a row grows by at most about one rounding per
// level (Σₖ |bₖ − exact| ≤ n·2⁻⁵², TestBinomialStepExact), and deep tails
// decay through the subnormals to 0 rather than to Inf or NaN. The
// degenerate probabilities need no special case: x = 0 and x = 1 give
// exact rows.
//
//numerics:domain x=prob row=prob
func BinomialStep(row []float64, x float64) {
	n := len(row) - 1
	y := 1 - x
	row[n] = x * row[n-1]
	for k := n - 1; k > 0; k-- {
		row[k] = x*row[k-1] + y*row[k]
	}
	row[0] = y * row[0]
}
