package sparse

import "sort"

// parGrain is the minimum amount of work (stored entries, times the
// columns a step advances) before the parallel kernels fan out;
// below it the scheduling overhead dominates and one worker runs the whole
// row range.
const parGrain = 1024

// rowCuts returns w+1 monotone row boundaries [0=c0 <= c1 <= … <= cw=n]
// such that each range [ci, ci+1) holds roughly NNZ/w stored entries.
// The boundaries depend only on the matrix and w, keeping the parallel
// kernels deterministic.
func (m *CSR) rowCuts(w int) []int {
	if w > m.n {
		w = m.n
	}
	cuts := make([]int, w+1)
	nnz := m.NNZ()
	for c := 1; c < w; c++ {
		target := nnz * c / w
		cuts[c] = sort.SearchInts(m.rowPtr, target+1) - 1
	}
	cuts[w] = m.n
	// Deduplicate collapsed boundaries (possible when one row holds more
	// than NNZ/w entries) while keeping monotonicity.
	for c := 1; c <= w; c++ {
		if cuts[c] < cuts[c-1] {
			cuts[c] = cuts[c-1]
		}
	}
	out := cuts[:1]
	for c := 1; c <= w; c++ {
		if cuts[c] > out[len(out)-1] {
			out = append(out, cuts[c])
		}
	}
	return out
}
