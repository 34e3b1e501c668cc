package sparse

import "sort"

// parGrain is the minimum amount of work (stored entries a step reads)
// before a sweep plan fans out; below it two parts cost more than one and
// one part runs the whole row range. Measured with BenchmarkSweepPlanRuns
// at -cpu 1,2 on a 2-vCPU x86-64 host, with both grains set so that every
// size splits: medians of 5 runs of one step inside SweepPlan.Sweep over
// indirect (run-broken) entries, one part against two at GOMAXPROCS 2,
// 641 entries 2.3 against 3.4 µs, 1 281 4.5 against 4.8, 2 561 10.1
// against 7.1, 5 121 18.8 against 11.4, 20 481 73 against 49 and 81 921
// 299 against 170. Two parts pay from between 1.3k and 2.6k entries, just
// above this grain. At GOMAXPROCS 1 two parts cost about what one does
// (0.88–1.39× over the same sizes, with no trend).
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
