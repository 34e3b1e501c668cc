package sparse

import (
	"math/bits"
	"sort"
	"sync"
)

// parGrain is the minimum amount of work (stored entries, times the
// columns advanced for MulBlockPar) before the parallel kernels fan out;
// below it the scheduling overhead dominates and one worker runs the whole
// row range.
const parGrain = 1024

// scatterCapPerClass bounds how many free buffers one capacity class
// retains; it only needs to cover the worker fan-out of a single kernel
// call, so a small bound keeps the cache's footprint proportional to the
// models actually in use.
const scatterCapPerClass = 16

// scatterCache recycles the per-worker scatter buffers of the transpose
// kernels, bucketed by power-of-two capacity class. The previous
// sync.Pool-based cache recycled any buffer whose capacity covered the
// request, so after one large model every later small-model check kept
// pinning O(workers·n_max) memory. Bucketing fixes that: a request of
// length n is served only from the class holding capacity 2^⌈log2 n⌉
// (at most 2× the request), large-model buffers stay in their own class,
// and each class is bounded by scatterCapPerClass. Buffers whose capacity
// is not exactly a class size (e.g. resliced by a caller) are dropped on
// put rather than filed under a class they don't fill.
type scatterCache struct {
	mu   sync.Mutex
	free map[int][][]float64 // guarded by mu; capacity class (log2) → free buffers
}

var scatters = scatterCache{free: make(map[int][][]float64)}

// capClass returns the power-of-two capacity class for a request of
// length n: the smallest c with 1<<c ≥ n.
func capClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// get returns a buffer of length n with capacity 1<<capClass(n). The
// contents are unspecified; callers zero what they need (the scatter
// kernels overwrite every element anyway).
func (c *scatterCache) get(n int) []float64 {
	cls := capClass(n)
	c.mu.Lock()
	list := c.free[cls]
	if len(list) > 0 {
		buf := list[len(list)-1]
		list[len(list)-1] = nil
		c.free[cls] = list[:len(list)-1]
		c.mu.Unlock()
		return buf[:n]
	}
	c.mu.Unlock()
	return make([]float64, n, 1<<cls)
}

// put files buf back under its capacity class, dropping it when the class
// is full or the capacity is not an exact class size.
func (c *scatterCache) put(buf []float64) {
	cp := cap(buf)
	if cp == 0 || cp&(cp-1) != 0 {
		return
	}
	cls := bits.Len(uint(cp)) - 1
	c.mu.Lock()
	if len(c.free[cls]) < scatterCapPerClass {
		c.free[cls] = append(c.free[cls], buf[:cp])
	}
	c.mu.Unlock()
}

// classLen reports how many free buffers a class holds (tests).
func (c *scatterCache) classLen(cls int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.free[cls])
}

// reset empties the cache (tests).
func (c *scatterCache) reset() {
	c.mu.Lock()
	c.free = make(map[int][][]float64)
	c.mu.Unlock()
}

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
