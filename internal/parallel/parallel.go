// Package parallel fans the numerical kernels' work out over the cores.
// It depends only on the standard library (sync, runtime, syscall) and
// has one mechanism, the step team (Steps, ForSteps): a stepped kernel —
// a loop that fans the same parts out once per step, such as a
// uniformisation sweep — runs its loop inside a team of helpers that
// lives for the loop and takes each step's parts through atomics. For is
// a team of one step.
//
// The helpers of all running teams share one budget of GOMAXPROCS−1
// slots, and no helper outlives the call that started it. A team that
// finds no free slot runs its parts on the caller, so nested parallel
// regions cannot deadlock and Workers=1 stays sequential.
package parallel

import (
	"runtime"
	"sync/atomic"
)

// Resolve maps a Workers option value to an effective worker count:
// 0 (the default) means runtime.GOMAXPROCS(0), the cores a team can draw
// its helpers from, negative values clamp to 1, and positive values are
// used as given.
func Resolve(workers int) int {
	if workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		return 1
	}
	return workers
}

// chunks counts every part of every step of a team of two or more parts —
// the work-partition dimension the observability layer reports. Global and
// monotonic; consumers snapshot it into a gauge (parts of a one-part team
// run inline and are not counted).
var chunks atomic.Int64

// ChunkCount returns the cumulative number of parts run by steps of teams
// of two or more parts (Steps, ForSteps and For) across the process.
func ChunkCount() int64 { return chunks.Load() }

// For splits the index range [0, n) into at most `workers` contiguous
// chunks of equal ceiling size and calls fn(lo, hi) for each chunk,
// possibly concurrently. The chunk boundaries depend only on (workers, n),
// so any fn whose per-index results are independent of the partition
// (e.g. row-partitioned matrix kernels) produces bitwise-identical output
// for every workers value. workers is passed through Resolve; with an
// effective worker count of 1, or n <= 1, fn runs inline on the caller.
// For is ForSteps with a loop of one step.
func For(workers, n int, fn func(lo, hi int)) {
	ForSteps(workers, n, fn, func(step func()) { step() })
}

// chunking returns For's chunk size and chunk count for (workers, n): at
// most Resolve(workers) chunks of ceil(n/w) indices, none empty; (0, 0)
// for n <= 0.
func chunking(workers, n int) (size, parts int) {
	if n <= 0 {
		return 0, 0
	}
	w := min(Resolve(workers), n)
	size = (n + w - 1) / w
	return size, (n + size - 1) / size
}
