// Package parallel provides a small bounded worker pool shared by the
// numerical kernels. It depends only on the standard library (sync,
// runtime) and is safe to use from nested parallel regions: submission
// never blocks (tasks run inline on the caller when the queue is full)
// and waiters help drain the queue, so the pool cannot deadlock even
// when every worker is itself waiting on subtasks.
//
// The pool is global and lazily started: the first parallel call spawns
// runtime.NumCPU() daemon goroutines that live for the remainder of the
// process. Workers idle on a channel receive and consume no CPU between
// calls. Do and For serve one-shot fan-outs.
//
// A stepped kernel — a loop that fans the same parts out once per step,
// such as a uniformisation sweep — runs its loop inside Steps or
// ForSteps instead: a team of helpers that lives for the loop and takes
// each step's parts through atomics, so a step pays no channel hand-off
// and no wake-up of a parked worker. The helpers of all running teams
// share one budget of GOMAXPROCS−1 slots.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Resolve maps a Workers option value to an effective worker count:
// 0 (the default) means runtime.NumCPU(), negative values clamp to 1,
// and positive values are used as given.
func Resolve(workers int) int {
	if workers == 0 {
		return runtime.NumCPU()
	}
	if workers < 1 {
		return 1
	}
	return workers
}

var (
	startOnce sync.Once
	queue     chan func()
	// chunks counts every task dispatched by a multi-task Do and every
	// part of a team's step — the work-partition dimension the
	// observability layer reports. Global and monotonic like the pool
	// itself; consumers snapshot it into a gauge (inline single-task runs
	// are not parallel chunks and are not counted).
	chunks atomic.Int64
)

// ChunkCount returns the cumulative number of tasks dispatched by
// multi-task Do calls across the process, including tasks that ran
// inline on the caller because the queue was full, plus every part of
// every step of a team of two or more parts (Steps).
func ChunkCount() int64 { return chunks.Load() }

func start() {
	n := runtime.NumCPU()
	queue = make(chan func(), 4*n)
	for i := 0; i < n; i++ {
		go func() {
			for task := range queue {
				task()
			}
		}()
	}
}

// Do runs the given tasks, possibly concurrently, and returns when all of
// them have completed. Tasks that cannot be handed to an idle slot of the
// global queue run inline on the caller, so Do never blocks on submission
// and degrades gracefully to sequential execution under load or on a
// single-core machine.
func Do(tasks ...func()) {
	switch len(tasks) {
	case 0:
		return
	case 1:
		tasks[0]()
		return
	}
	chunks.Add(int64(len(tasks)))
	startOnce.Do(start)
	var wg sync.WaitGroup
	// Keep the last task for the caller: it would otherwise idle in Wait.
	for _, task := range tasks[:len(tasks)-1] {
		task := task
		wg.Add(1)
		wrapped := func() {
			defer wg.Done()
			task()
		}
		select {
		case queue <- wrapped:
		default:
			// Queue full: run inline rather than block. This is what makes
			// nested parallel regions deadlock-free.
			wrapped()
		}
	}
	tasks[len(tasks)-1]()
	// Help drain the queue before blocking: a worker waiting here may be
	// the only goroutine able to execute the subtasks it is waiting for.
	for {
		select {
		case task := <-queue:
			task()
		default:
			wg.Wait()
			return
		}
	}
}

// For splits the index range [0, n) into at most `workers` contiguous
// chunks of equal ceiling size and calls fn(lo, hi) for each chunk,
// possibly concurrently. The chunk boundaries depend only on (workers, n),
// so any fn whose per-index results are independent of the partition
// (e.g. row-partitioned matrix kernels) produces bitwise-identical output
// for every workers value. workers is passed through Resolve; with an
// effective worker count of 1, or n <= 1, fn runs inline on the caller.
func For(workers, n int, fn func(lo, hi int)) {
	size, parts := chunking(workers, n)
	switch parts {
	case 0:
		return
	case 1:
		fn(0, n)
		return
	}
	tasks := make([]func(), parts)
	for c := range tasks {
		lo := c * size
		hi := min(lo+size, n)
		tasks[c] = func() { fn(lo, hi) }
	}
	Do(tasks...)
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
