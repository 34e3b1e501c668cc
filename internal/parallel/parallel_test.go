package parallel

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

func TestResolve(t *testing.T) {
	if got, want := Resolve(0), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("Resolve(0) = %d, want GOMAXPROCS = %d", got, want)
	}
	if got := Resolve(1); got != 1 {
		t.Errorf("Resolve(1) = %d, want 1", got)
	}
	if got := Resolve(7); got != 7 {
		t.Errorf("Resolve(7) = %d, want 7", got)
	}
	if got := Resolve(-3); got != 1 {
		t.Errorf("Resolve(-3) = %d, want 1", got)
	}
	// With one scheduling core a team has no helper, so Workers 0 cuts
	// one part whatever the host's core count.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if got := Resolve(0); got != 1 {
		t.Errorf("Resolve(0) = %d at GOMAXPROCS 1, want 1", got)
	}
}

func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 8, 64} {
		for _, n := range []int{0, 1, 2, 7, 64, 1000} {
			hits := make([]int64, n)
			For(workers, n, func(lo, hi int) {
				if lo < 0 || hi > n || lo >= hi {
					t.Errorf("workers=%d n=%d: bad chunk [%d,%d)", workers, n, lo, hi)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt64(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, h)
				}
			}
		}
	}
}

// TestForChunkingIsDeterministic pins the chunk boundaries of For and of
// every step of a multi-step ForSteps: they depend only on (workers, n).
func TestForChunkingIsDeterministic(t *testing.T) {
	cases := []struct {
		workers, n int
		want       [][2]int
	}{
		{4, 103, [][2]int{{0, 26}, {26, 52}, {52, 78}, {78, 103}}},
		{4, 9, [][2]int{{0, 3}, {3, 6}, {6, 9}}},
		{3, 7, [][2]int{{0, 3}, {3, 6}, {6, 7}}},
		{8, 3, [][2]int{{0, 1}, {1, 2}, {2, 3}}},
		{1, 5, [][2]int{{0, 5}}},
		{-2, 5, [][2]int{{0, 5}}},
		{4, 0, nil},
	}
	var mu sync.Mutex
	var got [][2]int
	record := func(lo, hi int) {
		mu.Lock()
		got = append(got, [2]int{lo, hi})
		mu.Unlock()
	}
	sorted := func() [][2]int {
		slices.SortFunc(got, func(a, b [2]int) int { return a[0] - b[0] })
		return got
	}
	for _, c := range cases {
		got = nil
		For(c.workers, c.n, record)
		if s := sorted(); !slices.Equal(s, c.want) {
			t.Errorf("For(%d, %d) chunks %v, want %v", c.workers, c.n, s, c.want)
		}
		ForSteps(c.workers, c.n, record, func(step func()) {
			for s := 0; s < 3; s++ {
				got = nil
				step()
				if g := sorted(); !slices.Equal(g, c.want) {
					t.Errorf("ForSteps(%d, %d) step %d chunks %v, want %v", c.workers, c.n, s, g, c.want)
				}
			}
		})
	}
}

// TestForHelpersExit pins For's lifetime: no helper outlives the call,
// whether every chunk returns or one panics, and a chunk's panic reaches
// For's caller whichever goroutine ran the chunk.
func TestForHelpersExit(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const chunk = 64
	for bad := -1; bad < 4; bad++ {
		base := runtime.NumGoroutine()
		var got any
		func() {
			defer func() { got = recover() }()
			For(4, 4*chunk, func(lo, hi int) {
				if lo/chunk == bad {
					panic(fmt.Sprint("chunk ", bad))
				}
			})
		}()
		var want any
		if bad >= 0 {
			want = fmt.Sprint("chunk ", bad)
		}
		if got != want {
			t.Fatalf("recovered %v, want %v", got, want)
		}
		goroutinesSettle(t, base)
	}
}

func TestNestedForDoesNotDeadlock(t *testing.T) {
	// Oversubscribe deliberately: each outer chunk enters an inner For
	// while the outer team holds the helper budget. An inner team that
	// finds no free slot runs its parts on its caller, so nothing waits
	// on a helper that cannot start.
	var total int64
	outer := 4 * runtime.GOMAXPROCS(0)
	For(0, outer, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			For(0, 100, func(ilo, ihi int) {
				atomic.AddInt64(&total, int64(ihi-ilo))
			})
		}
	})
	if total != int64(outer*100) {
		t.Fatalf("nested For ran %d inner indices, want %d", total, outer*100)
	}
}

func TestConcurrentDoCallers(t *testing.T) {
	// Many goroutines entering For at once (as ReachProbAll's fan-out
	// beside other kernels will), sharing the helper budget; mostly a
	// -race exercise.
	var wg sync.WaitGroup
	var total int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			For(0, 500, func(lo, hi int) {
				atomic.AddInt64(&total, int64(hi-lo))
			})
		}()
	}
	wg.Wait()
	if total != 8*500 {
		t.Fatalf("concurrent callers covered %d indices, want %d", total, 8*500)
	}
}
