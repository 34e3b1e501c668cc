// Negative cases for the goroutinemisuse analyzer: fan-out through For,
// Add-before-spawn, inner regions forced sequential, locks released before
// the region, and an explicitly suppressed raw goroutine.
package fake

import (
	"sync"

	"github.com/performability/csrl/internal/parallel"
)

func fannedOut(xs []float64) {
	parallel.For(0, len(xs), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			xs[i] *= 2
		}
	})
}

func addBefore(n int, work func()) {
	var wg sync.WaitGroup
	wg.Add(n)
	parallel.Steps(n, func(int) {
		defer wg.Done()
		work()
	}, func(step func()) { step() })
	wg.Wait()
}

func nestedSequential(xs []float64) {
	parallel.For(0, len(xs), func(lo, hi int) {
		parallel.For(1, hi-lo, func(a, b int) {
			for i := a; i < b; i++ {
				xs[lo+i] *= 2
			}
		})
	})
}

var mu2 sync.Mutex

func lockReleasedFirst(xs []float64) {
	mu2.Lock()
	n := len(xs)
	mu2.Unlock()
	parallel.For(0, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			xs[i] *= 2
		}
	})
}

func suppressedRawGo(ch chan int) {
	go func() { ch <- 1 }() //lint:ignore goroutinemisuse benchmark harness needs an untracked goroutine
}
