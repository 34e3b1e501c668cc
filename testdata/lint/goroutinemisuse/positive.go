// Positive cases for the goroutinemisuse analyzer: raw go statements,
// wg.Add in the spawned body, parallel regions entered under a lock, and
// regions nested inside worker bodies.
package fake

import (
	"sync"

	"github.com/performability/csrl/internal/parallel"
)

func rawGo(ch chan int) {
	go func() { ch <- 1 }() // want "raw go statement"
}

func addInside(n int, work func()) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		go func() { // want "raw go statement"
			wg.Add(1) // want "wg.Add inside the spawned goroutine"
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
}

var mu sync.Mutex

func underLock(xs []float64) {
	mu.Lock()
	defer mu.Unlock()
	parallel.For(0, len(xs), func(lo, hi int) { // want "parallel region entered while holding mu"
		for i := lo; i < hi; i++ {
			xs[i] *= 2
		}
	})
}

func nested(xs []float64) {
	parallel.For(0, len(xs), func(lo, hi int) {
		parallel.For(0, hi-lo, func(int, int) {}) // want "nested inside a worker body"
	})
}

func teamUnderLock(xs []float64) {
	mu.Lock()
	defer mu.Unlock()
	parallel.Steps(2, func(i int) { // want "parallel region entered while holding mu"
		xs[i] *= 2
	}, func(step func()) {
		step()
	})
}
