// Pool-discipline violations: borrowed buffers that miss their Put on
// some path out of the function.
package fake

import (
	"errors"

	"github.com/performability/csrl/internal/sparse"
)

// earlyReturnLeak drops the buffer on the early error return — the exact
// shape of the Sericola clamp-path leak.
func earlyReturnLeak(p *sparse.VecPool, n int) error {
	buf := p.Get(n) // want "not returned to the pool"
	for i := range buf {
		if buf[i] < 0 {
			return errors.New("negative")
		}
	}
	p.Put(buf)
	return nil
}

// neverPut walks off the end of the function with the buffer live.
func neverPut(p *sparse.VecPool, n int) {
	buf := p.Get(n) // want "not returned to the pool"
	for i := range buf {
		buf[i] = 0
	}
}

// overwritten re-Gets into the same variable while the first buffer is
// still live: the first buffer can never be Put again.
func overwritten(p *sparse.VecPool, n int) {
	buf := p.Get(n) // want "overwritten while still live"
	buf = p.Get(2 * n)
	p.Put(buf)
}

// calleeBorn receives a pool-born buffer from a helper and drops it on the
// success path (the error path legitimately propagates the sibling error).
func calleeBorn(p *sparse.VecPool, n int) (float64, error) {
	buf, err := helperBorn(p, n) // want "not returned to the pool"
	if err != nil {
		return 0, err
	}
	total := buf[0]
	return total, nil
}

func helperBorn(p *sparse.VecPool, n int) ([]float64, error) {
	if n <= 0 {
		return nil, errors.New("empty")
	}
	return p.Get(n), nil
}

// aliasBothOverwritten drops the buffer once every name that held it has
// been rebound: the alias does not keep it alive past its own overwrite.
func aliasBothOverwritten(p *sparse.VecPool, n int) {
	buf := p.Get(n) // want "overwritten while still live"
	view := buf
	buf = nil
	view = p.Get(n)
	p.Put(view)
}

// aliasNeverPut hands the buffer to an alias and drops both.
func aliasNeverPut(p *sparse.VecPool, n int) {
	buf := p.Get(n) // want "not returned to the pool"
	view := buf
	view[0] = 1
}

// aliasRedeclared swaps the buffer into a loop-scoped name, which the
// next iteration's declaration resets to nil before the swap hands it
// back.
func aliasRedeclared(p *sparse.VecPool, n int) {
	buf := p.Get(n) // want "overwritten while still live"
	for {
		var view []float64
		view, buf = buf, view
		view[0] = 1
	}
}
