// Pool-discipline shapes the poolescape analyzer must accept: ping-pong
// moves, ownership transfer through returns, escapes into structures the
// caller owns, and shared buffers captured by worker closures.
package fake

import (
	"errors"

	"github.com/performability/csrl/internal/sparse"
)

// pingPong swaps two live buffers each iteration — a parallel assignment is
// a move, not a leak — and Puts both before transferring the result out.
func pingPong(p *sparse.VecPool, n, iters int) []float64 {
	cur := p.Get(n)
	next := p.Get(n)
	for i := 0; i < iters; i++ {
		for j := range next {
			next[j] = cur[j] * 0.5
		}
		cur, next = next, cur
	}
	out := make([]float64, n)
	copy(out, cur)
	p.Put(cur)
	p.Put(next)
	return out
}

// transferOut hands ownership to the caller by returning the buffer: the
// Put obligation moves with it.
func transferOut(p *sparse.VecPool, n int) []float64 {
	buf := p.Get(n)
	for i := range buf {
		buf[i] = 1
	}
	return buf
}

// siblingErr receives a pool-born buffer and an error from the same call:
// when the error is non-nil the callee never handed a buffer over, so the
// early return owes nothing, and the success path Puts as usual.
func siblingErr(p *sparse.VecPool, n int) (float64, error) {
	buf, err := bornOrErr(p, n)
	if err != nil {
		return 0, err
	}
	total := 0.0
	for _, v := range buf {
		total += v
	}
	p.Put(buf)
	return total, nil
}

func bornOrErr(p *sparse.VecPool, n int) ([]float64, error) {
	if n <= 0 {
		return nil, errors.New("empty")
	}
	return p.Get(n), nil
}

type rowHolder struct {
	row []float64
}

// escapeToField stores the buffer into a structure that outlives the call:
// ownership escapes the function and the analyzer stops tracking it.
func escapeToField(p *sparse.VecPool, h *rowHolder, n int) {
	row := p.Get(n)
	h.row = row
}

// sharedWorker lends the buffer to a goroutine closure: the buffer is
// shared, the closure is trusted, and the Put after the work still counts.
func sharedWorker(p *sparse.VecPool, n int) float64 {
	buf := p.Get(n)
	done := make(chan struct{})
	go func() {
		for i := range buf {
			buf[i] = float64(i)
		}
		close(done)
	}()
	<-done
	total := buf[0]
	p.Put(buf)
	return total
}

// aliasInLoop lends the buffer to a second name on some iterations, the
// shape of a sweep that accumulates only inside its window: a plain alias
// is not an ownership move, so reassigning the alias leaks nothing, and
// the return through the first name hands the buffer to the caller.
func aliasInLoop(p *sparse.VecPool, n, steps, from int) []float64 {
	acc := p.Get(n)
	for step := 0; step < steps; step++ {
		var stepAcc []float64
		if step >= from {
			stepAcc = acc
		}
		addTo(stepAcc, float64(step))
	}
	return acc
}

// aliasOutlivesOverwrite rebinds the first name while an alias still
// holds the buffer, and Puts it through the alias.
func aliasOutlivesOverwrite(p *sparse.VecPool, n int) float64 {
	buf := p.Get(n)
	keep := buf
	buf = nil
	total := keep[0]
	p.Put(keep)
	return total
}

// declaredAlias binds the alias in a var declaration.
func declaredAlias(p *sparse.VecPool, n int) float64 {
	buf := p.Get(n)
	var keep = buf
	buf = nil
	total := keep[0]
	p.Put(keep)
	return total
}

func addTo(dst []float64, v float64) {
	for i := range dst {
		dst[i] += v
	}
}
