// An options struct that embeds the pool in a run environment still puts
// the pool in reach: a function that only passes the options along owes a
// Put for a callee-born buffer.
package fake

import "github.com/performability/csrl/internal/sparse"

type env struct {
	Workers int
	Pool    *sparse.VecPool
}

type options struct {
	Epsilon float64
	env
}

func bornFrom(opts options, n int) []float64 {
	return opts.Pool.Get(n)
}

// embeddedLeak drops the callee-born buffer although opts carries the
// pool through its embedded env.
func embeddedLeak(opts options, n int) float64 {
	buf := bornFrom(opts, n) // want "not returned to the pool"
	total := buf[0]
	return total
}

// embeddedPut gives the buffer back through the promoted field.
func embeddedPut(opts options, n int) float64 {
	buf := bornFrom(opts, n)
	total := buf[0]
	opts.Pool.Put(buf)
	return total
}
