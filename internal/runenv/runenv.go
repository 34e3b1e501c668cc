// Package runenv holds the run settings shared by the uniformisation
// sweeps (transient) and the three P3 procedures (sericola, erlang through
// transient, discretise): how many workers a procedure may fan out to,
// where its scratch vectors come from and where its numerics signals go.
// Each procedure's Options embeds one Env, and core.Checker assembles one
// Env per checker and hands it to every procedure whole.
package runenv

import (
	"github.com/performability/csrl/internal/obs"
	"github.com/performability/csrl/internal/sparse"
)

// Env is the run environment of one numerical procedure call. The zero
// value runs at GOMAXPROCS workers, allocates plainly and records nothing.
type Env struct {
	// Workers bounds the parallelism of a procedure's fan-out:
	// 0 = runtime.GOMAXPROCS(0), 1 = sequential. Every fan-out partitions
	// its work so that each result's arithmetic runs in the sequential
	// order, so results are bitwise independent of Workers.
	Workers int
	// Pool, when non-nil, supplies the scratch vectors of a procedure
	// (sweep iterates, Sericola band tensors, discretisation grids); nil
	// degrades to plain allocation. A procedure puts its scratch back
	// before it returns; each function states who owns the vectors it
	// returns.
	Pool *sparse.VecPool
	// Obs, when non-nil, receives the numerics-observability signals of a
	// procedure: its error-budget ledger charges, counters, gauges and
	// spans. Nil (the default) reduces the instrumentation to pointer
	// comparisons.
	Obs *obs.Recorder
}
