// Package core implements the CSRL model checker of the paper (Section 3):
// the recursive computation of satisfaction sets Sat(Φ) over a Markov
// reward model, with the numerical procedures of Section 4 plugged in for
// time- and reward-bounded until formulas:
//
//   - P0 (no bounds):        graph precomputation + linear equation system
//   - P1 (time bound):       transient analysis of a transformed MRM [3]
//   - P2 (reward bound):     duality transformation [4] + P1
//   - P3 (both bounds):      Theorem 1 reduction + one of the pseudo-Erlang,
//     discretisation, or occupation-time procedures
//
// Nesting of state and path formulas is supported throughout, as is the
// steady-state operator and (beyond the paper's evaluation) time intervals
// [t₁,t₂] for time-only bounded until and fully general intervals for the
// next operator.
package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"github.com/performability/csrl/internal/discretise"
	"github.com/performability/csrl/internal/duality"
	"github.com/performability/csrl/internal/erlang"
	"github.com/performability/csrl/internal/graph"
	"github.com/performability/csrl/internal/logic"
	"github.com/performability/csrl/internal/lump"
	"github.com/performability/csrl/internal/mrm"
	"github.com/performability/csrl/internal/numeric"
	"github.com/performability/csrl/internal/obs"
	"github.com/performability/csrl/internal/parallel"
	"github.com/performability/csrl/internal/sericola"
	"github.com/performability/csrl/internal/sparse"
	"github.com/performability/csrl/internal/steady"
	"github.com/performability/csrl/internal/transient"
)

// Algorithm selects the procedure for P3-type (time- and reward-bounded)
// until formulas.
type Algorithm int

// The three computational procedures of Section 4.
const (
	// AlgSericola is the occupation-time distribution method (§4.4) — the
	// default, being the only one with an a-priori error bound.
	AlgSericola Algorithm = iota + 1
	// AlgErlang is the pseudo-Erlang approximation (§4.2).
	AlgErlang
	// AlgDiscretise is the Tijms–Veldman discretisation (§4.3).
	AlgDiscretise
)

// String names the algorithm as in the paper.
func (a Algorithm) String() string {
	switch a {
	case AlgSericola:
		return "occupation-time"
	case AlgErlang:
		return "pseudo-erlang"
	case AlgDiscretise:
		return "discretisation"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// LumpMode controls automatic lumping. A top-level P over a time-bounded
// until with propositional operands lumps the until's Theorem-1 view: the
// model with Ψ and ¬(Φ∨Ψ) absorbing, quotiented respecting Ψ
// (reducedFor). Every other formula goes through the pre-pass of the
// exported checking entry points: the checker computes the
// ordinary-lumpability quotient respecting only the formula's atomic
// propositions and evaluates on the quotient. Either way verdicts and
// probabilities are lifted back through the block map, and a query
// partitions the full model at most once. The zero value enables lumping,
// so existing Options literals pick it up automatically; LumpOff restores
// direct evaluation on the full model.
type LumpMode int

const (
	// LumpAuto is the default: the pre-pass is enabled.
	LumpAuto LumpMode = iota
	// LumpOff disables the pre-pass; formulas are checked on the full model.
	LumpOff
)

// enabled reports whether the mode turns the pre-pass on.
func (l LumpMode) enabled() bool { return l != LumpOff }

// lumpMaxRounds caps the refinement rounds of the automatic pre-pass.
// Refinement needs as many rounds as the distance over which rate
// differences must propagate to separate states — up to O(n) on chains.
// A round re-signs only the states of blocks with an edge into a block
// that the previous round split, so its cost follows the splits rather
// than the model size; but a model still splitting after many rounds is
// one whose differences reach far, and such models rarely lump much. A
// quotient that has not stabilised within the cap is abandoned and the
// formula is checked unlumped: the pre-pass must never cost more than the
// sweep time it could save. Explicit lump.QuotientRespecting calls remain
// uncapped.
const lumpMaxRounds = 64

// Options configures the checker.
type Options struct {
	// P3 selects the procedure for time- and reward-bounded until.
	P3 Algorithm
	// Epsilon is the accuracy for uniformisation-based computations
	// (transient analysis and the occupation-time procedure).
	Epsilon float64
	// ErlangK is the phase count for AlgErlang.
	ErlangK int
	// DiscretiseStep is the step d for AlgDiscretise; 0 derives a step
	// from the bounds t, r and the model's maximal exit rate (see
	// deriveStep).
	DiscretiseStep float64
	// Workers bounds the parallelism of the numerical procedures:
	// 0 = runtime.GOMAXPROCS(0), 1 = sequential. Every procedure's results
	// are bitwise independent of it.
	Workers int
	// Lump controls the automatic formula-dependent lumping pre-pass of
	// the exported entry points (see LumpMode). The zero value is on.
	Lump LumpMode
	// MemoCap bounds each of the checker memo's tables (reductions,
	// uniformised matrices, Fox–Glynn tables, lump outcomes); the coldest
	// entry is evicted when a table fills. 0 means the CLI-sized default
	// (64 per table); a long-running checker service raises it to keep the
	// hot tables of many recurring queries resident.
	MemoCap int
	// Truncate, when positive, enables state-drop truncation in the
	// forward uniformisation sweeps (see transient.Options.Truncate) and
	// unlocks the initial-state fast path of Check for top-level
	// time-bounded P-until formulas, which evaluates a forward sweep from
	// the initial states instead of a backward sweep over all states. The
	// dropped mass is charged to the truncation/state-drop ledger term
	// inside Epsilon. Any other value — zero (the default), negative or
	// NaN — leaves truncation off and keeps every result bitwise
	// unchanged.
	Truncate float64
	// Obs, when non-nil, collects the numerics-observability signals of
	// every procedure the checker runs: the error-budget ledger (Fox–Glynn
	// truncation masses, steady-detection tail charges, Sericola series
	// remainders, indicative scheme terms), counters, gauges and phase
	// spans. Read the aggregate with Checker.NumericsReport; nil (the
	// default) reduces the instrumentation to pointer comparisons.
	Obs *obs.Recorder
}

// DefaultOptions returns the configuration used by the test-suite.
func DefaultOptions() Options {
	return Options{
		P3:      AlgSericola,
		Epsilon: 1e-9,
		ErlangK: 256,
	}
}

// ErrUnsupported reports a formula outside the fragment with known
// computational procedures (the paper restricts I and J to intervals
// starting at 0 for until; general intervals are listed as future work).
var ErrUnsupported = errors.New("core: no computational procedure for this formula")

// Checker model-checks CSRL formulas over a fixed MRM.
//
// Concurrency contract: a Checker is safe for concurrent use by multiple
// goroutines. The model is immutable, the memo and the vector pool are
// mutex-guarded, and Options.Obs (when set) is itself race-clean. Results
// are deterministic under concurrency: every cached intermediate (reduction,
// uniformised matrix, Fox–Glynn table, lump quotient) is a pure function of
// its key, so concurrent callers observing a cached versus freshly computed
// entry get bitwise-identical numbers either way. The one shared-state
// caveat is the recorder: Options.Obs is one ledger for every call through
// this checker value, so concurrent requests that each need their own error
// budget proof must run through per-request WithRecorder views — a shared
// recorder would merge their charges and falsify the per-request Σ ≤ ε
// claim. NumericsReport and Reset on a shared recorder are likewise
// whole-checker, not per-call, operations.
type Checker struct {
	m    *mrm.MRM
	opts Options
	// memo caches Theorem 1 reductions, uniformised matrices and
	// Fox–Glynn tables across the repeated corner evaluations of
	// untilRectangle. All memo methods tolerate a nil receiver, so a
	// zero Checker literal degrades to uncached computation.
	memo *memo
	// pool recycles the scratch vectors, Sericola matrix banks and
	// discretisation grids of the numerical procedures across calls — in
	// particular across the four corner evaluations of untilRectangle.
	// VecPool is nil-receiver-safe, so a zero Checker literal degrades to
	// plain allocation.
	pool *sparse.VecPool
}

// New creates a checker for the given model.
func New(m *mrm.MRM, opts Options) *Checker {
	if opts.P3 == 0 {
		opts.P3 = AlgSericola
	}
	if opts.Epsilon <= 0 {
		opts.Epsilon = 1e-9
	}
	if opts.ErlangK <= 0 {
		opts.ErlangK = 256
	}
	return &Checker{m: m, opts: opts, memo: newMemo(opts.MemoCap), pool: sparse.NewVecPool()}
}

// Model returns the checker's model.
func (c *Checker) Model() *mrm.MRM { return c.m }

// Epsilon returns the configured accuracy the checker's procedures are
// held to (the ε of the error-budget proof).
func (c *Checker) Epsilon() float64 { return c.opts.Epsilon }

// WithRecorder returns a view of the checker that records its numerics
// signals to r while sharing the model, memo and vector pool with the
// receiver. This is the per-request handle of a concurrent checker
// service: every request gets its own recorder — hence its own error
// ledger and budget proof — while the expensive cross-request state
// (uniformised matrices, Fox–Glynn tables, lump quotients, scratch
// buffers) stays shared. The receiver is not modified. r may be nil to
// obtain an unobserved view.
func (c *Checker) WithRecorder(r *obs.Recorder) *Checker {
	cc := *c
	cc.opts.Obs = r
	return &cc
}

// MemoStats snapshots the checker memo's cumulative hit/miss/eviction
// traffic and live entry count — the cross-request cache-health surface.
// Lump-quotient sub-checkers carry their own memos; their traffic is not
// folded in here, but the lump table's own hits (one per request that
// reuses a quotient) are.
func (c *Checker) MemoStats() MemoStats { return c.memo.stats() }

// NumericsReport folds the memo and pool statistics into the configured
// recorder and returns the aggregate numerics report: the merged
// error-budget ledger checked against Options.Epsilon, plus every counter,
// gauge and span recorded since the last Reset. It returns nil when no
// recorder is configured (Options.Obs == nil).
func (c *Checker) NumericsReport() *obs.Report {
	r := c.opts.Obs
	if r == nil {
		return nil
	}
	ms := c.memo.stats()
	r.Gauge("memo.hits").Set(float64(ms.Hits))
	r.Gauge("memo.misses").Set(float64(ms.Misses))
	r.Gauge("memo.evictions").Set(float64(ms.Evictions))
	r.Gauge("memo.entries").Set(float64(ms.Entries))
	ps := c.pool.Stats()
	r.Gauge("pool.gets").Set(float64(ps.Gets))
	r.Gauge("pool.reuses").Set(float64(ps.Reuses))
	r.Gauge("pool.alloc_bytes").Set(float64(ps.AllocBytes))
	// Process-wide like the worker pool it meters; 0 when every region
	// ran inline (one effective worker or tiny ranges).
	r.Gauge("parallel.chunks").Set(float64(parallel.ChunkCount()))
	return r.Report(c.opts.Epsilon)
}

// Sat computes the satisfaction set Sat(Φ) by the bottom-up traversal of
// the parse tree described in Section 3. Unless Options.Lump is off, the
// traversal runs on a quotient (see LumpMode and prePass) and the
// returned set is lifted back to the original states.
func (c *Checker) Sat(f logic.StateFormula) (*mrm.StateSet, error) {
	q, lr := c.prePass(logic.Atoms(f), skipsLump(f))
	sat, err := q.sat(f)
	if err != nil {
		return nil, err
	}
	if lr == nil {
		return sat, nil
	}
	return lr.LiftSet(sat), nil
}

// sat is the traversal body of Sat, running on this checker's own model
// with no lumping indirection — the form every internal call site uses.
func (c *Checker) sat(f logic.StateFormula) (*mrm.StateSet, error) {
	n := c.m.N()
	switch t := f.(type) {
	case logic.True:
		return mrm.NewStateSet(n).Complement(), nil
	case logic.False:
		return mrm.NewStateSet(n), nil
	case logic.Atomic:
		return c.m.Label(t.Name), nil
	case logic.Not:
		sub, err := c.sat(t.Sub)
		if err != nil {
			return nil, err
		}
		return sub.Complement(), nil
	case logic.And:
		l, err := c.sat(t.Left)
		if err != nil {
			return nil, err
		}
		r, err := c.sat(t.Right)
		if err != nil {
			return nil, err
		}
		return l.Intersect(r), nil
	case logic.Or:
		l, err := c.sat(t.Left)
		if err != nil {
			return nil, err
		}
		r, err := c.sat(t.Right)
		if err != nil {
			return nil, err
		}
		return l.Union(r), nil
	case logic.Implies:
		l, err := c.sat(t.Left)
		if err != nil {
			return nil, err
		}
		r, err := c.sat(t.Right)
		if err != nil {
			return nil, err
		}
		return l.Complement().Union(r), nil
	case logic.Prob:
		if t.Query {
			return nil, fmt.Errorf("%w: P=? query has no satisfaction set; use Values", ErrUnsupported)
		}
		probs, err := c.pathProb(t.Path)
		if err != nil {
			return nil, err
		}
		set := mrm.NewStateSet(n)
		for s, p := range probs {
			if t.Complement {
				p = 1 - p
			}
			if t.Op.Compare(p, t.Bound) {
				set.Add(s)
			}
		}
		c.pool.Put(probs)
		return set, nil
	case logic.Steady:
		if t.Query {
			return nil, fmt.Errorf("%w: S=? query has no satisfaction set; use Values", ErrUnsupported)
		}
		probs, err := c.steadyProb(t.Sub)
		if err != nil {
			return nil, err
		}
		set := mrm.NewStateSet(n)
		for s, p := range probs {
			if t.Op.Compare(p, t.Bound) {
				set.Add(s)
			}
		}
		c.pool.Put(probs)
		return set, nil
	default:
		return nil, fmt.Errorf("core: unknown state formula %T", f)
	}
}

// Check evaluates a bounded formula against the model's initial
// distribution: it holds when every state with positive initial probability
// satisfies it. The lumping pre-pass applies as in Sat; no lift-back is
// needed, because a block carries positive initial mass exactly when one of
// its states does and inherits their common verdict.
func (c *Checker) Check(f logic.StateFormula) (bool, error) {
	q, _ := c.prePass(logic.Atoms(f), skipsLump(f))
	return q.check(f)
}

// check is the body of Check on this checker's own model. With truncation
// configured it first tries the initial-state fast path, which answers a
// top-level time-bounded P-until from the initial states alone by forward
// sweeps — without computing the satisfaction set of the whole space.
func (c *Checker) check(f logic.StateFormula) (bool, error) {
	holds, ok, err := c.checkInitFast(f)
	if err != nil {
		return false, err
	}
	if ok {
		return holds, nil
	}
	span := c.opts.Obs.StartSpan("core.sat")
	sat, err := c.sat(f)
	span.End()
	if err != nil {
		return false, err
	}
	for s, p := range c.m.InitView() {
		if p > 0 && !sat.Contains(s) {
			return false, nil
		}
	}
	return true, nil
}

// checkInitFast answers Check for a top-level P▷◁b[Φ U^[0,t] Ψ] (reward
// unbounded) when Options.Truncate is on: instead of one backward sweep
// producing Pr_s(φ) for all n start states, it runs one truncated forward
// sweep per positive-mass initial state via transient.TimeBoundedUntilFrom.
// A forward iterate is a sub-distribution, which is what makes truncation
// sound — and on models whose mass stays near the initial states, the
// active window makes the sweep cost proportional to the window, not to n.
// ok reports whether the fast path applied; when false, the caller falls
// back to the satisfaction-set route.
func (c *Checker) checkInitFast(f logic.StateFormula) (holds, ok bool, err error) {
	p, u, ok := c.initFastShape(f)
	if !ok || p.Query {
		return false, false, nil
	}
	phi, err := c.sat(u.Left)
	if err != nil {
		return false, false, err
	}
	psi, err := c.sat(u.Right)
	if err != nil {
		return false, false, err
	}
	for s, alpha := range c.m.InitView() {
		if alpha <= 0 {
			continue
		}
		pr, err := transient.TimeBoundedUntilFrom(c.m, phi, psi, s, u.Time.Hi, c.transientOpts())
		if err != nil {
			return false, false, err
		}
		if p.Complement {
			pr = 1 - pr
		}
		if !p.Op.Compare(pr, p.Bound) {
			return false, true, nil
		}
	}
	return true, true, nil
}

// initFastShape reports whether f is eligible for the truncated forward
// fast paths (checkInitFast, QueryInitial): truncation must be on and f a
// top-level P-formula over a time-bounded, reward-unbounded until whose
// time interval starts at zero — the shape TimeBoundedUntilFrom computes
// by forward sweeps over the active window.
func (c *Checker) initFastShape(f logic.StateFormula) (logic.Prob, logic.Until, bool) {
	if !(c.opts.Truncate > 0) {
		return logic.Prob{}, logic.Until{}, false
	}
	p, isProb := f.(logic.Prob)
	if !isProb {
		return logic.Prob{}, logic.Until{}, false
	}
	u, isUntil := p.Path.(logic.Until)
	if !isUntil || !u.Time.Valid() || !u.Reward.Valid() {
		return logic.Prob{}, logic.Until{}, false
	}
	if u.Time.IsUnbounded() || !u.Time.StartsAtZero() || !u.Reward.IsUnbounded() {
		return logic.Prob{}, logic.Until{}, false
	}
	return p, u, true
}

// skipsLump reports whether a top-level formula runs without the
// atom-keyed pre-pass: a P over an until with propositional operands and a
// finite time bound. Such an until lumps its own Theorem-1 view instead
// (reducedFor), which the absorbing Ψ and ¬(Φ∨Ψ) states make coarser than
// the atom quotient, and with truncation on its [0,t] form takes the
// forward fast path, which reads only the rows its windows reach.
// Operands with nested P or S formulas do numerical work over every
// state, which the atom quotient shrinks, so they keep the pre-pass, as do
// S, X and the untils without a time bound (P0 and the duality route of
// P2).
func skipsLump(f logic.StateFormula) bool {
	p, ok := f.(logic.Prob)
	if !ok {
		return false
	}
	u, ok := p.Path.(logic.Until)
	return ok && u.Time.Valid() && u.Reward.Valid() && !math.IsInf(u.Time.Hi, 1) &&
		propositional(u.Left) && propositional(u.Right)
}

// propositional reports whether f is built from atomic propositions by
// the boolean connectives alone.
func propositional(f logic.StateFormula) bool {
	switch t := f.(type) {
	case logic.True, logic.False, logic.Atomic:
		return true
	case logic.Not:
		return propositional(t.Sub)
	case logic.And:
		return propositional(t.Left) && propositional(t.Right)
	case logic.Or:
		return propositional(t.Left) && propositional(t.Right)
	case logic.Implies:
		return propositional(t.Left) && propositional(t.Right)
	default:
		return false
	}
}

// QueryInitial evaluates the numeric value of a P-formula from the initial
// distribution alone: Σ_s α(s)·Pr_s(φ), the quantity a P=? query reports
// for the initial state(s). When the truncated forward fast path applies
// (see initFastShape) the value comes from one TimeBoundedUntilFrom sweep
// per positive-mass initial state — cost proportional to the truncation
// window, not to the state count — instead of the dense all-states Values
// computation. ok reports whether the fast path applied; when false the
// caller falls back to Values (and should say so, since the fallback
// defeats the point of truncation). Like Check, it runs the lump
// pre-pass unless skipsLump holds.
func (c *Checker) QueryInitial(f logic.StateFormula) (val float64, ok bool, err error) {
	q, _ := c.prePass(logic.Atoms(f), skipsLump(f))
	return q.queryInitial(f)
}

// queryInitial is the body of QueryInitial on this checker's own model.
// No lift-back is needed: the quotient's initial distribution carries each
// block's aggregated mass and every state of a block shares its value, so
// the α-weighted sum agrees with the full model's.
func (c *Checker) queryInitial(f logic.StateFormula) (float64, bool, error) {
	p, u, ok := c.initFastShape(f)
	if !ok {
		return 0, false, nil
	}
	phi, err := c.sat(u.Left)
	if err != nil {
		return 0, false, err
	}
	psi, err := c.sat(u.Right)
	if err != nil {
		return 0, false, err
	}
	var total float64
	for s, alpha := range c.m.InitView() {
		if alpha <= 0 {
			continue
		}
		pr, err := transient.TimeBoundedUntilFrom(c.m, phi, psi, s, u.Time.Hi, c.transientOpts())
		if err != nil {
			return 0, false, err
		}
		if p.Complement {
			pr = 1 - pr
		}
		total += alpha * pr
	}
	return total, true, nil
}

// Values returns the per-state numeric value behind a probabilistic or
// steady-state formula: the path probability for P-formulas (query or
// bounded — the bound is ignored) and the long-run probability for
// S-formulas. Boolean-level formulas have no numeric value. The lumping
// pre-pass applies as in Sat — every state of a block receives its block's
// value — and the returned slice is a plain allocation owned by the caller.
func (c *Checker) Values(f logic.StateFormula) ([]float64, error) {
	q, lr := c.prePass(logic.Atoms(f), skipsLump(f))
	vals, err := q.values(f)
	if err != nil {
		return nil, err
	}
	return q.liftOut(lr, vals), nil
}

// values is the body of Values on this checker's own model. The returned
// buffer may be pool-borrowed; the caller puts it back.
func (c *Checker) values(f logic.StateFormula) ([]float64, error) {
	switch t := f.(type) {
	case logic.Prob:
		probs, err := c.pathProb(t.Path)
		if err != nil {
			return nil, err
		}
		if t.Complement {
			for i, p := range probs {
				probs[i] = 1 - p
			}
		}
		return probs, nil
	case logic.Steady:
		return c.steadyProb(t.Sub)
	default:
		return nil, fmt.Errorf("%w: %s is not a P=?/S=? query", ErrUnsupported, f)
	}
}

// PathProb returns Pr_s(φ) for every state s. The lumping pre-pass applies
// as in Sat, respecting the atoms of the path formula's state subformulas.
// The returned slice is a plain allocation owned by the caller: the
// internal procedures hand back buffers borrowed from the checker's vector
// pool, and this exported boundary copies (or lifts) them out and checks
// the borrowed buffer back in, so callers outside the package never hold
// (or leak) pooled memory.
func (c *Checker) PathProb(f logic.PathFormula) ([]float64, error) {
	// Pr_s(φ) is the value of the query P=? [φ], so it skips the pre-pass
	// when that query would.
	q, lr := c.prePass(logic.PathAtoms(f), skipsLump(logic.Prob{Path: f}))
	vals, err := q.pathProb(f)
	if err != nil {
		return nil, err
	}
	return q.liftOut(lr, vals), nil
}

// UntilProbBatch computes Pr_s(Φ U^{[0,t]}_{[0,r_i]} Ψ) for every state s
// and a batch of reward bounds r_i sharing one time bound t. One Theorem 1
// reduction serves the whole batch, and with the Sericola procedure every
// bound advances through a single recursion over the memoised uniformised
// matrix (untilTimeRewardBatch) — one matrix sweep for the lot instead of
// one per bound. This is the admission surface a concurrent checker
// service coalesces same-model queries onto: requests that differ only in
// their reward bound ride one numerical computation. results[i] is
// bitwise-identical to PathProb of the corresponding single until. The
// lumping pre-pass applies as in Sat, and each returned slice is a plain
// caller-owned allocation.
func (c *Checker) UntilProbBatch(left, right logic.StateFormula, t float64, rs []float64) ([][]float64, error) {
	if len(rs) == 0 {
		return nil, fmt.Errorf("core: until batch: no reward bounds")
	}
	if t < 0 || math.IsNaN(t) || math.IsInf(t, 0) {
		return nil, fmt.Errorf("core: until batch: invalid time bound %v", t)
	}
	for _, r := range rs {
		if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return nil, fmt.Errorf("core: until batch: invalid reward bound %v", r)
		}
	}
	// The bounds are finite, so the batch skips the pre-pass exactly when
	// skipsLump would for each of its untils.
	atoms := append(logic.Atoms(left), logic.Atoms(right)...)
	q, lr := c.prePass(atoms, propositional(left) && propositional(right))
	phi, err := q.sat(left)
	if err != nil {
		return nil, err
	}
	psi, err := q.sat(right)
	if err != nil {
		return nil, err
	}
	outs, err := q.untilTimeRewardBatch(phi, psi, t, rs)
	if err != nil {
		return nil, err
	}
	lifted := make([][]float64, len(outs))
	for i, v := range outs {
		lifted[i] = q.liftOut(lr, v)
	}
	return lifted, nil
}

// pathProb is the body of PathProb on this checker's own model. The
// returned buffer may be pool-borrowed; the caller puts it back.
func (c *Checker) pathProb(f logic.PathFormula) ([]float64, error) {
	switch t := f.(type) {
	case logic.Next:
		return c.probNext(t)
	case logic.Until:
		return c.probUntil(t)
	default:
		return nil, fmt.Errorf("core: unknown path formula %T", f)
	}
}

// liftOut converts an internal (possibly pool-borrowed) result vector into
// the caller-owned allocation of the exported boundary: lifted through the
// lump result when the pre-pass ran, copied verbatim otherwise.
func (c *Checker) liftOut(lr *lump.Result, vals []float64) []float64 {
	var out []float64
	if lr != nil {
		out = lr.Lift(vals)
	} else {
		out = make([]float64, len(vals))
		copy(out, vals)
	}
	c.pool.Put(vals)
	return out
}

// steadyProb returns the long-run probability of residing in Sat(Φ) for
// every start state. Ordinary lumpability makes the block process Markov
// for every start state, so on a quotient the long-run fraction spent in a
// union of blocks lifts exactly.
func (c *Checker) steadyProb(f logic.StateFormula) ([]float64, error) {
	sat, err := c.sat(f)
	if err != nil {
		return nil, err
	}
	return steady.Probabilities(c.m, sat)
}

// lumps reports whether this checker lumps: lumping is on, there is a memo
// to keep the quotients in, and the model has no impulse rewards (which
// lump refuses).
func (c *Checker) lumps() bool {
	return c.opts.Lump.enabled() && c.memo != nil && !c.m.HasImpulses()
}

// prePass runs the automatic lumping pre-pass for a top-level formula
// over the given atoms: it lumps the model respecting them and returns the
// checker to evaluate the formula on and, when the lump produced a proper
// quotient, the lump result to lift verdicts back through (nil when
// evaluation runs on c's model). When skip holds (skipsLump of the
// formula) it returns c itself, whose until then lumps its Theorem-1 view
// (reducedFor). Outcomes are memoised per sorted
// atom set, so one quotient serves every formula over the same
// propositions; the quotient sub-checker owns its own memo and pool,
// keyed to the quotient model, and shares the Obs recorder. Neither the
// sub-checker nor the view of c returned when the lump declines lumps
// again, so nested untils never partition the model a second time.
func (c *Checker) prePass(atoms []string, skip bool) (*Checker, *lump.Result) {
	if skip || !c.lumps() {
		return c, nil
	}
	slices.Sort(atoms)
	atoms = slices.Compact(atoms)
	key := lumpKey{atoms: strings.Join(atoms, "\x00")}
	entry := c.memo.lump(key, func() *lumpEntry {
		return c.buildLump(c.m.N(), func() (*lump.Result, error) {
			return lump.QuotientLimited(c.m, atoms, lumpMaxRounds)
		})
	})
	if entry.sub == nil {
		cc := *c
		cc.opts.Lump = LumpOff
		return &cc, nil
	}
	return entry.checker(c.opts.Obs), entry.res
}

// reducedFor returns the lumped Theorem-1 view of Φ U Ψ, given
// phi = Sat(Φ) and psi = Sat(Ψ): the model with Ψ and ¬(Φ∨Ψ) absorbing
// with reward zero, quotiented respecting Ψ (lump.QuotientAbsorbing). It
// returns a sub-checker on the quotient and the memo entry with the block
// map and the operands on the quotient, or nils when this checker does not
// lump or the lump declined. Entries are memoised under (Sat(Φ), Sat(Ψ)),
// so untils whose operands denote the same sets share one quotient
// whatever their syntax, bounds and procedure.
//
// The quotient pays only where it merges states that the Theorem 1
// reduction keeps apart, so it counts as trivial unless it is smaller
// than that reduction: one state per Φ∧¬Ψ state, a goal state and, when
// ¬(Φ∨Ψ) is not empty, a fail state.
func (c *Checker) reducedFor(phi, psi *mrm.StateSet) (*Checker, *lumpEntry) {
	if !c.lumps() {
		return nil, nil
	}
	key := lumpKey{phi: phi.Key(), psi: psi.Key()}
	entry := c.memo.lump(key, func() *lumpEntry {
		reduction := phi.Minus(psi).Len() + 1
		if !phi.Union(psi).Complement().IsEmpty() {
			reduction++
		}
		e := c.buildLump(reduction, func() (*lump.Result, error) {
			return lump.QuotientAbsorbing(c.m, phi.Complement().Union(psi), psi, lumpMaxRounds)
		})
		if e.sub != nil {
			e.phi, e.psi = blockSet(e.res, phi), blockSet(e.res, psi)
		}
		return e
	})
	if entry.sub == nil {
		return nil, nil
	}
	return entry.checker(c.opts.Obs), entry
}

// blockSet returns the blocks whose first state is in set. The view's
// partition respects Ψ, so Ψ lifts exactly. A block can mix Φ and ¬Φ
// states only when none of them leaves the block, a zero-reward absorbing
// block outside Ψ whose value is 0 whether it counts as Φ or not.
func blockSet(res *lump.Result, set *mrm.StateSet) *mrm.StateSet {
	out := mrm.NewStateSet(len(res.Blocks))
	for b, members := range res.Blocks {
		if set.Contains(members[0]) {
			out.Add(b)
		}
	}
	return out
}

// lift maps a vector over the quotient of e, borrowed from q's pool, onto
// this checker's states in a buffer from c's pool, and gives the quotient
// vector back.
func (c *Checker) lift(e *lumpEntry, q *Checker, vals []float64) []float64 {
	out := c.pool.Get(c.m.N())
	for s, b := range e.res.BlockOf {
		out[s] = vals[b]
	}
	q.pool.Put(vals)
	return out
}

// buildLump computes one lump outcome: the capped quotient and its
// sub-checker, or a zero entry when lumping declines — capped refinement
// (ErrRoundsExceeded) or a trivial quotient, one of at least trivialAt
// blocks, where the indirection would cost without saving. Both declines
// are safe: the formula is simply checked on the full model.
func (c *Checker) buildLump(trivialAt int, quotient func() (*lump.Result, error)) *lumpEntry {
	span := c.opts.Obs.StartSpan("core.lump")
	res, err := quotient()
	span.End()
	if err != nil {
		if c.opts.Obs != nil {
			c.opts.Obs.Counter("lump.declined").Inc()
		}
		return &lumpEntry{}
	}
	if c.opts.Obs != nil {
		c.opts.Obs.Gauge("lump.states").SetMax(float64(c.m.N()))
		c.opts.Obs.Gauge("lump.blocks").SetMax(float64(res.Model.N()))
	}
	if res.Model.N() >= trivialAt {
		if c.opts.Obs != nil {
			c.opts.Obs.Counter("lump.trivial").Inc()
		}
		return &lumpEntry{}
	}
	subOpts := c.opts
	// The cached entry outlives this request: a baked-in recorder would
	// funnel every later request's charges into the builder's ledger, so
	// the sub-checker is stored recorder-free and lumpEntry.checker grafts
	// the caller's recorder on per use.
	subOpts.Obs = nil
	// The query has partitioned the model; the quotient is not lumped
	// again.
	subOpts.Lump = LumpOff
	sub := New(res.Model, subOpts)
	return &lumpEntry{res: res, sub: sub}
}

// probNext computes Pr_s(X^I_J Φ) in closed form: the single jump must land
// in Sat(Φ) at a time T ~ Exp(E(s)) with T ∈ I and ρ(s)·T ∈ J, i.e. T in
// the intersection of I with J/ρ(s). General (non-zero-origin) intervals
// are supported — the paper's future-work extension is straightforward for
// the next operator.
func (c *Checker) probNext(nx logic.Next) ([]float64, error) {
	if !nx.Time.Valid() || !nx.Reward.Valid() {
		return nil, fmt.Errorf("%w: invalid interval in %s", ErrUnsupported, nx)
	}
	sat, err := c.sat(nx.Sub)
	if err != nil {
		return nil, err
	}
	n := c.m.N()
	out := make([]float64, n)
	for s := 0; s < n; s++ {
		e := c.m.ExitRate(s)
		if e == 0 {
			continue // absorbing: no next state
		}
		lo, hi := nx.Time.Lo, nx.Time.Hi
		switch rho := c.m.Reward(s); {
		case rho > 0:
			lo = math.Max(lo, nx.Reward.Lo/rho)
			hi = math.Min(hi, nx.Reward.Hi/rho)
		case nx.Reward.Lo > 0:
			continue // zero reward rate can never reach a positive bound
		}
		if lo > hi {
			continue
		}
		wLo, err := expNeg(e * lo)
		if err != nil {
			return nil, fmt.Errorf("core: next window at state %d: %w", s, err)
		}
		wHi, err := expNeg(e * hi)
		if err != nil {
			return nil, fmt.Errorf("core: next window at state %d: %w", s, err)
		}
		window := wLo - wHi
		var hit float64
		c.m.Rates().Row(s, func(tgt int, v float64) {
			if sat.Contains(tgt) {
				hit += v
			}
		})
		out[s] = (hit / e) * window
	}
	return out, nil
}

// expNeg returns e^{-x}, mapping x = +∞ to its exact limit 0. A NaN
// argument is an error: math.Exp would propagate it silently into the
// probability vector, where it poisons every comparison downstream (NaN
// fails all threshold tests, so a Sat set would quietly come out empty).
func expNeg(x float64) (float64, error) {
	if math.IsNaN(x) {
		return 0, fmt.Errorf("core: exponent is NaN")
	}
	if math.IsInf(x, 1) {
		return 0, nil
	}
	return math.Exp(-x), nil
}

// probUntil dispatches Φ U^I_J Ψ to the procedure matching its bounds.
func (c *Checker) probUntil(u logic.Until) ([]float64, error) {
	if !u.Time.Valid() || !u.Reward.Valid() {
		return nil, fmt.Errorf("%w: invalid interval in %s", ErrUnsupported, u)
	}
	phi, err := c.sat(u.Left)
	if err != nil {
		return nil, err
	}
	psi, err := c.sat(u.Right)
	if err != nil {
		return nil, err
	}
	timeB, rewB := !u.Time.IsUnbounded(), !u.Reward.IsUnbounded()
	switch {
	case !timeB && !rewB:
		return c.untilUnbounded(phi, psi)
	case timeB && !rewB:
		if u.Time.StartsAtZero() {
			return c.untilTime(phi, psi, u.Time.Hi)
		}
		return c.untilTimeInterval(phi, psi, u.Time)
	case !timeB && rewB:
		if u.Reward.StartsAtZero() {
			return duality.RewardBoundedUntil(c.m, phi, psi, u.Reward.Hi,
				func(d *mrm.MRM, phi, psi *mrm.StateSet, t float64) ([]float64, error) {
					return transient.TimeBoundedUntil(d, phi, psi, t, c.transientOpts())
				})
		}
		// Reward interval [r1, r2]: the duality transform turns it into a
		// time interval on the dual model, where the exact two-phase
		// computation applies (extension; paper §6 future work).
		d, err := duality.Dual(c.m)
		if err != nil {
			return nil, err
		}
		// New (not a struct literal) so the dual checker gets its own
		// memo — cache entries are keyed to the dual model. The dual model
		// is not lumped: the query has partitioned the model already.
		dualOpts := c.opts
		dualOpts.Lump = LumpOff
		dual := New(d, dualOpts)
		return dual.untilTimeInterval(phi, psi, u.Reward)
	default:
		if u.Time.StartsAtZero() && u.Reward.StartsAtZero() {
			return c.untilTimeReward(phi, psi, u.Time.Hi, u.Reward.Hi)
		}
		return c.untilRectangle(phi, psi, u.Time, u.Reward)
	}
}

func (c *Checker) transientOpts() transient.Options {
	opts := transient.Options{
		Epsilon:  c.opts.Epsilon,
		Workers:  c.opts.Workers,
		Truncate: c.opts.Truncate,
		Pool:     c.pool,
		Obs:      c.opts.Obs,
	}
	if c.memo != nil {
		// Guarded: wrapping a nil *memo in the interface would yield a
		// non-nil transient.Cache whose methods still work (nil-receiver
		// safe), but an honest nil keeps the intent visible.
		opts.Cache = c.memo
	}
	return opts
}

// untilUnbounded implements the P0 procedure (Hansson–Jonsson [13]):
// qualitative precomputation followed by a linear system over the embedded
// DTMC.
func (c *Checker) untilUnbounded(phi, psi *mrm.StateSet) ([]float64, error) {
	n := c.m.N()
	g := graph.FromRates(c.m.Rates())
	prob0 := graph.Prob0(g, phi, psi)
	prob1 := graph.Prob1(g, phi, psi, prob0)
	x := make([]float64, n)
	prob1.Each(func(s int) { x[s] = 1 })
	maybe := prob0.Complement().Minus(prob1)
	if maybe.IsEmpty() {
		return x, nil
	}
	states := maybe.Slice()
	idx := make(map[int]int, len(states))
	for i, s := range states {
		idx[s] = i
	}
	b := make([]float64, len(states))
	builder := sparse.NewBuilder(len(states))
	for i, s := range states {
		e := c.m.ExitRate(s)
		if e == 0 {
			continue
		}
		c.m.Rates().Row(s, func(t int, v float64) {
			p := v / e
			switch {
			case prob1.Contains(t):
				b[i] += p
			case maybe.Contains(t):
				builder.Add(i, idx[t], p)
			}
		})
	}
	a, err := builder.Build()
	if err != nil {
		return nil, fmt.Errorf("core: until system: %w", err)
	}
	sol, err := numeric.SolveGaussSeidel(a, b, numeric.DefaultSolveOptions())
	if err != nil {
		return nil, fmt.Errorf("core: until solve: %w", err)
	}
	for i, s := range states {
		x[s] = sol[i]
	}
	return x, nil
}

// untilTime computes Pr_s(Φ U^[0,t] Ψ), the P1 procedure. When this
// checker lumps, the sweep runs on the lumped Theorem-1 view
// (reducedFor), whose Ψ and ¬(Φ∨Ψ) rows are empty already, so no
// absorbing model is derived.
func (c *Checker) untilTime(phi, psi *mrm.StateSet, t float64) ([]float64, error) {
	q, e := c.reducedFor(phi, psi)
	if q == nil {
		return transient.TimeBoundedUntil(c.m, phi, psi, t, c.transientOpts())
	}
	vals, err := transient.ReachProbAll(q.m, e.psi, t, q.transientOpts())
	if err != nil {
		return nil, err
	}
	return c.lift(e, q, vals), nil
}

// untilTimeInterval computes Φ U^[t1,t2] Ψ (t1 > 0, reward unbounded) by
// the standard two-phase CSL computation: probabilities for the residual
// until of length t2−t1, then a backward transient sweep of length t1 on
// the model with ¬Φ made absorbing. Phase two is a [0,t2−t1] until, so a
// lumping checker runs it on the until's Theorem-1 view (untilTime).
func (c *Checker) untilTimeInterval(phi, psi *mrm.StateSet, iv logic.Interval) ([]float64, error) {
	if math.IsInf(iv.Hi, 1) {
		// Φ U^[t1,∞) Ψ: stay in Φ for t1, then an unbounded until.
		tail, err := c.untilUnbounded(phi, psi)
		if err != nil {
			return nil, err
		}
		return c.phaseOne(phi, tail, iv.Lo)
	}
	tail, err := c.untilTime(phi, psi, iv.Hi-iv.Lo)
	if err != nil {
		return nil, err
	}
	// phaseOne masks tail into its own terminal vector; the residual-until
	// buffer goes back to the pool rather than leaking out of the regime.
	res, err := c.phaseOne(phi, tail, iv.Lo)
	c.pool.Put(tail)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// phaseOne performs the first phase of the interval-until computation: a
// backward sweep of duration t1 on M[¬Φ absorbing] with terminal weights
// tail masked to Φ-states.
func (c *Checker) phaseOne(phi *mrm.StateSet, tail []float64, t1 float64) ([]float64, error) {
	restricted, err := c.memo.Absorbing(c.m, phi.Complement(), false)
	if err != nil {
		return nil, err
	}
	v := make([]float64, c.m.N())
	phi.Each(func(s int) { v[s] = tail[s] })
	return transient.BackwardWeighted(restricted, v, t1, c.transientOpts())
}

// untilRectangle computes Φ U^I_J Ψ for a doubly-bounded until whose
// intervals do not both start at 0 — the paper's §6 future-work case. On
// the Theorem 1 reduction, absorption into the goal freezes both the time
// and the accumulated reward at the first Ψ-hit, so the probability of
// hitting within the rectangle I×J is the standard two-dimensional
// difference of the cumulative quantity F(t,r) = Pr{X_t = goal, Y_t ≤ r}:
//
//	Pr{τ ∈ (t1,t2], Y_τ ∈ (r1,r2]} = F(t2,r2) − F(t1,r2) − F(t2,r1) + F(t1,r1)
//
// This equals the CSRL semantics only when no path can satisfy the until at
// an instant other than its FIRST Ψ-hit, i.e. when Sat(Φ) ∩ Sat(Ψ) = ∅
// (otherwise a path may linger in a Φ∧Ψ state into the window); the method
// therefore rejects overlapping Φ/Ψ. Open/closed boundary differences are
// null events unless the accumulated reward has an atom on the boundary.
func (c *Checker) untilRectangle(phi, psi *mrm.StateSet, timeI, rewardJ logic.Interval) ([]float64, error) {
	if timeI.Lo > 0 || rewardJ.Lo > 0 {
		if !phi.Intersect(psi).IsEmpty() {
			return nil, fmt.Errorf("%w: general-interval until requires Sat(Φ)∩Sat(Ψ)=∅ (first-passage reduction)", ErrUnsupported)
		}
	}
	if math.IsInf(timeI.Hi, 1) || math.IsInf(rewardJ.Hi, 1) {
		return nil, fmt.Errorf("%w: a doubly-bounded general-interval until needs finite upper bounds", ErrUnsupported)
	}
	// Lower-bound corner terms are included only when the bound is
	// strictly positive; a zero lower bound imposes no constraint (beyond
	// the τ = 0 case of Ψ-start states, patched below). Corners sharing a
	// time bound also share a reward-bound batch: their goal columns
	// advance together through the memoised uniformised matrix, one P3
	// recursion per distinct t instead of one per corner.
	rs := []float64{rewardJ.Hi}
	if rewardJ.Lo > 0 {
		rs = append(rs, rewardJ.Lo)
	}
	f2, err := c.untilTimeRewardBatch(phi, psi, timeI.Hi, rs)
	if err != nil {
		return nil, err
	}
	out := f2[0] // F(t2, r2)
	nTerms := len(rs)
	if rewardJ.Lo > 0 {
		for s := range out {
			out[s] -= f2[1][s] // − F(t2, r1)
		}
	}
	if timeI.Lo > 0 {
		f1, err := c.untilTimeRewardBatch(phi, psi, timeI.Lo, rs)
		if err != nil {
			return nil, err
		}
		nTerms += len(rs)
		for s := range out {
			out[s] -= f1[0][s] // − F(t1, r2)
		}
		if rewardJ.Lo > 0 {
			for s := range out {
				out[s] += f1[1][s] // + F(t1, r1)
			}
		}
	}
	if err := c.clampRectangleResidue(out, nTerms); err != nil {
		return nil, err
	}
	// States already in Ψ at time 0 satisfy the formula iff 0 ∈ I and
	// 0 ∈ J; the rectangle difference gives 0 for them (they are absorbed
	// at τ = 0), so patch them explicitly.
	psi.Each(func(s int) {
		out[s] = boolTo01(timeI.Contains(0) && rewardJ.Contains(0))
	})
	return out, nil
}

// clampRectangleResidue handles the negative residue of the inclusion–
// exclusion corner difference. Exactly, the difference is a probability in
// [0,1]; numerically each of the nTerms corner evaluations carries up to
// the run's ε of truncation error, so cancellation can leave residues as
// negative as −nTerms·ε. Residues inside that band are legitimate roundoff:
// they are clamped to 0 and the largest clamped magnitude is recorded on
// the ledger's indicative side. Residues beyond it indicate the corner
// values are inconsistent beyond what the accuracy can explain — returning
// them (or silently zeroing them, as the previous hard-coded −1e-10 cutoff
// did for everything below the cutoff) would hand the caller a wrong
// probability, so they are an error.
func (c *Checker) clampRectangleResidue(out []float64, nTerms int) error {
	bound := float64(nTerms) * c.opts.Epsilon
	var residue float64
	for s := range out {
		if out[s] >= 0 {
			continue
		}
		if out[s] < -bound {
			return fmt.Errorf("core: rectangle corner difference at state %d is %g, below the ε-scaled residue bound −%d·ε = %g — corner evaluations are inconsistent beyond the configured accuracy",
				s, out[s], nTerms, -bound)
		}
		if -out[s] > residue {
			residue = -out[s]
		}
		out[s] = 0
	}
	if c.opts.Obs != nil && residue > 0 {
		// Measured cancellation magnitude, not a provable truncation bound:
		// indicative, like sericola's clamp residue.
		c.opts.Obs.ChargeIndicative("core", "rectangle-residue", residue)
	}
	return nil
}

func boolTo01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// untilTimeReward implements the P3 procedure: the Theorem 1 reduction
// followed by the configured Section 4 algorithm on the reduced model. It
// is the batch of one.
func (c *Checker) untilTimeReward(phi, psi *mrm.StateSet, t, r float64) ([]float64, error) {
	res, err := c.untilTimeRewardBatch(phi, psi, t, []float64{r})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// untilTimeRewardBatch evaluates the P3 procedure for several reward
// bounds sharing one time bound: one Theorem 1 reduction serves the whole
// batch, and with the Sericola algorithm the bounds advance together
// through a single recursion over the memoised uniformised matrix
// (sericola.ReachProbBatch). The Erlang and discretisation procedures have
// no shared recursion to exploit — their models depend on the bound
// resolution — so they loop, still sharing the reduction. results[ri] is
// bitwise equal to an unbatched untilTimeReward(phi, psi, t, rs[ri]) call.
func (c *Checker) untilTimeRewardBatch(phi, psi *mrm.StateSet, t float64, rs []float64) ([][]float64, error) {
	// A lumping checker reduces the lumped Theorem-1 view (reducedFor)
	// rather than the model: its sub-checker's reduction amalgamates the
	// view's Ψ and ¬(Φ∨Ψ) blocks.
	if q, e := c.reducedFor(phi, psi); q != nil {
		outs, err := q.untilTimeRewardBatch(e.phi, e.psi, t, rs)
		if err != nil {
			return nil, err
		}
		for ri, v := range outs {
			outs[ri] = c.lift(e, q, v)
		}
		return outs, nil
	}
	// The memoised reduction makes the corner evaluations of
	// untilRectangle share one reduced model, which in turn lets the
	// pointer-keyed uniformised-matrix cache hit across them.
	span := c.opts.Obs.StartSpan("core.reduce")
	red, err := c.memo.Reduction(c.m, phi, psi)
	span.End()
	if err != nil {
		return nil, err
	}
	span = c.opts.Obs.StartSpan("core.corner")
	defer span.End()
	goal := mrm.NewStateSetOf(red.Model.N(), red.Goal)
	alg := c.opts.P3
	if red.Model.HasImpulses() {
		// Only the discretisation procedure handles impulse rewards
		// (paper §2.1/§6); the selection is forced rather than failed so
		// impulse models work out of the box.
		alg = AlgDiscretise
	}
	valuesList := make([][]float64, len(rs))
	// putPartial returns the reduced-model vectors computed before a
	// mid-batch failure; the pool must get every buffer back on the error
	// path too.
	putPartial := func(upTo int) {
		for _, v := range valuesList[:upTo] {
			c.pool.Put(v)
		}
	}
	switch alg {
	case AlgSericola:
		var cache transient.Cache
		if c.memo != nil {
			cache = c.memo
		}
		resList, err := sericola.ReachProbBatch(red.Model, goal, t, rs, sericola.Options{
			Epsilon: c.opts.Epsilon,
			Workers: c.opts.Workers,
			Cache:   cache,
			Pool:    c.pool,
			Obs:     c.opts.Obs,
		})
		if err != nil {
			return nil, err
		}
		for ri, res := range resList {
			valuesList[ri] = res.Values
		}
	case AlgErlang:
		// The Erlang expansion is a fresh model per call, so the
		// pointer-keyed matrix cache could never hit — strip it to keep
		// the memo from accumulating dead entries.
		topts := c.transientOpts()
		topts.Cache = nil
		for ri, r := range rs {
			values, err := erlang.ReachProbAll(red.Model, goal, t, r, erlang.Options{
				K:         c.opts.ErlangK,
				Transient: topts,
			})
			if err != nil {
				putPartial(ri)
				return nil, err
			}
			valuesList[ri] = values
		}
	case AlgDiscretise:
		for ri, r := range rs {
			d := c.opts.DiscretiseStep
			if d == 0 {
				d, err = deriveStep(red.Model, t, r)
				if err != nil {
					putPartial(ri)
					return nil, err
				}
			}
			values, err := discretise.ReachProbAll(red.Model, goal, t, r, discretise.Options{
				D:       d,
				Workers: c.opts.Workers,
				Pool:    c.pool,
				Obs:     c.opts.Obs,
			})
			if err != nil {
				putPartial(ri)
				return nil, err
			}
			valuesList[ri] = values
		}
	default:
		return nil, fmt.Errorf("core: unknown P3 algorithm %v", c.opts.P3)
	}
	outs := make([][]float64, len(rs))
	for ri, values := range valuesList {
		out := make([]float64, c.m.N())
		for s := range out {
			out[s] = values[red.StateMap[s]]
		}
		// The reduced-model vector is dead once mapped back; feed it to
		// the pool so the next corner evaluation of untilRectangle reuses
		// it.
		c.pool.Put(values)
		outs[ri] = out
	}
	return outs, nil
}

// stepIntTol is the relative tolerance under which a quotient counts as an
// integer when deriving a discretisation step. It matches the intTol the
// discretise package applies to t/d and r/d.
const stepIntTol = 1e-9

// maxStepDenominator bounds the denominator search in deriveStep. The cap
// keeps near-integer rational approximations of irrational ratios (e.g.
// continued-fraction convergents of √2) from slipping under the tolerance
// and silently deriving an absurdly fine grid.
const maxStepDenominator = 4096

// deriveStep picks a discretisation step d that divides both bounds and
// every impulse reward: the coarsest d = t/a (a ≤ maxStepDenominator) with
// r/d and each ι/d within stepIntTol of an integer, halved until it clears
// the stability ceiling 1/(8·max E). Halving preserves divisibility
// exactly, and the relative tolerance keeps the integrality check
// meaningful as the quotients grow. When no such step exists — the
// quantities are not commensurable, e.g. r/t irrational — an explicit
// error tells the caller to set Options.DiscretiseStep.
func deriveStep(m *mrm.MRM, t, r float64) (float64, error) {
	if t <= 0 || r <= 0 {
		return 0, fmt.Errorf("core: derive step: bounds t=%v r=%v must be positive", t, r)
	}
	var maxE float64
	for s := 0; s < m.N(); s++ {
		if e := m.ExitRate(s); e > maxE {
			maxE = e
		}
	}
	if maxE == 0 {
		maxE = 1
	}
	ceiling := 1 / (8 * maxE)
	ratio := r / t
	var impulses []float64
	if imp := m.Impulses(); imp != nil {
		imp.Each(func(_, _ int, v float64) { impulses = append(impulses, v/t) })
	}
	integral := func(q float64) bool { return math.Abs(q-math.Round(q)) <= stepIntTol*(1+q) }
search:
	for a := 1; a <= maxStepDenominator; a++ {
		q := float64(a) * ratio
		if q < 0.5 {
			// r/d would round to 0: the grid cannot resolve the reward
			// bound yet, keep refining.
			continue
		}
		if !integral(q) {
			continue
		}
		for _, iq := range impulses {
			if !integral(float64(a) * iq) {
				continue search
			}
		}
		d := t / float64(a)
		for d > ceiling {
			d /= 2
		}
		return d, nil
	}
	return 0, fmt.Errorf("core: no discretisation step divides t=%v, r=%v and the impulse rewards (denominators up to %d tried); set Options.DiscretiseStep explicitly", t, r, maxStepDenominator)
}
