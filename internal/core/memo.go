package core

import (
	"container/list"
	"errors"
	"sync"

	"github.com/performability/csrl/internal/lump"
	"github.com/performability/csrl/internal/mrm"
	"github.com/performability/csrl/internal/numeric"
	"github.com/performability/csrl/internal/obs"
	"github.com/performability/csrl/internal/sparse"
)

// defaultMemoCap bounds each memo table when Options.MemoCap is unset. The
// working set of one formula evaluation is tiny (a handful of (λ,t,ε)
// combinations from the corner evaluations of untilRectangle), so 64 is
// generous for a one-shot CLI run; a long-running checker service raises
// it via Options.MemoCap to hold the hot tables of many recurring queries.
const defaultMemoCap = 64

type uniKey struct {
	m      *mrm.MRM
	lambda float64
}

// absKey identifies a derived absorbing model: the base model (pointer
// identity is sound here — the base is either the checker's own model or a
// memo-cached reduction, both pointer-stable for the checker's lifetime),
// the absorbing set and the reward-zeroing flag.
type absKey struct {
	m    *mrm.MRM
	set  string
	zero bool
}

type poissonKey struct {
	q, eps float64
}

// lruTable is one bounded memo table with least-recently-used eviction:
// a lookup refreshes the entry, an insert past the cap evicts the coldest
// entry alone. The previous clear-on-overflow policy wiped every hot
// Fox–Glynn/uniformisation entry the moment a 65th key arrived — fatal for
// a service whose whole point is keeping cross-request entries warm.
type lruTable[K comparable, V any] struct {
	cap      int
	m        map[K]*list.Element
	order    *list.List // front = most recently used
	building map[K]*build[V]
}

// build is one table entry under construction. done is closed when v and
// err are final.
type build[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// errBuildPanicked is what the callers waiting on a build get when the
// build panicked.
var errBuildPanicked = errors.New("core: memo build panicked")

type lruEntry[K comparable, V any] struct {
	k K
	v V
}

func newLRU[K comparable, V any](cap int) lruTable[K, V] {
	return lruTable[K, V]{cap: cap, m: make(map[K]*list.Element), order: list.New(), building: make(map[K]*build[V])}
}

// get returns the cached value and refreshes its recency.
func (t *lruTable[K, V]) get(k K) (V, bool) {
	if el, ok := t.m[k]; ok {
		t.order.MoveToFront(el)
		return el.Value.(lruEntry[K, V]).v, true
	}
	var zero V
	return zero, false
}

// put inserts a fresh entry, evicting the least-recently-used one when the
// table is full. It reports how many entries were evicted (0 or 1).
func (t *lruTable[K, V]) put(k K, v V) int64 {
	if el, ok := t.m[k]; ok {
		el.Value = lruEntry[K, V]{k: k, v: v}
		t.order.MoveToFront(el)
		return 0
	}
	var evicted int64
	if t.order.Len() >= t.cap {
		back := t.order.Back()
		t.order.Remove(back)
		delete(t.m, back.Value.(lruEntry[K, V]).k)
		evicted = 1
	}
	t.m[k] = t.order.PushFront(lruEntry[K, V]{k: k, v: v})
	return evicted
}

func (t *lruTable[K, V]) len() int { return t.order.Len() }

// lookup returns t's entry for k, running fresh on a miss. c.mu guards
// the table but is not held while fresh runs, so lookups of other keys, in
// this table or another, go ahead meanwhile. Callers of a key that is
// being built wait for that one build and share its outcome. A failed
// build is not cached: its waiters get its error and the next caller
// builds again. A waiter counts as a hit, as it would have when the build
// ran under the lock.
func lookup[K comparable, V any](c *memo, t *lruTable[K, V], k K, fresh func() (V, error)) (V, error) {
	c.mu.Lock()
	if v, ok := t.get(k); ok {
		c.hits++
		c.mu.Unlock()
		return v, nil
	}
	if b, ok := t.building[k]; ok {
		c.hits++
		c.mu.Unlock()
		<-b.done
		return b.v, b.err
	}
	c.misses++
	b := &build[V]{done: make(chan struct{}), err: errBuildPanicked}
	t.building[k] = b
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(t.building, k)
		if b.err == nil {
			c.evictions += t.put(k, b.v)
		}
		c.mu.Unlock()
		close(b.done)
	}()
	b.v, b.err = fresh()
	return b.v, b.err
}

// MemoStats is a snapshot of the checker memo's cumulative traffic, the
// cache-health surface a long-running service exports per model: how many
// lookups hit, how many built a fresh entry, how many entries LRU eviction
// dropped, and how many live in the tables right now.
type MemoStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
}

// memo is a goroutine-safe cache for the intermediates shared between the
// repeated untilTimeReward corner evaluations of untilRectangle — and, in
// service use, between concurrent and successive requests against the same
// model: Theorem 1 reductions (keyed by the satisfaction sets), uniformised
// DTMC matrices (keyed by model identity and rate), Fox–Glynn weight tables
// (keyed by Poisson parameter and accuracy) and lumping pre-pass outcomes
// (keyed by the respected atom set). Each table is LRU-bounded
// independently; see lruTable. All methods are nil-receiver-safe: a nil
// *memo computes without caching, so a zero Checker literal still works.
// Memory visibility: every read and write of the tables happens under mu,
// so a value stored by one goroutine is safely published to any other
// goroutine that later looks it up; a caller waiting on a build reads its
// outcome after the builder closed the build's done channel. No build
// runs under mu (lookup).
//
// The concrete type satisfies transient.Cache.
type memo struct {
	mu          sync.Mutex
	reductions  lruTable[string, *mrm.UntilReduction]         // guarded by mu
	uniformised lruTable[uniKey, *sparse.CSR]                 // guarded by mu
	poisson     lruTable[poissonKey, *numeric.PoissonWeights] // guarded by mu
	lumps       lruTable[lumpKey, *lumpEntry]                 // guarded by mu
	absorbing   lruTable[absKey, *mrm.MRM]                    // guarded by mu
	hits        int64                                         // guarded by mu
	misses      int64                                         // guarded by mu
	evictions   int64                                         // guarded by mu
}

func newMemo(cap int) *memo {
	if cap <= 0 {
		cap = defaultMemoCap
	}
	return &memo{
		reductions:  newLRU[string, *mrm.UntilReduction](cap),
		uniformised: newLRU[uniKey, *sparse.CSR](cap),
		poisson:     newLRU[poissonKey, *numeric.PoissonWeights](cap),
		lumps:       newLRU[lumpKey, *lumpEntry](cap),
		absorbing:   newLRU[absKey, *mrm.MRM](cap),
	}
}

// lumpKey identifies one lump: the respected atoms joined (prePass), or
// the set keys of Sat(Φ) and Sat(Ψ) of an until's Theorem-1 view
// (reducedFor). A set key is never empty, so the two kinds never collide.
type lumpKey struct {
	atoms, phi, psi string
}

// lumpEntry is one memoised lump outcome: the quotient and the sub-checker
// evaluating on it, or — when lumping declined (capped refinement, trivial
// quotient) — a zero entry recording the decision so the lump is not
// retried for the same key. An entry of an until's Theorem-1 view also
// holds the until's operands on the quotient. The sub-checker is stored
// without an obs recorder; checker grafts the calling checker's recorder
// on at each use, so one cached quotient serves requests with distinct
// ledgers.
type lumpEntry struct {
	res      *lump.Result
	sub      *Checker
	phi, psi *mrm.StateSet
}

// checker returns the entry's sub-checker recording to r.
func (e *lumpEntry) checker(r *obs.Recorder) *Checker {
	if r == nil {
		return e.sub
	}
	return e.sub.WithRecorder(r)
}

// lump returns the memoised lump outcome for the key, building it on a
// miss. A nil memo returns nil: the zero Checker literal checks
// unlumped rather than re-quotienting on every call. The entry's quotient
// model anchors the sub-checker's own memo, so every downstream cache key
// incorporates the quotient by construction.
func (c *memo) lump(key lumpKey, build func() *lumpEntry) *lumpEntry {
	if c == nil {
		return nil
	}
	//lint:ignore guardedfield only the table's address is taken here; lookup holds c.mu whenever it touches the table
	e, err := lookup(c, &c.lumps, key, func() (*lumpEntry, error) { return build(), nil })
	if err != nil {
		// The build panicked on another caller: decline, check unlumped.
		return &lumpEntry{}
	}
	return e
}

// Reduction returns the Theorem 1 reduction for (phi, psi) over m,
// computing it on a miss. The cached UntilReduction is shared between
// callers; it is immutable by convention.
func (c *memo) Reduction(m *mrm.MRM, phi, psi *mrm.StateSet) (*mrm.UntilReduction, error) {
	if c == nil {
		return mrm.ReduceForUntil(m, phi, psi)
	}
	//lint:ignore guardedfield only the table's address is taken here; lookup holds c.mu whenever it touches the table
	return lookup(c, &c.reductions, phi.Key()+"|"+psi.Key(), func() (*mrm.UntilReduction, error) {
		return mrm.ReduceForUntil(m, phi, psi)
	})
}

// Uniformised implements transient.Cache.
func (c *memo) Uniformised(m *mrm.MRM, lambda float64) (*sparse.CSR, error) {
	if c == nil {
		return m.Uniformised(lambda)
	}
	//lint:ignore guardedfield only the table's address is taken here; lookup holds c.mu whenever it touches the table
	return lookup(c, &c.uniformised, uniKey{m: m, lambda: lambda}, func() (*sparse.CSR, error) {
		return m.Uniformised(lambda)
	})
}

// Absorbing implements transient.Cache: the model with the given set made
// absorbing, derived once per (base model, set, flag). Without this table
// every time-bounded until rebuilds the restricted model, whose fresh
// pointer then misses the pointer-keyed uniformised table — the classic
// way a service quietly re-uniformises the same chain on every request.
// The cached model is shared between callers; immutable by convention,
// like every MRM.
func (c *memo) Absorbing(m *mrm.MRM, set *mrm.StateSet, zeroReward bool) (*mrm.MRM, error) {
	if c == nil {
		return m.MakeAbsorbing(set, zeroReward)
	}
	//lint:ignore guardedfield only the table's address is taken here; lookup holds c.mu whenever it touches the table
	return lookup(c, &c.absorbing, absKey{m: m, set: set.Key(), zero: zeroReward}, func() (*mrm.MRM, error) {
		return m.MakeAbsorbing(set, zeroReward)
	})
}

// stats returns a snapshot of the cumulative hit/miss/eviction counts and
// the live entry total across all five tables. A nil memo reports zeroes.
func (c *memo) stats() MemoStats {
	if c == nil {
		return MemoStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return MemoStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   c.reductions.len() + c.uniformised.len() + c.poisson.len() + c.lumps.len() + c.absorbing.len(),
	}
}

// Poisson implements transient.Cache. Caching does not
// change the numerics: the table still drops the Poisson tails outside the
// Fox–Glynn window, and the charge duty stays with the caller of every hit
// and miss alike.
//
//numerics:truncates foxglynn/left-tail foxglynn/right-tail
func (c *memo) Poisson(q, eps float64) (*numeric.PoissonWeights, error) {
	if c == nil {
		return numeric.FoxGlynn(q, eps)
	}
	//lint:ignore guardedfield only the table's address is taken here; lookup holds c.mu whenever it touches the table
	return lookup(c, &c.poisson, poissonKey{q: q, eps: eps}, func() (*numeric.PoissonWeights, error) {
		return numeric.FoxGlynn(q, eps)
	})
}
