package core

import (
	"container/list"
	"sync"

	"github.com/performability/csrl/internal/lump"
	"github.com/performability/csrl/internal/mrm"
	"github.com/performability/csrl/internal/numeric"
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
	cap   int
	m     map[K]*list.Element
	order *list.List // front = most recently used
}

type lruEntry[K comparable, V any] struct {
	k K
	v V
}

func newLRU[K comparable, V any](cap int) lruTable[K, V] {
	return lruTable[K, V]{cap: cap, m: make(map[K]*list.Element), order: list.New()}
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
// goroutine that later looks it up.
//
// The concrete type satisfies transient.Cache.
type memo struct {
	mu          sync.Mutex
	reductions  lruTable[string, *mrm.UntilReduction]         // guarded by mu
	uniformised lruTable[uniKey, *sparse.CSR]                 // guarded by mu
	poisson     lruTable[poissonKey, *numeric.PoissonWeights] // guarded by mu
	lumps       lruTable[string, *lumpEntry]                  // guarded by mu
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
		lumps:       newLRU[string, *lumpEntry](cap),
		absorbing:   newLRU[absKey, *mrm.MRM](cap),
	}
}

// lumpEntry is one memoised outcome of the automatic lumping pre-pass for
// a respected-atom set: the quotient and the sub-checker evaluating on it,
// or — when the pre-pass declined (impulse rewards, capped refinement,
// trivial quotient) — a zero entry recording the decision so the pre-pass
// is not retried for the same atoms. The sub-checker is stored without an
// obs recorder; lumpFor grafts the calling checker's recorder on at each
// use, so one cached quotient serves requests with distinct ledgers.
type lumpEntry struct {
	res *lump.Result
	sub *Checker
}

// lump returns the memoised pre-pass outcome for the atom key, building it
// on a miss. A nil memo returns nil: the zero Checker literal checks
// unlumped rather than re-quotienting on every call. The entry's quotient
// model anchors the sub-checker's own memo, so every downstream cache key
// incorporates the quotient by construction.
func (c *memo) lump(key string, build func() *lumpEntry) *lumpEntry {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.lumps.get(key); ok {
		c.hits++
		return e
	}
	c.misses++
	e := build()
	c.evictions += c.lumps.put(key, e)
	return e
}

// Reduction returns the Theorem 1 reduction for (phi, psi) over m,
// computing it on a miss. The cached UntilReduction is shared between
// callers; it is immutable by convention.
func (c *memo) Reduction(m *mrm.MRM, phi, psi *mrm.StateSet) (*mrm.UntilReduction, error) {
	if c == nil {
		return mrm.ReduceForUntil(m, phi, psi)
	}
	key := phi.Key() + "|" + psi.Key()
	c.mu.Lock()
	defer c.mu.Unlock()
	if red, ok := c.reductions.get(key); ok {
		c.hits++
		return red, nil
	}
	c.misses++
	red, err := mrm.ReduceForUntil(m, phi, psi)
	if err != nil {
		return nil, err
	}
	c.evictions += c.reductions.put(key, red)
	return red, nil
}

// Uniformised implements transient.Cache.
func (c *memo) Uniformised(m *mrm.MRM, lambda float64) (*sparse.CSR, error) {
	if c == nil {
		return m.Uniformised(lambda)
	}
	key := uniKey{m: m, lambda: lambda}
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.uniformised.get(key); ok {
		c.hits++
		return p, nil
	}
	c.misses++
	p, err := m.Uniformised(lambda)
	if err != nil {
		return nil, err
	}
	c.evictions += c.uniformised.put(key, p)
	return p, nil
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
	key := absKey{m: m, set: set.Key(), zero: zeroReward}
	c.mu.Lock()
	defer c.mu.Unlock()
	if abs, ok := c.absorbing.get(key); ok {
		c.hits++
		return abs, nil
	}
	c.misses++
	abs, err := m.MakeAbsorbing(set, zeroReward)
	if err != nil {
		return nil, err
	}
	c.evictions += c.absorbing.put(key, abs)
	return abs, nil
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
	key := poissonKey{q: q, eps: eps}
	c.mu.Lock()
	defer c.mu.Unlock()
	if w, ok := c.poisson.get(key); ok {
		c.hits++
		return w, nil
	}
	c.misses++
	w, err := numeric.FoxGlynn(q, eps)
	if err != nil {
		return nil, err
	}
	c.evictions += c.poisson.put(key, w)
	return w, nil
}
