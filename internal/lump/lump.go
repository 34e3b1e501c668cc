// Package lump implements ordinary lumpability (Markov-chain bisimulation)
// quotienting for Markov reward models, the state-space reduction that the
// successor tools of this paper's line of work (most notably MRMC) apply
// before CSRL model checking. Two states are lumpable when they carry the
// same atomic propositions and reward rate and have identical aggregate
// rates into every equivalence class; the quotient MRM then satisfies
// exactly the same CSRL formulas (over the preserved propositions) as the
// original, with every state inheriting the verdict of its block.
// QuotientAbsorbing lumps the Theorem-1 view of an until instead, the
// model with the until's Ψ and ¬(Φ∨Ψ) states absorbing, which merges
// those states into a few blocks.
//
// The implementation is a splitter-driven partition refinement (Derisavi,
// Hermanns & Sanders, "Optimal state-space lumping in Markov chains", IPL
// 2003): start from the (labels, reward, initial-mass) signature partition
// and split blocks by their aggregate-rate signature vectors until a
// fixpoint is reached, re-examining in each round only the blocks with an
// edge into a block the previous round split. Signatures are hashed as
// integers (block IDs and float64 bit patterns) rather than formatted into
// strings; hash buckets are verified by exact signature comparison, so a
// hash collision can slow a split down but can never merge two
// non-bisimilar states.
package lump

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"github.com/performability/csrl/internal/mrm"
	"github.com/performability/csrl/internal/sparse"
)

// ErrRoundsExceeded is returned by QuotientLimited when the refinement has
// not reached a fixpoint within the allowed number of rounds. Each round
// strictly refines the partition, so hitting the limit means the quotient
// is close to trivial anyway; callers use the error to fall back to the
// unlumped model rather than pay O(n) rounds for no reduction.
var ErrRoundsExceeded = errors.New("lump: refinement round limit exceeded")

// Result is a lumped model together with the surjection onto its blocks.
type Result struct {
	// Model is the quotient MRM; block b is state b of Model.
	Model *mrm.MRM
	// BlockOf maps each original state to its block index.
	BlockOf []int
	// Blocks lists the original states of every block.
	Blocks [][]int
}

// Quotient computes the coarsest ordinary-lumpability quotient of m that
// respects all state labels and rewards. Models with impulse rewards are
// not lumped (aggregating transitions with distinct impulses is lossy).
func Quotient(m *mrm.MRM) (*Result, error) {
	return QuotientRespecting(m, m.Labels())
}

// QuotientRespecting lumps with respect to only the given atomic
// propositions — formula-dependent lumping: pass logic.Atoms(formula) to
// obtain the coarsest quotient that is exact for that formula. Propositions
// outside the list may be merged away and are absent from the quotient.
func QuotientRespecting(m *mrm.MRM, respect []string) (*Result, error) {
	return QuotientLimited(m, respect, 0)
}

// QuotientLimited is QuotientRespecting with a cap on refinement rounds:
// maxRounds > 0 returns ErrRoundsExceeded instead of continuing past that
// many splitting rounds (a partition refined r times has at least r+1
// blocks, so a cap of r only ever abandons quotients with more than r
// blocks). maxRounds ≤ 0 refines to the fixpoint unconditionally.
// Duplicate propositions in respect are ignored.
func QuotientLimited(m *mrm.MRM, respect []string, maxRounds int) (*Result, error) {
	labels := slices.Clone(respect)
	slices.Sort(labels)
	labels = slices.Compact(labels)
	return quotient(view{m: m}, labels, labelSets(m, labels), maxRounds)
}

// QuotientAbsorbing lumps the model with the states of absorb made
// absorbing with reward zero — the view Theorem 1 takes of an until
// Φ U Ψ, with absorb = Ψ ∪ ¬(Φ∨Ψ) and target = Ψ — without copying it:
// the states of absorb sign as empty rows. The initial partition separates
// the target states from the rest in place of atom labels, so the
// absorbing Ψ states can merge into one block and the absorbing
// ¬(Φ∨Ψ) states into another. The quotient carries no labels; its rows of
// absorbing blocks are empty and their rewards zero. maxRounds is as for
// QuotientLimited.
func QuotientAbsorbing(m *mrm.MRM, absorb, target *mrm.StateSet, maxRounds int) (*Result, error) {
	if absorb.Universe() != m.N() || target.Universe() != m.N() {
		return nil, fmt.Errorf("lump: %w: set universe for %d states", mrm.ErrModel, m.N())
	}
	return quotient(view{m: m, absorb: absorb}, nil, []*mrm.StateSet{target}, maxRounds)
}

// quotient refines the initial partition of v that respects sets to the
// coarsest lumpable one and assembles its quotient, labelled with labels
// (labels[i] names sets[i]).
func quotient(v view, labels []string, sets []*mrm.StateSet, maxRounds int) (*Result, error) {
	if v.m.HasImpulses() {
		return nil, fmt.Errorf("lump: %w", mrm.ErrImpulsesUnsupported)
	}
	blockOf, numBlocks := initialPartition(v, sets)
	numBlocks, err := refine(v, blockOf, numBlocks, maxRounds)
	if err != nil {
		return nil, err
	}
	return buildQuotient(v, labels, sets, blockOf, numBlocks)
}

// labelSets returns the state set of every label.
func labelSets(m *mrm.MRM, labels []string) []*mrm.StateSet {
	sets := make([]*mrm.StateSet, len(labels))
	for i, l := range labels {
		sets[i] = m.Label(l)
	}
	return sets
}

// view is the model a lump reads: m, with the states of absorb (nil: none)
// signing as empty rows with reward zero.
type view struct {
	m      *mrm.MRM
	absorb *mrm.StateSet
}

func (v view) absorbing(s int) bool { return v.absorb != nil && v.absorb.Contains(s) }

// row returns the stored rate entries of state s in the view.
func (v view) row(s int) ([]int, []float64) {
	if v.absorbing(s) {
		return nil, nil
	}
	return v.m.Rates().RowRange(s)
}

// reward returns ρ(s) in the view.
func (v view) reward(s int) float64 {
	if v.absorbing(s) {
		return 0
	}
	return v.m.Reward(s)
}

// initialPartition groups states with identical membership of the
// respected sets, rewards and initial-state masses in the view, numbering
// blocks in order of first occurrence. (Initial probability masses are
// summed per block, which is only faithful if blocks do not mix initial
// and non-initial states with different masses; keeping the initial
// signature avoids the common pitfall.) Per-state set membership is packed
// into a bitset both for hashing and for the exact collision check.
func initialPartition(v view, sets []*mrm.StateSet) (blockOf []int, numBlocks int) {
	n := v.m.N()
	init := v.m.InitView()
	words := (len(sets) + 63) / 64
	var labelBits []uint64
	if words > 0 {
		labelBits = make([]uint64, n*words)
		for li, set := range sets {
			set.Each(func(s int) {
				labelBits[s*words+li/64] |= 1 << uint(li%64)
			})
		}
	}
	sameInitial := func(s, r int) bool {
		if math.Float64bits(v.reward(s)) != math.Float64bits(v.reward(r)) {
			return false
		}
		if math.Float64bits(init[s]) != math.Float64bits(init[r]) {
			return false
		}
		for w := 0; w < words; w++ {
			if labelBits[s*words+w] != labelBits[r*words+w] {
				return false
			}
		}
		return true
	}
	blockOf = make([]int, n)
	type cand struct{ id, rep int }
	buckets := make(map[uint64][]cand)
	for s := 0; s < n; s++ {
		h := uint64(hashSeed)
		for w := 0; w < words; w++ {
			h = mixWord(h, labelBits[s*words+w])
		}
		h = mixWord(h, math.Float64bits(v.reward(s)))
		h = mixWord(h, math.Float64bits(init[s]))
		id := -1
		for _, c := range buckets[h] {
			if sameInitial(s, c.rep) {
				id = c.id
				break
			}
		}
		if id < 0 {
			id = numBlocks
			numBlocks++
			buckets[h] = append(buckets[h], cand{id: id, rep: s})
		}
		blockOf[s] = id
	}
	return blockOf, numBlocks
}

// refiner holds the partition and scratch of one refinement. Block ids are
// stable while it runs — a split keeps the parent's id for its first
// sub-block and appends fresh ids for the rest — and states are kept
// grouped by block in elems, each block a contiguous ascending range. A
// split lays its sub-blocks out in order of first occurrence inside the
// parent's range, so the block order along elems is exactly the numbering
// a round-by-round renumbering in first-occurrence order would produce;
// canonical renumbers by it once at the end.
type refiner struct {
	v       view
	blockOf []int
	// elems lists the states grouped by block; block b is
	// elems[start[b]:end[b]].
	elems      []int
	start, end []int
	numBlocks  int

	// Predecessor lists (the transposed non-zero pattern of the view) are
	// built only once a round has split something: a model whose initial
	// partition is already stable never pays for them.
	predPtr []int
	pred    []int32

	// sub[s] is the sub-block of s within its block after classify.
	sub []int
	// Signature scratch: aggregate rates per target block, with an epoch
	// stamp marking the entries touched by the current state.
	acc   []float64
	stamp []int
	epoch int
	sig   []sigEntry
	// classify's open-addressing table (slot → index into subs, -1 empty)
	// and the distinct signatures of the current block, stored in arena.
	table []int32
	subs  []subBlock
	arena []sigEntry
	// split's counting-sort scratch.
	cnt []int
	tmp []int
	// mark[b] is the round whose dirty list already holds block b.
	mark []int
}

// subBlock is one distinct signature seen in the block being classified:
// its hash and its entries at arena[lo:hi].
type subBlock struct {
	hash   uint64
	lo, hi int
}

// pendingSplit records a block the current round divides into k
// sub-blocks, and the range of elems it occupied.
type pendingSplit struct {
	block, k, lo, hi int
}

// refine splits the blocks of blockOf (numbered 0..numBlocks-1 in order of
// first occurrence) by aggregate-rate signatures to the coarsest stable
// partition, rewrites blockOf with the result and returns its block count.
//
// Rounds run in lockstep — every signature of a round is taken against the
// partition as it stood when the round began — so the sequence of
// partitions, the number of rounds and hence the maxRounds cap are exactly
// those of re-signing every state every round. Only the work per round
// differs: a block whose states all had equal signatures last round can
// only come apart if one of its states has an edge into a block that has
// split since (a split block's own internal edges included), so each round
// re-signs just the blocks reached backwards from the previous round's
// splits. Blocks no edge reaches keep their id with no work at all.
func refine(v view, blockOf []int, numBlocks, maxRounds int) (int, error) {
	n := len(blockOf)
	r := &refiner{
		v:         v,
		blockOf:   blockOf,
		elems:     make([]int, n),
		start:     make([]int, n),
		end:       make([]int, n),
		numBlocks: numBlocks,
		sub:       make([]int, n),
		acc:       make([]float64, n),
		stamp:     make([]int, n),
		cnt:       make([]int, n+1),
		tmp:       make([]int, n),
		mark:      make([]int, n),
	}
	// Counting sort by initial block: states ascend within each range and
	// the ranges follow the block numbering.
	for _, b := range blockOf {
		r.cnt[b+1]++
	}
	for b := 0; b < numBlocks; b++ {
		r.cnt[b+1] += r.cnt[b]
		r.start[b] = r.cnt[b]
		r.end[b] = r.cnt[b]
	}
	for s, b := range blockOf {
		r.elems[r.end[b]] = s
		r.end[b]++
	}

	dirty := make([]int, numBlocks)
	for b := range dirty {
		dirty[b] = b
	}
	var splits []pendingSplit
	for round := 0; ; round++ {
		if maxRounds > 0 && round >= maxRounds {
			return 0, ErrRoundsExceeded
		}
		// Classify every dirty block before any split is applied, so the
		// round's signatures all see the same partition.
		splits = splits[:0]
		for _, b := range dirty {
			lo, hi := r.start[b], r.end[b]
			if hi-lo < 2 {
				continue
			}
			if k := r.classify(b, r.elems[lo:hi]); k > 1 {
				splits = append(splits, pendingSplit{block: b, k: k, lo: lo, hi: hi})
			}
		}
		if len(splits) == 0 {
			break
		}
		for _, sp := range splits {
			r.split(sp)
		}
		if r.pred == nil {
			r.buildPredecessors()
		}
		// Next round's dirty blocks: those holding a predecessor of a
		// state whose block just split.
		dirty = dirty[:0]
		for _, sp := range splits {
			for _, t := range r.elems[sp.lo:sp.hi] {
				for _, p := range r.pred[r.predPtr[t]:r.predPtr[t+1]] {
					if b := r.blockOf[p]; r.mark[b] != round+1 {
						r.mark[b] = round + 1
						dirty = append(dirty, b)
					}
				}
			}
		}
	}
	r.canonical()
	return r.numBlocks, nil
}

// classify assigns every state of block b (given in ascending order) its
// sub-block in r.sub: states with equal signatures share one, and
// sub-blocks are numbered in order of first occurrence. It returns the
// number of sub-blocks.
func (r *refiner) classify(b int, states []int) int {
	size := 1 << bits.Len(uint(2*len(states)-1)) // power of two ≥ 2·len
	if cap(r.table) < size {
		r.table = make([]int32, size)
	}
	table := r.table[:size]
	for i := range table {
		table[i] = -1
	}
	mask := uint64(size - 1)
	r.subs = r.subs[:0]
	r.arena = r.arena[:0]
	for _, s := range states {
		sig, h := r.signature(s, b)
		i := h & mask
		for {
			j := table[i]
			if j < 0 {
				j = int32(len(r.subs))
				table[i] = j
				lo := len(r.arena)
				r.arena = append(r.arena, sig...)
				r.subs = append(r.subs, subBlock{hash: h, lo: lo, hi: len(r.arena)})
				r.sub[s] = int(j)
				break
			}
			if c := r.subs[j]; c.hash == h && sigEqual(r.arena[c.lo:c.hi], sig) {
				r.sub[s] = int(j)
				break
			}
			i = (i + 1) & mask
		}
	}
	return len(r.subs)
}

// signature computes state s's aggregate rate into every block other than
// its own block b, sorted by block id, and its hash. Ordinary lumpability
// constrains the aggregate rate into every OTHER block; internal
// transitions are invisible at the block level and excluded. The returned
// slice is scratch, valid until the next call.
func (r *refiner) signature(s, b int) ([]sigEntry, uint64) {
	r.epoch++
	sig := r.sig[:0]
	cols, vals := r.v.row(s)
	for k, t := range cols {
		v := vals[k]
		tb := r.blockOf[t]
		if v == 0 || tb == b {
			continue
		}
		if r.stamp[tb] != r.epoch {
			r.stamp[tb] = r.epoch
			r.acc[tb] = 0
			sig = append(sig, sigEntry{block: tb})
		}
		r.acc[tb] += v
	}
	slices.SortFunc(sig, func(x, y sigEntry) int { return cmp.Compare(x.block, y.block) })
	h := uint64(hashSeed)
	for i := range sig {
		sig[i].rate = r.acc[sig[i].block]
		h = mixWord(h, uint64(sig[i].block))
		h = mixWord(h, math.Float64bits(sig[i].rate))
	}
	r.sig = sig
	return sig, h
}

// split divides sp.block by the sub-block ids classify left in r.sub: a
// stable counting sort lays the sub-blocks out in order inside the
// block's range, the first keeps the block's id and the others take fresh
// ids.
func (r *refiner) split(sp pendingSplit) {
	states := r.elems[sp.lo:sp.hi]
	cnt := r.cnt[:sp.k+1]
	clear(cnt)
	for _, s := range states {
		cnt[r.sub[s]+1]++
	}
	for j := 1; j <= sp.k; j++ {
		cnt[j] += cnt[j-1]
	}
	tmp := r.tmp[:len(states)]
	for _, s := range states {
		j := r.sub[s]
		tmp[cnt[j]] = s
		cnt[j]++
	}
	copy(states, tmp)
	// cnt[j] is now the end offset of sub-block j.
	r.end[sp.block] = sp.lo + cnt[0]
	for j := 1; j < sp.k; j++ {
		id := r.numBlocks
		r.numBlocks++
		r.start[id], r.end[id] = sp.lo+cnt[j-1], sp.lo+cnt[j]
		for _, s := range r.elems[r.start[id]:r.end[id]] {
			r.blockOf[s] = id
		}
	}
}

// buildPredecessors transposes the non-zero pattern of the view's rates.
func (r *refiner) buildPredecessors() {
	n := len(r.blockOf)
	r.predPtr = make([]int, n+1)
	for s := 0; s < n; s++ {
		cols, vals := r.v.row(s)
		for k, t := range cols {
			if vals[k] != 0 {
				r.predPtr[t+1]++
			}
		}
	}
	for t := 0; t < n; t++ {
		r.predPtr[t+1] += r.predPtr[t]
	}
	r.pred = make([]int32, r.predPtr[n])
	next := r.tmp
	copy(next, r.predPtr[:n])
	for s := 0; s < n; s++ {
		cols, vals := r.v.row(s)
		for k, t := range cols {
			if vals[k] != 0 {
				r.pred[next[t]] = int32(s)
				next[t]++
			}
		}
	}
}

// canonical renumbers the blocks in the order their ranges appear along
// elems — the first-occurrence numbering of round-by-round refinement.
func (r *refiner) canonical() {
	ids := r.cnt[:r.numBlocks]
	for pos, id := 0, 0; pos < len(r.elems); id++ {
		b := r.blockOf[r.elems[pos]]
		ids[b] = id
		pos = r.end[b]
	}
	for s, b := range r.blockOf {
		r.blockOf[s] = ids[b]
	}
}

// buildQuotient assembles the quotient MRM of a partition of the view: one
// state per block, carrying the block representative's reward, name (when
// it has one) and labels (labels[i] when the representative is in
// sets[i]), the block's summed initial mass and its aggregate rates into
// every other block. The rate rows go straight into a row builder in block
// order, with no triplet sort.
func buildQuotient(v view, labels []string, sets []*mrm.StateSet, blockOf []int, numBlocks int) (*Result, error) {
	m := v.m
	init := m.InitView()
	// One backing array holds every block's members, ascending.
	offsets := make([]int, numBlocks+1)
	for _, b := range blockOf {
		offsets[b+1]++
	}
	for b := 0; b < numBlocks; b++ {
		offsets[b+1] += offsets[b]
	}
	members := make([]int, len(blockOf))
	fill := slices.Clone(offsets[:numBlocks])
	for s, b := range blockOf {
		members[fill[b]] = s
		fill[b]++
	}
	blocks := make([][]int, numBlocks)
	for b := range blocks {
		blocks[b] = members[offsets[b]:offsets[b+1]:offsets[b+1]]
	}

	acc := make([]float64, numBlocks)
	stamp := make([]int, numBlocks)
	qb := mrm.NewBuilder(numBlocks)
	// The quotient's share of the model's entries sizes the row arrays.
	rb := sparse.NewRowBuilder(numBlocks, m.Rates().NNZ()*numBlocks/max(len(blockOf), 1))
	var targets []int
	for b, members := range blocks {
		rep := members[0]
		qb.Reward(b, v.reward(rep))
		if m.HasName(rep) {
			qb.Name(b, m.Name(rep))
		}
		for i, l := range labels {
			if sets[i].Contains(rep) {
				qb.Label(b, l)
			}
		}
		var mass float64
		for _, s := range members {
			mass += init[s]
		}
		if mass > 0 {
			qb.InitialProb(b, mass)
		}
		epoch := b + 1
		targets = targets[:0]
		cols, vals := v.row(rep)
		for k, t := range cols {
			val := vals[k]
			if val == 0 {
				continue
			}
			tb := blockOf[t]
			if stamp[tb] != epoch {
				stamp[tb] = epoch
				acc[tb] = 0
				targets = append(targets, tb)
			}
			acc[tb] += val
		}
		slices.Sort(targets)
		for _, t := range targets {
			if t != b {
				rb.Add(t, acc[t])
			}
			// Aggregate rates within the block are self-loops of the
			// quotient CTMC; they are unobservable and dropped.
		}
		rb.EndRow()
	}
	rates, err := rb.Build()
	if err != nil {
		return nil, fmt.Errorf("lump: quotient: %w", err)
	}
	qm, err := qb.BuildWithRates(rates)
	if err != nil {
		return nil, fmt.Errorf("lump: quotient: %w", err)
	}
	return &Result{Model: qm, BlockOf: blockOf, Blocks: blocks}, nil
}

// sigEntry is one (target block, aggregate rate) component of a state's
// refinement signature.
type sigEntry struct {
	block int
	rate  float64
}

// sigEqual compares two signatures exactly (bit equality on rates), the
// collision check behind the hash buckets.
func sigEqual(a, b []sigEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].block != b[i].block || math.Float64bits(a[i].rate) != math.Float64bits(b[i].rate) {
			return false
		}
	}
	return true
}

// hashSeed starts every signature hash (the FNV-64 offset basis).
const hashSeed = 14695981039346656037

// mixWord folds one 64-bit word into a running hash. The multiply spreads
// the word's low bits upward and the rotation brings the well-mixed high
// bits back down, so the low bits that index classify's table depend on
// every word; for a fixed h the map from w is a bijection. The hash only
// routes — sigEqual and sameInitial decide — so this is all it must do.
func mixWord(h, w uint64) uint64 {
	return bits.RotateLeft64((h^w)*0x9e3779b97f4a7c15, 29)
}

// Lift expands per-block values back to per-state values.
func (r *Result) Lift(blockValues []float64) []float64 {
	out := make([]float64, len(r.BlockOf))
	for s, b := range r.BlockOf {
		out[s] = blockValues[b]
	}
	return out
}

// LiftSet expands a set of blocks back to the set of original states whose
// block is in it.
func (r *Result) LiftSet(blockSet *mrm.StateSet) *mrm.StateSet {
	out := mrm.NewStateSet(len(r.BlockOf))
	for s, b := range r.BlockOf {
		if blockSet.Contains(b) {
			out.Add(s)
		}
	}
	return out
}
