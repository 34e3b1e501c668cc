package lump

import (
	"math"
	"slices"
	"sort"

	"github.com/performability/csrl/internal/mrm"
	"github.com/performability/csrl/internal/sparse"
)

// OracleQuotient is QuotientLimited with the reference refinement: every
// round re-signs every state against the previous round's partition and
// renumbers all sub-blocks in first-occurrence order. It shares only the
// initial partition and the quotient assembly with QuotientLimited, and
// also reports how many rounds the refinement ran (the last one splitting
// nothing). Exported for the package's external tests.
func OracleQuotient(m *mrm.MRM, respect []string, maxRounds int) (*Result, int, error) {
	labels := slices.Clone(respect)
	slices.Sort(labels)
	labels = slices.Compact(labels)
	v, sets := view{m: m}, labelSets(m, labels)
	blockOf, numBlocks := initialPartition(v, sets)
	numBlocks, rounds, err := oracleRefine(m.Rates(), blockOf, numBlocks, maxRounds)
	if err != nil {
		return nil, rounds, err
	}
	res, err := buildQuotient(v, labels, sets, blockOf, numBlocks)
	return res, rounds, err
}

// oracleRefine is the round-by-round refinement: aggregate rates
// accumulate into a dense scratch indexed by block ID with an epoch stamp
// marking the touched entries, the touched IDs are sorted to make the
// signature deterministic, and signatures are routed through FNV-1a
// buckets verified by sigEqual.
func oracleRefine(rates *sparse.CSR, blockOf []int, numBlocks, maxRounds int) (int, int, error) {
	n := len(blockOf)
	acc := make([]float64, n)
	stamp := make([]int, n)
	epoch := 0
	var sig []sigEntry
	cnt := make([]int, n+1)
	order := make([]int, n)
	next := make([]int, n)
	type subBlock struct {
		id  int
		sig []sigEntry
	}
	buckets := make(map[uint64][]subBlock)
	for round := 0; ; round++ {
		if maxRounds > 0 && round >= maxRounds {
			return 0, round, ErrRoundsExceeded
		}
		// Group states by current block: order holds the states of block b
		// at order[cnt[b]:cnt[b+1]], in ascending state order.
		for b := 0; b <= numBlocks; b++ {
			cnt[b] = 0
		}
		for _, b := range blockOf {
			cnt[b+1]++
		}
		for b := 1; b <= numBlocks; b++ {
			cnt[b] += cnt[b-1]
		}
		pos := append([]int(nil), cnt[:numBlocks]...)
		for s := 0; s < n; s++ {
			b := blockOf[s]
			order[pos[b]] = s
			pos[b]++
		}
		changed := false
		nextID := 0
		for b := 0; b < numBlocks; b++ {
			states := order[cnt[b]:cnt[b+1]]
			clear(buckets)
			subCount := 0
			for _, s := range states {
				epoch++
				sig = sig[:0]
				cols, vals := rates.RowRange(s)
				for k, t := range cols {
					v := vals[k]
					tb := blockOf[t]
					if v == 0 || tb == b {
						continue
					}
					if stamp[tb] != epoch {
						stamp[tb] = epoch
						acc[tb] = 0
						sig = append(sig, sigEntry{block: tb})
					}
					acc[tb] += v
				}
				sort.Slice(sig, func(i, j int) bool { return sig[i].block < sig[j].block })
				h := uint64(fnvOffset64)
				for i := range sig {
					sig[i].rate = acc[sig[i].block]
					h = fnvWord(h, uint64(sig[i].block))
					h = fnvWord(h, math.Float64bits(sig[i].rate))
				}
				id := -1
				for _, c := range buckets[h] {
					if sigEqual(c.sig, sig) {
						id = c.id
						break
					}
				}
				if id < 0 {
					id = nextID
					nextID++
					subCount++
					buckets[h] = append(buckets[h], subBlock{id: id, sig: append([]sigEntry(nil), sig...)})
				}
				next[s] = id
			}
			if subCount > 1 {
				changed = true
			}
		}
		copy(blockOf, next)
		numBlocks = nextID
		if !changed {
			return numBlocks, round + 1, nil
		}
	}
}

// FNV-1a 64-bit, folded over the bytes of each 64-bit word.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvWord(h, w uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= w & 0xff
		h *= fnvPrime64
		w >>= 8
	}
	return h
}
