package main

import (
	"math/rand/v2"
	"sort"
	"time"
)

// arrival is one send of the open-loop generator.
type arrival struct {
	due     time.Duration // after the start of the measured window
	queries []int         // indices into the workload's query list, sent together
}

// openLoopSchedule spreads one arrival per entry of mix over the window at
// seeded uniform times — a Poisson process conditioned on its count — in
// a seeded order. Every seed sends the same mix, so runs differ only in
// order and timing; the same seed gives the same schedule. It is computed
// before the run.
func openLoopSchedule(seed uint64, window time.Duration, mix [][]int) []arrival {
	rng := rand.New(rand.NewPCG(seed, 0x6373726c64)) // stream "csrld"
	dues := make([]time.Duration, len(mix))
	for i := range dues {
		dues[i] = time.Duration(rng.Int64N(int64(window)))
	}
	sort.Slice(dues, func(i, j int) bool { return dues[i] < dues[j] })
	out := make([]arrival, len(mix))
	for i, p := range rng.Perm(len(mix)) {
		out[i] = arrival{due: dues[i], queries: mix[p]}
	}
	return out
}

// arrivals is how many arrivals a window holds at rate per second.
func arrivals(rate float64, window time.Duration) int {
	n := int(rate*window.Seconds() + 0.5)
	if n < 1 {
		return 1
	}
	return n
}
