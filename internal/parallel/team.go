package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Steps runs a stepped kernel. loop calls step once per step; a step runs
// part(0), …, part(parts−1) once each, possibly concurrently, and returns
// when all of them have finished. Steps starts up to parts−1 helper
// goroutines before it calls loop, and they have exited when Steps
// returns, whether loop returns or panics. The caller runs parts too.
//
// Helpers come from one budget for the whole process: GOMAXPROCS−1 slots,
// so the spinning helpers of all running teams together never outnumber
// the scheduling cores beside one caller. A team takes what slots are free
// when it starts, and each helper gives its slot back when it exits; a
// team that gets fewer than parts−1, or none, runs the rest of its parts
// on the caller. The parts themselves, and so the results, do not depend
// on the slots taken.
//
// A step hands its parts out through an atomic counter: the caller and
// the helpers claim the next unclaimed part until none is left, then the
// caller waits for the parts that others claimed. So a step never waits on
// a helper that has not started: with more runnable goroutines than
// cores, the caller runs more of the parts itself. Between steps a helper
// waits for the next one by spinning on an atomic (see pause), so a step
// costs no channel hand-off and no wake-up of a parked goroutine. The
// price is that the helpers keep their cores busy while loop runs, which
// is why a team lives only as long as the step loop of one kernel call.
//
// A helper that has run a part and then arrives at a step whose parts are
// all claimed leaves the team: it is not keeping up, because the host or
// the process's other goroutines have taken its core, and a helper that
// loses its core in the middle of a part holds the whole step up. The
// caller runs the parts the helper would have run.
//
// part must be safe to run concurrently for distinct indices. What loop
// writes before it calls step is visible to every part of that step, and
// what the parts write is visible to loop once step returns: each
// hand-off goes through the team's atomics. A panic in a part that a
// helper ran is raised again by step, on the caller.
//
// With parts < 2 no helper starts and step runs the parts on the caller.
// Otherwise every part of every step counts in ChunkCount.
func Steps(parts int, part func(i int), loop func(step func())) {
	if parts < 2 {
		loop(func() {
			for i := 0; i < parts; i++ {
				part(i)
			}
		})
		return
	}
	t := &team{parts: int64(parts), part: part}
	h := takeSlots(parts - 1)
	t.helpers.Add(h)
	for range h {
		go t.help()
	}
	defer t.dismiss()
	loop(t.step)
}

// slotsTaken counts the helper slots that running teams hold.
var slotsTaken atomic.Int64

// takeSlots takes up to want helper slots from the budget of
// GOMAXPROCS−1 and returns how many it took.
func takeSlots(want int) int {
	limit := int64(runtime.GOMAXPROCS(0) - 1)
	for {
		taken := slotsTaken.Load()
		k := min(int64(want), limit-taken)
		if k <= 0 {
			return 0
		}
		if slotsTaken.CompareAndSwap(taken, taken+k) {
			return int(k)
		}
	}
}

// ForSteps is Steps over For's chunks: each step calls fn(lo, hi) for the
// chunks of [0, n) that chunking(workers, n) cuts, the same in every step
// and for every For(workers, n, fn).
func ForSteps(workers, n int, fn func(lo, hi int), loop func(step func())) {
	size, parts := chunking(workers, n)
	Steps(parts, func(c int) {
		lo := c * size
		fn(lo, min(lo+size, n))
	}, loop)
}

// team is the state of one Steps call. gen counts the steps begun; a
// helper starts claiming when it changes. next and done count the running
// step's parts claimed and finished. step resets done, then next, then
// bumps gen: a helper still claiming from the step before can only take a
// part of the new step after next is reset, and then sees everything loop
// wrote before it.
type team struct {
	parts   int64
	part    func(int)
	gen     atomic.Uint64
	next    atomic.Int64
	done    atomic.Int64
	stop    atomic.Bool
	fault   atomic.Pointer[partPanic]
	helpers sync.WaitGroup
}

// partPanic holds the value a part panicked with on a helper.
type partPanic struct{ value any }

// step runs one step: it publishes the step, claims parts until none is
// left and waits for the rest.
func (t *team) step() {
	chunks.Add(t.parts)
	t.done.Store(0)
	t.next.Store(0)
	t.gen.Add(1)
	t.claim()
	for t.done.Load() < t.parts {
		pause()
	}
	if f := t.fault.Swap(nil); f != nil {
		//lint:ignore bannedcall re-raises on the caller a panic that a part raised on a helper; swallowing it would hand back a half-computed step
		panic(f.value)
	}
}

// claim runs unclaimed parts of the running step until none is left and
// reports whether it ran any.
func (t *team) claim() bool {
	ran := false
	for {
		i := t.next.Add(1) - 1
		if i >= t.parts {
			return ran
		}
		t.part(int(i))
		t.done.Add(1)
		ran = true
	}
}

// help is a helper's life: claim the parts of each new step until the
// team is dismissed, or until it finds a step with no part left after
// having run one before. Its slot goes back to the budget when it exits.
// A part that panics ends the helper; the panic is kept for step to raise
// and the part counts as finished, so the step's wait ends.
func (t *team) help() {
	defer t.helpers.Done()
	defer slotsTaken.Add(-1)
	defer func() {
		if r := recover(); r != nil {
			t.fault.CompareAndSwap(nil, &partPanic{r})
			t.done.Add(1)
		}
	}()
	var seen uint64
	joined := false
	for {
		g := t.gen.Load()
		if g == seen {
			if t.stop.Load() {
				return
			}
			pause()
			continue
		}
		seen = g
		ran := t.claim()
		if joined && !ran {
			return
		}
		joined = joined || ran
	}
}

// pause is one turn of a team member's wait: it lets the other goroutines
// of its P run, then the other threads queued on its core. The second
// matters when the host has fewer free cores than the team has threads,
// say beside another busy process: the thread a member waits on, the
// caller that publishes the next step or a helper that holds a part, may
// then sit on the waiting member's own core, and runtime.Gosched alone
// would keep that core until the host's scheduler takes it away, a time
// slice later.
func pause() {
	runtime.Gosched()
	osYield()
}

// dismiss stops the helpers and waits until they have exited.
func (t *team) dismiss() {
	t.stop.Store(true)
	t.helpers.Wait()
}
