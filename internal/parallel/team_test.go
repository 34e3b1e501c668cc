package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// goroutinesSettle fails the test unless runtime.NumGoroutine() comes back
// to base: a helper that has called Done may still be on its way out, so
// the count is polled, yielding, until a deadline.
func goroutinesSettle(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the team returned, %d before", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

func TestStepsRunsEveryPartOncePerStep(t *testing.T) {
	for _, parts := range []int{0, 1, 2, 3, 8} {
		const steps = 200
		hits := make([]int64, parts)
		Steps(parts, func(i int) { atomic.AddInt64(&hits[i], 1) }, func(step func()) {
			for s := 0; s < steps; s++ {
				step()
				// Every part of this step has finished when step returns.
				for i := range hits {
					if h := atomic.LoadInt64(&hits[i]); h != int64(s+1) {
						t.Fatalf("parts=%d step %d: part %d ran %d times", parts, s, i, h)
					}
				}
			}
		})
	}
}

// TestStepsPublishesWrites checks the hand-offs without atomics in the
// kernel: loop writes the inputs of a step, the parts read them and write
// their own outputs, and loop reads the outputs after step. Under -race a
// missing happens-before edge is reported.
func TestStepsPublishesWrites(t *testing.T) {
	const parts = 4
	in := make([]int, parts)
	out := make([]int, parts)
	Steps(parts, func(i int) { out[i] = 2 * in[i] }, func(step func()) {
		for s := 0; s < 500; s++ {
			for i := range in {
				in[i] = s + i
			}
			step()
			for i, v := range out {
				if v != 2*(s+i) {
					t.Fatalf("step %d: out[%d] = %d, want %d", s, i, v, 2*(s+i))
				}
			}
		}
	})
}

// TestStepsHelpersExit pins the team's lifetime: whichever way loop ends
// — its normal end, an early break, an error return or a panic, on the
// caller or in a part a helper runs — no helper outlives Steps.
func TestStepsHelpersExit(t *testing.T) {
	errStop := errors.New("stop")
	cases := map[string]func(step func()) error{
		"normal end": func(step func()) error {
			for s := 0; s < 50; s++ {
				step()
			}
			return nil
		},
		"early break": func(step func()) error {
			for s := 0; s < 1000; s++ {
				step()
				if s == 3 {
					break
				}
			}
			return nil
		},
		"error return": func(step func()) error {
			for s := 0; ; s++ {
				step()
				if s == 3 {
					return errStop
				}
			}
		},
		"panic in loop": func(step func()) error {
			step()
			panic(errStop)
		},
	}
	for name, loop := range cases {
		t.Run(name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			var err error
			func() {
				defer func() {
					if r := recover(); r != nil {
						err = r.(error)
					}
				}()
				Steps(4, func(int) {}, func(step func()) { err = loop(step) })
			}()
			if name != "normal end" && name != "early break" && !errors.Is(err, errStop) {
				t.Fatalf("loop ended with %v, want %v", err, errStop)
			}
			goroutinesSettle(t, base)
		})
	}
}

// TestStepsPartPanicReachesCaller checks that a panic in a part reaches
// the caller of step whichever goroutine ran the part, and that the
// helpers have exited after it.
func TestStepsPartPanicReachesCaller(t *testing.T) {
	for bad := 0; bad < 4; bad++ {
		base := runtime.NumGoroutine()
		var got any
		func() {
			defer func() { got = recover() }()
			Steps(4, func(i int) {
				if i == bad {
					panic(fmt.Sprint("part ", i))
				}
			}, func(step func()) {
				for s := 0; s < 100; s++ {
					step()
				}
			})
		}()
		if want := fmt.Sprint("part ", bad); got != want {
			t.Fatalf("recovered %v, want %q", got, want)
		}
		goroutinesSettle(t, base)
	}
}

// TestStepsOneCore runs a team of four parts with one scheduling core:
// the budget has no helper slot, so the caller runs every part.
func TestStepsOneCore(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var total int64
	Steps(4, func(i int) { atomic.AddInt64(&total, int64(i)) }, func(step func()) {
		for s := 0; s < 1000; s++ {
			step()
		}
	})
	if total != 1000*(0+1+2+3) {
		t.Fatalf("parts summed to %d, want %d", total, 1000*6)
	}
}

// TestTakeSlotsBudget pins the helper budget: GOMAXPROCS−1 slots for the
// whole process, handed out until none is left.
func TestTakeSlotsBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	if got := takeSlots(3); got != 2 {
		t.Fatalf("first team took %d slots at GOMAXPROCS 3, want 2", got)
	}
	if got := takeSlots(1); got != 0 {
		t.Fatalf("second team took %d slots with the budget spent, want 0", got)
	}
	slotsTaken.Add(-1)
	if got := takeSlots(5); got != 1 {
		t.Fatalf("third team took %d slots with one free, want 1", got)
	}
	slotsTaken.Add(-2)
	runtime.GOMAXPROCS(1)
	if got := takeSlots(3); got != 0 {
		t.Fatalf("took %d slots at GOMAXPROCS 1, want 0", got)
	}
}

// TestConcurrentTeamsShareTheBudget runs more teams at once than there
// are cores: together they never hold more than GOMAXPROCS−1 helpers,
// every part of every step runs once, and the slots are back when the
// teams have returned.
func TestConcurrentTeamsShareTheBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const teams, parts, steps = 6, 4, 300
	var over atomic.Bool
	totals := make([]int64, teams)
	done := make(chan struct{})
	for k := range teams {
		go func() {
			defer func() { done <- struct{}{} }()
			Steps(parts, func(i int) {
				if slotsTaken.Load() > 1 {
					over.Store(true)
				}
				atomic.AddInt64(&totals[k], int64(i))
			}, func(step func()) {
				for range steps {
					step()
				}
			})
		}()
	}
	for range teams {
		<-done
	}
	if over.Load() {
		t.Error("the running teams held more than GOMAXPROCS−1 helper slots")
	}
	for k, got := range totals {
		if want := int64(steps * (0 + 1 + 2 + 3)); got != want {
			t.Errorf("team %d: parts summed to %d, want %d", k, got, want)
		}
	}
	if n := slotsTaken.Load(); n != 0 {
		t.Errorf("%d helper slots still taken after every team returned", n)
	}
}

// TestStepsLaggingHelperLeaves makes the team's one helper fall behind:
// after a step it took part in, the cores drop to one, so the caller runs
// every part of the next step before the helper gets to look. The helper
// must then leave and give its slot back while loop still runs, and the
// caller must run the remaining steps alone.
func TestStepsLaggingHelperLeaves(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var arrived atomic.Int64
	var total int64
	Steps(2, func(i int) {
		// The first step's parts wait for each other, so the helper runs one.
		if arrived.Add(1) <= 2 {
			for arrived.Load() < 2 {
				runtime.Gosched()
			}
		}
		atomic.AddInt64(&total, int64(i+1))
	}, func(step func()) {
		if n := slotsTaken.Load(); n != 1 {
			t.Fatalf("the team holds %d helper slots, want 1", n)
		}
		step()
		runtime.GOMAXPROCS(1)
		step()
		deadline := time.Now().Add(5 * time.Second)
		for slotsTaken.Load() != 0 {
			if time.Now().After(deadline) {
				t.Fatal("the lagging helper did not leave the team")
			}
			runtime.Gosched()
		}
		for range 10 {
			step()
		}
	})
	if want := int64(12 * (1 + 2)); total != want {
		t.Fatalf("parts summed to %d, want %d", total, want)
	}
}

// TestForStepsMatchesForChunks pins ForSteps' parts, on every step of a
// loop, to For's chunks.
func TestForStepsMatchesForChunks(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 8} {
		for _, n := range []int{0, 1, 2, 7, 103} {
			forChunks := make(chan [2]int, n+1)
			For(workers, n, func(lo, hi int) { forChunks <- [2]int{lo, hi} })
			close(forChunks)
			want := map[[2]int]bool{}
			for c := range forChunks {
				want[c] = true
			}
			got := make(chan [2]int, n+1)
			ForSteps(workers, n, func(lo, hi int) { got <- [2]int{lo, hi} }, func(step func()) {
				for s := 0; s < 3; s++ {
					step()
					count := 0
					for len(got) > 0 {
						c := <-got
						count++
						if !want[c] {
							t.Fatalf("workers=%d n=%d step %d: ForSteps chunk %v is not a For chunk", workers, n, s, c)
						}
					}
					if count != len(want) {
						t.Fatalf("workers=%d n=%d step %d: %d ForSteps chunks, %d For chunks", workers, n, s, count, len(want))
					}
				}
			})
		}
	}
}

func TestChunkCountMetersTeamSteps(t *testing.T) {
	before := ChunkCount()
	Steps(1, func(int) {}, func(step func()) { step() }) // inline, not a parallel chunk
	if got := ChunkCount(); got != before {
		t.Errorf("one-part step counted as chunks: %d -> %d", before, got)
	}
	Steps(3, func(int) {}, func(step func()) {
		step()
		step()
	})
	if got := ChunkCount(); got != before+6 {
		t.Errorf("ChunkCount = %d after two 3-part steps, want %d", got, before+6)
	}
	For(1, 9, func(int, int) {}) // one chunk, inline
	if got := ChunkCount(); got != before+6 {
		t.Errorf("one-chunk For counted as chunks: %d -> %d", before+6, got)
	}
	For(3, 9, func(int, int) {})
	if got := ChunkCount(); got != before+9 {
		t.Errorf("ChunkCount = %d after a 3-chunk For, want %d", got, before+9)
	}
}
