package core

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestLRUTableEvictsColdestOnly(t *testing.T) {
	tab := newLRU[int, int](3)
	var evicted int64
	for k := 1; k <= 3; k++ {
		evicted += tab.put(k, k*10)
	}
	if evicted != 0 {
		t.Fatalf("evictions before the table is full: %d", evicted)
	}
	// Refresh key 1, then overflow: key 2 is now the coldest.
	if v, ok := tab.get(1); !ok || v != 10 {
		t.Fatalf("get(1) = %v, %v", v, ok)
	}
	evicted += tab.put(4, 40)
	if evicted != 1 {
		t.Fatalf("want exactly one eviction, got %d", evicted)
	}
	if _, ok := tab.get(2); ok {
		t.Error("coldest key 2 survived the eviction")
	}
	for _, k := range []int{1, 3, 4} {
		if _, ok := tab.get(k); !ok {
			t.Errorf("hot key %d was evicted", k)
		}
	}
	if tab.len() != 3 {
		t.Errorf("table holds %d entries, cap is 3", tab.len())
	}
}

func TestLRUTablePutExistingRefreshes(t *testing.T) {
	tab := newLRU[string, int](2)
	tab.put("a", 1)
	tab.put("b", 2)
	if ev := tab.put("a", 3); ev != 0 {
		t.Fatalf("re-put of live key evicted %d entries", ev)
	}
	if v, _ := tab.get("a"); v != 3 {
		t.Errorf("re-put did not update the value: got %d", v)
	}
	tab.put("c", 4) // "b" is coldest now that "a" was refreshed
	if _, ok := tab.get("b"); ok {
		t.Error("expected b to be evicted after a was refreshed")
	}
}

// TestMemoEvictionKeepsHotEntries drives the Poisson table past its cap
// while re-reading one hot key every step: under LRU the hot entry must
// survive the whole sweep (the old clear-on-overflow policy wiped it), the
// eviction counter must account for the overflow exactly, and the table
// must stay within its bound.
func TestMemoEvictionKeepsHotEntries(t *testing.T) {
	const cap = 8
	m := newMemo(cap)
	hotQ := 3.5
	if _, err := m.Poisson(hotQ, 1e-9); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3*cap; i++ {
		if _, err := m.Poisson(10+float64(i), 1e-9); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Poisson(hotQ, 1e-9); err != nil {
			t.Fatal(err)
		}
	}
	st := m.stats()
	// Every hotQ read after the first must have been a hit.
	if st.Hits < int64(3*cap) {
		t.Errorf("hot key was evicted: only %d hits", st.Hits)
	}
	if st.Misses != int64(1+3*cap) {
		t.Errorf("misses = %d, want %d", st.Misses, 1+3*cap)
	}
	wantEv := int64(1 + 3*cap - cap) // inserts beyond capacity
	if st.Evictions != wantEv {
		t.Errorf("evictions = %d, want %d", st.Evictions, wantEv)
	}
	if st.Entries != cap {
		t.Errorf("entries = %d, want table at cap %d", st.Entries, cap)
	}
}

func TestOptionsMemoCap(t *testing.T) {
	opts := DefaultOptions()
	opts.MemoCap = 2
	c := New(tinyModel(t), opts)
	for i := 0; i < 5; i++ {
		if _, err := c.memo.Poisson(2+float64(i), 1e-9); err != nil {
			t.Fatal(err)
		}
	}
	st := c.MemoStats()
	if st.Entries != 2 {
		t.Errorf("entries = %d, want MemoCap 2 respected", st.Entries)
	}
	if st.Evictions != 3 {
		t.Errorf("evictions = %d, want 3", st.Evictions)
	}
}

func TestMemoStatsNil(t *testing.T) {
	var m *memo
	if st := m.stats(); st != (MemoStats{}) {
		t.Errorf("nil memo stats = %+v, want zeroes", st)
	}
}

// TestMemoBuildsOutsideTheLock pins that a build does not hold the memo:
// while one request's lump build is blocked, a Fox–Glynn lookup on the
// same checker completes, and a second caller of the blocked key waits for
// that one build instead of starting its own.
func TestMemoBuildsOutsideTheLock(t *testing.T) {
	c := New(tinyModel(t), Options{})
	started, release := make(chan struct{}), make(chan struct{})
	var builds atomic.Int32
	build := func() *lumpEntry {
		if builds.Add(1) == 1 {
			close(started)
		}
		<-release
		return &lumpEntry{}
	}
	key := lumpKey{atoms: "blocked"}
	entries := make(chan *lumpEntry, 2)
	go func() { entries <- c.memo.lump(key, build) }()
	<-started
	go func() { entries <- c.memo.lump(key, build) }()

	looked := make(chan error, 1)
	go func() {
		_, err := c.memo.Poisson(2.5, 1e-9)
		looked <- err
	}()
	select {
	case err := <-looked:
		if err != nil {
			t.Errorf("Poisson: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Error("a Poisson lookup waited on another key's lump build")
	}
	close(release)
	first, second := <-entries, <-entries
	if first != second {
		t.Error("two callers of one key got different entries")
	}
	if n := builds.Load(); n != 1 {
		t.Errorf("one key built %d times, want 1", n)
	}
	if e := c.memo.lump(key, build); e != first {
		t.Error("the built entry was not cached")
	}
}

// TestMemoFailedBuildNotCached pins that a failed build leaves no entry:
// the next lookup of the key builds again.
func TestMemoFailedBuildNotCached(t *testing.T) {
	m := newMemo(0)
	boom := errors.New("boom")
	calls := 0
	fail := func() (int, error) {
		calls++
		return 0, boom
	}
	tab := newLRU[int, int](4)
	for i := 0; i < 2; i++ {
		if _, err := lookup(m, &tab, 1, fail); !errors.Is(err, boom) {
			t.Fatalf("lookup %d: error %v, want %v", i, err, boom)
		}
	}
	if calls != 2 || tab.len() != 0 {
		t.Errorf("%d builds and %d entries after two failed lookups, want 2 and 0", calls, tab.len())
	}
}
