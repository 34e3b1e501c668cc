package sparse

import (
	"math"
	"sync"
	"testing"
)

func TestVecPoolRecyclesAndZeroes(t *testing.T) {
	p := NewVecPool()
	v := p.Get(8)
	if len(v) != 8 {
		t.Fatalf("Get(8) returned length %d", len(v))
	}
	for i := range v {
		v[i] = float64(i) + 1
	}
	first := &v[0]
	p.Put(v)
	if got := p.Len(8); got != 1 {
		t.Fatalf("Len(8) = %d after one Put", got)
	}
	w := p.Get(8)
	if &w[0] != first {
		t.Error("Get did not recycle the Put buffer")
	}
	for i, x := range w {
		if math.Float64bits(x) != 0 {
			t.Fatalf("recycled buffer not zeroed at %d: %v", i, x)
		}
	}
	if got := p.Len(8); got != 0 {
		t.Fatalf("Len(8) = %d after Get drained the pool", got)
	}
}

func TestVecPoolKeysBySize(t *testing.T) {
	p := NewVecPool()
	p.Put(make([]float64, 4))
	p.Put(make([]float64, 9))
	if p.Len(4) != 1 || p.Len(9) != 1 || p.Len(5) != 0 {
		t.Fatalf("size keying broken: Len(4)=%d Len(9)=%d Len(5)=%d", p.Len(4), p.Len(9), p.Len(5))
	}
	if got := len(p.Get(5)); got != 5 {
		t.Fatalf("Get(5) with no free buffer returned length %d", got)
	}
}

func TestVecPoolNilReceiverAndDegenerateInputs(t *testing.T) {
	var p *VecPool
	v := p.Get(3)
	if len(v) != 3 {
		t.Fatalf("nil pool Get(3) returned length %d", len(v))
	}
	p.Put(v) // must not panic
	if p.Len(3) != 0 {
		t.Fatal("nil pool reports stored buffers")
	}
	q := NewVecPool()
	q.Put(nil) // no-op
	q.Put([]float64{})
	if q.Len(0) != 0 {
		t.Fatal("empty buffers must not be pooled")
	}
}

func TestVecPoolCapBoundsRetention(t *testing.T) {
	p := NewVecPool()
	for i := 0; i < poolCapPerSize+10; i++ {
		p.Put(make([]float64, 2))
	}
	if got := p.Len(2); got != poolCapPerSize {
		t.Fatalf("Len(2) = %d, want cap %d", got, poolCapPerSize)
	}
}

// TestVecPoolConcurrent hammers one pool from concurrent tasks; it exists
// for the -race leg of CI. Each task checks buffers out, writes a unique
// stamp, verifies the stamp before check-in — a buffer handed to two owners
// at once fails the verification even without the race detector.
func TestVecPoolConcurrent(t *testing.T) {
	p := NewVecPool()
	const tasks = 8
	errs := make([]error, tasks)
	var wg sync.WaitGroup
	for i := 0; i < tasks; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 200; rep++ {
				v := p.Get(16)
				stamp := float64(i*1000 + rep)
				for j := range v {
					v[j] = stamp
				}
				for j := range v {
					if math.Float64bits(v[j]) != math.Float64bits(stamp) {
						errs[i] = errDoubleOwner(i, rep, j)
						return
					}
				}
				p.Put(v)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

type doubleOwnerErr struct{ task, rep, idx int }

func errDoubleOwner(task, rep, idx int) error { return doubleOwnerErr{task, rep, idx} }

func (e doubleOwnerErr) Error() string {
	return "buffer owned by two tasks at once"
}
