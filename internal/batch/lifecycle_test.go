package batch

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSemaphoreWideNotStarvedByNarrowStream: a full-budget waiter queued
// first must be granted before any of a stream of width-1 acquisitions that
// arrive behind it — FIFO means narrow traffic cannot starve wide work.
func TestSemaphoreWideNotStarvedByNarrowStream(t *testing.T) {
	var s wsem
	s.free = 4
	s.acquire(1) // a narrow holder keeps the pool short of the full budget

	wideDone := make(chan struct{})
	go func() { s.acquire(4); close(wideDone) }()
	waitWaiters := func(want int) {
		for deadline := time.Now().Add(2 * time.Second); ; {
			s.mu.Lock()
			got := s.waiters.Len()
			s.mu.Unlock()
			if got >= want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %d queued waiters", want)
			}
			runtime.Gosched()
		}
	}
	waitWaiters(1) // the wide acquisition is at the queue front

	const narrows = 8
	var narrowGot atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < narrows; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.acquire(1)
			narrowGot.Add(1)
			s.release(1)
		}()
	}
	waitWaiters(1 + narrows) // the narrow stream queues behind it (3 tokens are free!)

	if got := narrowGot.Load(); got != 0 {
		t.Fatalf("%d narrow acquisitions jumped the FIFO queue", got)
	}
	s.release(1) // 4 free: the wide waiter must be served first
	select {
	case <-wideDone:
	case <-time.After(2 * time.Second):
		t.Fatal("full-budget waiter starved behind width-1 stream")
	}
	if got := narrowGot.Load(); got != 0 {
		t.Fatalf("%d narrow acquisitions passed before the wide waiter", got)
	}
	s.release(4) // now the narrow stream drains in order
	wg.Wait()
	if got := narrowGot.Load(); got != narrows {
		t.Fatalf("only %d/%d narrow acquisitions completed", got, narrows)
	}
}

// TestFlopsForSaturates pins the overflow clamp of the width policy's flop
// product: huge-but-representable shapes saturate at MaxInt64 instead of
// wrapping (the old 2*m*k*n wrapped to ~0 and granted width 1).
func TestFlopsForSaturates(t *testing.T) {
	if got := flopsFor(64, 64, 64); got != 2*64*64*64 {
		t.Errorf("flopsFor(64,64,64) = %d, want %d", got, 2*64*64*64)
	}
	huge := 1 << 31
	if got := flopsFor(huge, huge, huge); got != math.MaxInt64 {
		t.Errorf("flopsFor(huge) = %d, want MaxInt64", got)
	}
	if got := flopsFor(0, 64, 64); got != 0 {
		t.Errorf("flopsFor with a zero dim = %d, want 0", got)
	}
	if got := satMul64(math.MaxInt64, 2); got != math.MaxInt64 {
		t.Errorf("satMul64(MaxInt64, 2) = %d, want MaxInt64", got)
	}
}

func TestFloorPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 2, 4: 4, 5: 4, 7: 4, 8: 8, 9: 8, 1023: 512, 1024: 1024}
	for v, want := range cases {
		if got := floorPow2(v); got != want {
			t.Errorf("floorPow2(%d) = %d, want %d", v, got, want)
		}
	}
}

// TestWidthForEdgeCases pins the degenerate corners of the width policy: a
// grain cap that rounds to zero, a load exceeding the Workers budget, and a
// non-positive load all degrade to width 1, never 0 or negative.
func TestWidthForEdgeCases(t *testing.T) {
	b, err := New(testOptions(8))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	cases := []struct {
		name                string
		m, k, n, load, want int
	}{
		{"grain cap rounds to zero", 8, 8, 8, 1, 1},
		{"load exceeds Workers", 768, 768, 768, 20, 1},
		{"zero load treated as one", 768, 768, 768, 0, 8},
		{"negative load treated as one", 768, 768, 768, -3, 8},
		{"tiny problem under heavy load", 8, 8, 8, 100, 1},
		// 2·m·k·n overflows int64 for these absurd-but-representable
		// shapes; the saturating flop product must read "enormous" (full
		// fair share), not wrap to a value that starves the multiply.
		{"flop product would overflow", 1 << 21, 1 << 21, 1 << 21, 1, 8},
		{"overflow under load still splits", 1 << 21, 1 << 21, 1 << 21, 2, 4},
	}
	for _, c := range cases {
		if got := b.widthFor(c.m, c.k, c.n, c.load); got != c.want {
			t.Errorf("%s: widthFor(%d,%d,%d, load=%d) = %d, want %d",
				c.name, c.m, c.k, c.n, c.load, got, c.want)
		}
	}
}
