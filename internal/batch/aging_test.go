// Lane-aging tests: strict priority must soften into a bounded starvation
// window — a queued item older than Options.AgingWindow is served ahead of
// higher-priority lanes. Everything runs on the fake clock; aging decisions
// are pure state transitions here.
package batch

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"fastmm/internal/mat"
)

func stampedTask(fc *fakeClock, l Lane) *task {
	tk := laneTask(l)
	tk.submitted = fc.Now()
	return tk
}

// TestAgedLaneHeadOvertakesStrictPriority is the queue-level regression test
// of the aging redesign: once a Low head has waited past the window, pop must
// serve it before fresh High traffic. On the pre-aging strict-priority queue
// (aging disabled — see TestStrictPriorityStarvesWithoutAging for that
// behavior pinned down) the Low item below is never popped while High items
// remain, and this test fails.
func TestAgedLaneHeadOvertakesStrictPriority(t *testing.T) {
	const window = 10 * time.Millisecond
	fc := newFakeClock()
	q := newLaneQueue(64, fc, window)

	low := stampedTask(fc, LaneLow)
	if err := q.push(low); err != nil {
		t.Fatal(err)
	}
	fc.Advance(2 * time.Millisecond) // the High flood arrives after the Low item
	for i := 0; i < 3; i++ {
		if err := q.push(stampedTask(fc, LaneHigh)); err != nil {
			t.Fatal(err)
		}
	}

	// Under the window: strict priority, High first.
	tk, ok := q.pop()
	if !ok || tk.lane != LaneHigh {
		t.Fatalf("young Low item must not overtake High (got lane %v)", tk.lane)
	}

	// The Low head ages past the window (the High heads stay under it) while
	// High traffic keeps arriving.
	fc.Advance(window - 2*time.Millisecond)
	if err := q.push(stampedTask(fc, LaneHigh)); err != nil {
		t.Fatal(err)
	}
	tk, ok = q.pop()
	if !ok || tk != low {
		t.Fatalf("aged Low head must be served before High traffic (got lane %v)", tk.lane)
	}

	// With the aged head gone, the backlog drains by strict priority again.
	for i := 0; i < 3; i++ {
		tk, ok = q.pop()
		if !ok || tk.lane != LaneHigh {
			t.Fatalf("drain %d: got lane %v, want high", i, tk.lane)
		}
	}
	if got := q.depth(); got != 0 {
		t.Fatalf("depth after drain = %d, want 0", got)
	}
}

// TestAgedOldestHeadWinsAcrossLanes: when several lane heads are over the
// window, the oldest submission is served first, regardless of lane priority.
func TestAgedOldestHeadWinsAcrossLanes(t *testing.T) {
	const window = 10 * time.Millisecond
	fc := newFakeClock()
	q := newLaneQueue(64, fc, window)

	low := stampedTask(fc, LaneLow) // oldest
	if err := q.push(low); err != nil {
		t.Fatal(err)
	}
	fc.Advance(2 * time.Millisecond)
	norm := stampedTask(fc, LaneNormal)
	if err := q.push(norm); err != nil {
		t.Fatal(err)
	}
	fc.Advance(2 * time.Millisecond)
	if err := q.push(stampedTask(fc, LaneHigh)); err != nil {
		t.Fatal(err)
	}

	fc.Advance(window) // both Low and Normal heads are over the window
	if tk, _ := q.pop(); tk != low {
		t.Fatalf("oldest aged head (Low) must win, got lane %v", tk.lane)
	}
	if tk, _ := q.pop(); tk != norm {
		t.Fatalf("next-oldest aged head (Normal) must follow, got lane %v", tk.lane)
	}
	if tk, _ := q.pop(); tk.lane != LaneHigh {
		t.Fatalf("High drains last once aged heads are served, got lane %v", tk.lane)
	}
}

// TestStrictPriorityStarvesWithoutAging pins down the pre-PR behavior the
// aging window exists to bound: with aging disabled, a Low item starves
// behind queued High traffic no matter how much time passes.
func TestStrictPriorityStarvesWithoutAging(t *testing.T) {
	fc := newFakeClock()
	q := newLaneQueue(64, fc, 0) // aging disabled: the old strict-priority queue

	low := stampedTask(fc, LaneLow)
	if err := q.push(low); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := q.push(stampedTask(fc, LaneHigh)); err != nil {
			t.Fatal(err)
		}
	}
	fc.Advance(time.Hour) // an unbounded wait changes nothing without aging
	for i := 0; i < 3; i++ {
		tk, _ := q.pop()
		if tk.lane != LaneHigh {
			t.Fatalf("strict priority must drain High first (pop %d got %v)", i, tk.lane)
		}
	}
	if tk, _ := q.pop(); tk != low {
		t.Fatal("the Low item drains only after every High item")
	}
}

// TestLaneAgingBoundsStarvationEndToEnd drives aging through the full
// batcher: a Low item queued behind a High backlog must be the first to
// execute once its wait exceeds Options.AgingWindow. Without aging (the
// pre-PR scheduler, Options.AgingWindow < 0) the High items all execute
// first and the order assertion below fails.
func TestLaneAgingBoundsStarvationEndToEnd(t *testing.T) {
	const window = 50 * time.Millisecond
	fc := newFakeClock()
	opts := testOptions(1)
	opts.Clock = fc
	opts.AgingWindow = window
	opts.QueueDepth = 64
	b := newTestBatcher(t, opts)

	release := blockRunners(t, b, 1)

	var mu sync.Mutex
	var order []string
	const n = 64
	A, B := randMat(n, n, 1), randMat(n, n, 2)
	submit := func(label string, lane Lane) {
		t.Helper()
		_, err := b.SubmitRequest(mulReq(mat.New(n, n), A, B), SubmitOpts{Lane: lane, Callback: func(err error) {
			if err != nil {
				t.Errorf("item %s: %v", label, err)
			}
			mu.Lock()
			order = append(order, label)
			mu.Unlock()
		}})
		if err != nil {
			t.Fatal(err)
		}
	}

	submit("low", LaneLow)
	fc.Advance(30 * time.Millisecond) // the High flood arrives later...
	for i := 0; i < 4; i++ {
		submit(fmt.Sprintf("high%d", i), LaneHigh)
	}
	fc.Advance(30 * time.Millisecond) // ...and only the Low item is over the window

	release()
	if err := b.Wait(); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(order) != 5 {
		t.Fatalf("completed %d items, want 5 (%v)", len(order), order)
	}
	if order[0] != "low" {
		t.Fatalf("starved Low item must execute within the aging window; order %v", order)
	}
	for i := 1; i < 5; i++ {
		if want := fmt.Sprintf("high%d", i-1); order[i] != want {
			t.Fatalf("High backlog must drain FIFO after the aged item; order %v", order)
		}
	}
}
