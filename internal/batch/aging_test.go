// Lane-aging tests: strict priority must soften into a bounded starvation
// window — a queued item older than DefaultAgingWindow is served ahead of
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
// serve it before fresh High traffic. On a strict-priority queue (the
// behavior TestStrictPriorityBelowAgingWindow pins inside the window) the
// Low item below is never popped while High items remain, and this test
// fails.
func TestAgedLaneHeadOvertakesStrictPriority(t *testing.T) {
	const window = DefaultAgingWindow
	fc := newFakeClock()
	q := newLaneQueue(64, fc)

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
	const window = DefaultAgingWindow
	fc := newFakeClock()
	q := newLaneQueue(64, fc)

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

// TestStrictPriorityBelowAgingWindow pins down strict priority inside the
// window: a Low item that has waited just under DefaultAgingWindow still
// drains only after every queued High item.
func TestStrictPriorityBelowAgingWindow(t *testing.T) {
	fc := newFakeClock()
	q := newLaneQueue(64, fc)

	low := stampedTask(fc, LaneLow)
	if err := q.push(low); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := q.push(stampedTask(fc, LaneHigh)); err != nil {
			t.Fatal(err)
		}
	}
	fc.Advance(DefaultAgingWindow - time.Nanosecond)
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
// execute once its wait exceeds DefaultAgingWindow. Without aging (strict
// priority) the High items all execute first and the order assertion below
// fails. The Low item and three High items fill the one-worker queue.
func TestLaneAgingBoundsStarvationEndToEnd(t *testing.T) {
	fc := newFakeClock()
	b := newClockedBatcher(t, testOptions(1), fc)

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
	fc.Advance(DefaultAgingWindow * 3 / 5) // the High flood arrives later...
	for i := 0; i < 3; i++ {
		submit(fmt.Sprintf("high%d", i), LaneHigh)
	}
	fc.Advance(DefaultAgingWindow * 3 / 5) // ...and only the Low item is over the window

	release()
	if err := b.Wait(); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(order) != 4 {
		t.Fatalf("completed %d items, want 4 (%v)", len(order), order)
	}
	if order[0] != "low" {
		t.Fatalf("starved Low item must execute within the aging window; order %v", order)
	}
	for i := 1; i < 4; i++ {
		if want := fmt.Sprintf("high%d", i-1); order[i] != want {
			t.Fatalf("High backlog must drain FIFO after the aged item; order %v", order)
		}
	}
}
