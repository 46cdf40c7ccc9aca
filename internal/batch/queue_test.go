package batch

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

func laneTask(l Lane) *task {
	return &task{lane: l, ticket: Ticket{done: make(chan struct{})}}
}

// testQueue builds a queue on a fake clock with aging disabled — the strict-
// priority behavior the scheduling-order tests pin down. Aging has its own
// tests (aging_test.go).
func testQueue(capacity int) *laneQueue {
	return newLaneQueue(capacity, newFakeClock())
}

// TestLaneQueuePriorityOrder: pop must drain High before Normal before Low,
// FIFO within each lane, regardless of arrival order.
func TestLaneQueuePriorityOrder(t *testing.T) {
	q := testQueue(16)
	low0, low1 := laneTask(LaneLow), laneTask(LaneLow)
	norm0, norm1 := laneTask(LaneNormal), laneTask(LaneNormal)
	high0, high1 := laneTask(LaneHigh), laneTask(LaneHigh)
	for _, tk := range []*task{low0, norm0, high0, low1, high1, norm1} {
		if err := q.push(tk); err != nil {
			t.Fatal(err)
		}
	}
	if got := q.depth(); got != 6 {
		t.Fatalf("depth = %d, want 6", got)
	}
	want := []*task{high0, high1, norm0, norm1, low0, low1}
	for i, w := range want {
		got, ok := q.pop()
		if !ok || got != w {
			t.Fatalf("pop %d: got lane %v task %p, want lane %v task %p", i, got.lane, got, w.lane, w)
		}
	}
	if got := q.depth(); got != 0 {
		t.Fatalf("depth after drain = %d, want 0", got)
	}
}

// TestLaneQueueBackpressure: push blocks at capacity (across lanes, one
// shared budget) and resumes when a pop frees a slot.
func TestLaneQueueBackpressure(t *testing.T) {
	q := testQueue(2)
	if err := q.push(laneTask(LaneLow)); err != nil {
		t.Fatal(err)
	}
	if err := q.push(laneTask(LaneHigh)); err != nil {
		t.Fatal(err)
	}
	pushed := make(chan error, 1)
	go func() { pushed <- q.push(laneTask(LaneNormal)) }()
	select {
	case <-pushed:
		t.Fatal("push into a full queue must block")
	case <-time.After(20 * time.Millisecond):
	}
	if _, ok := q.pop(); !ok {
		t.Fatal("pop from a non-empty queue failed")
	}
	select {
	case err := <-pushed:
		if err != nil {
			t.Fatalf("unblocked push failed: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("push did not unblock after a pop freed capacity")
	}
}

// TestLaneQueueClose: close fails parked pushers with ErrClosed, lets
// poppers drain the backlog, then reports done.
func TestLaneQueueClose(t *testing.T) {
	q := testQueue(1)
	if err := q.push(laneTask(LaneNormal)); err != nil {
		t.Fatal(err)
	}
	pushed := make(chan error, 1)
	go func() { pushed <- q.push(laneTask(LaneNormal)) }()
	// Yield so the pusher reaches its parked state; if it has not yet, it
	// observes closed on entry instead — either way the assertion holds.
	for i := 0; i < 100; i++ {
		runtime.Gosched()
	}
	q.close()
	select {
	case err := <-pushed:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("parked push after close: got %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("close did not wake the parked pusher")
	}
	if _, ok := q.pop(); !ok {
		t.Fatal("the queued backlog must drain after close")
	}
	if _, ok := q.pop(); ok {
		t.Fatal("pop on a closed drained queue must report done")
	}
	if err := q.push(laneTask(LaneNormal)); !errors.Is(err, ErrClosed) {
		t.Fatalf("push after close: got %v, want ErrClosed", err)
	}
}

// TestLaneQueuePopBlocksUntilPush: a parked popper wakes on the next push.
func TestLaneQueuePopBlocksUntilPush(t *testing.T) {
	q := testQueue(4)
	got := make(chan *task, 1)
	go func() {
		tk, ok := q.pop()
		if !ok {
			t.Error("pop reported closed on an open queue")
		}
		got <- tk
	}()
	select {
	case <-got:
		t.Fatal("pop on an empty queue must block")
	case <-time.After(20 * time.Millisecond):
	}
	want := laneTask(LaneHigh)
	if err := q.push(want); err != nil {
		t.Fatal(err)
	}
	select {
	case tk := <-got:
		if tk != want {
			t.Fatal("popper received the wrong task")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("push did not wake the parked popper")
	}
}

func TestLaneStrings(t *testing.T) {
	cases := map[Lane]string{LaneHigh: "high", LaneNormal: "normal", LaneLow: "low", Lane(9): "invalid"}
	for l, want := range cases {
		if got := l.String(); got != want {
			t.Errorf("Lane(%d).String() = %q, want %q", int(l), got, want)
		}
	}
	if Lane(9).valid() || Lane(-1).valid() {
		t.Error("out-of-range lanes must be invalid")
	}
	if !LaneHigh.valid() || !LaneNormal.valid() || !LaneLow.valid() {
		t.Error("the three lanes must be valid")
	}
}
