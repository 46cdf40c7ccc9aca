package batch

import (
	"errors"
	"sync"
	"time"
)

// ErrDeadlineExceeded is the per-item sentinel for a submission whose
// SubmitOpts.Deadline passed before it started executing. It surfaces on the
// item's Ticket and completion callback only — never folded into Wait's
// aggregated error, because for deadline'd traffic (speculative work, Low-lane
// bulk with freshness bounds) expiry is an expected outcome, not a batch
// failure.
var ErrDeadlineExceeded = errors.New("batch: deadline exceeded")

// Lane is a submission priority lane. Runners always drain the
// highest-priority non-empty lane first (strict priority, FIFO within a
// lane), so a saturating Low-lane flood cannot delay High-lane work by more
// than the items already executing. The zero value is LaneNormal; sustained
// higher-priority traffic can starve lower lanes — deadlines are the
// intended bound on how long starved items linger.
type Lane int

const (
	// LaneNormal is the default lane (the zero value of SubmitOpts).
	LaneNormal Lane = iota
	// LaneHigh is for latency-sensitive work: interactive requests that
	// must overtake any queued bulk traffic.
	LaneHigh
	// LaneLow is for bulk/background work that should only run when
	// nothing more urgent is queued.
	LaneLow

	numLanes
)

// laneOrder is the dequeue priority, front first.
var laneOrder = [numLanes]Lane{LaneHigh, LaneNormal, LaneLow}

func (l Lane) String() string {
	switch l {
	case LaneHigh:
		return "high"
	case LaneNormal:
		return "normal"
	case LaneLow:
		return "low"
	}
	return "invalid"
}

func (l Lane) valid() bool { return l >= 0 && l < numLanes }

// SubmitOpts carries the per-item scheduling options of SubmitRequest. The
// zero value queues on the Normal lane with no deadline and no callback.
type SubmitOpts struct {
	// Lane is the priority lane the item queues on.
	Lane Lane
	// Deadline, when nonzero, bounds how long the item may wait: an item
	// that has not started executing by its deadline fails fast with
	// ErrDeadlineExceeded (on its Ticket and Callback) instead of occupying
	// a runner. A deadline does not cancel an execution already underway.
	Deadline time.Time
	// Callback, when non-nil, is invoked exactly once with the item's
	// error (nil on success) after the item resolves, on a batcher
	// goroutine — the runner for executed items, a dedicated goroutine for
	// every deadline expiry — never on the submitter's goroutine. Keep it
	// cheap or hand off; a blocking callback occupies the runner. Servers
	// use it to complete requests without ticket bookkeeping.
	//
	// Callbacks complete before the item is released to Wait/Close, so
	// once Wait or Close returns every callback has finished — the
	// guarantee a server needs to tear down per-request state. The flip
	// side is a hard rule: a callback must not call Wait or Close on the
	// same batcher (its own item still counts as outstanding while it
	// runs, so either call self-deadlocks) — hand shutdown off to another
	// goroutine instead.
	Callback func(error)
}

// laneQueue is the batcher's bounded priority submission queue: one FIFO
// ring per lane under a single capacity shared across lanes, with blocking
// push (backpressure toward submitters) and blocking pop (runners park on an
// empty queue). Rings rather than sliced-forward slices keep the steady
// state allocation-free — the allocs-per-item trend gate in CI counts every
// byte of the async path.
//
// Strict priority is softened by aging: when a lane's head item has waited
// longer than DefaultAgingWindow, pop serves it ahead of higher-priority
// lanes (oldest over-window head first), so a sustained High flood can delay
// a Low item by at most the window plus the executions already in flight —
// a bounded starvation window instead of an unbounded one.
type laneQueue struct {
	mu       sync.Mutex
	notEmpty sync.Cond
	notFull  sync.Cond
	lanes    [numLanes]taskRing
	// estSum tracks the summed estimated service nanoseconds of each lane's
	// queued items — the backlog currency of admission control, maintained
	// on push/pop/sweep so backlogAhead is O(lanes), not O(items).
	estSum   [numLanes]int64
	size     int
	capacity int
	closed   bool
	clock    Clock
	// deadlineSig nudges the sweeper when a deadline'd item is pushed;
	// done wakes it (and any other select-based observer) on close.
	deadlineSig chan struct{}
	done        chan struct{}
}

// taskRing is a growable FIFO ring of tasks; steady-state push/pop never
// allocates once the ring has grown to the working depth.
type taskRing struct {
	buf  []*task
	head int
	n    int
}

//fastmm:zeroalloc
func (r *taskRing) push(t *task) {
	if r.n == len(r.buf) {
		grown := make([]*task, max(8, 2*len(r.buf))) //fastmm:allow amortized ring growth, stops at the working depth
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = t
	r.n++
}

// peek returns the ring's head (its oldest task) without removing it, nil
// when empty.
func (r *taskRing) peek() *task {
	if r.n == 0 {
		return nil
	}
	return r.buf[r.head]
}

//fastmm:zeroalloc
func (r *taskRing) pop() *task {
	t := r.buf[r.head]
	r.buf[r.head] = nil // release the task to the GC
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return t
}

// sweepExpired compacts the ring in FIFO order, appending expired tasks to
// the given slice and reporting the earliest deadline among the survivors
// (zero when none carries one).
func (r *taskRing) sweepExpired(now time.Time, expired []*task) ([]*task, time.Time) {
	var next time.Time
	kept := 0
	for i := 0; i < r.n; i++ {
		t := r.buf[(r.head+i)%len(r.buf)]
		if t.expired(now) {
			expired = append(expired, t)
			continue
		}
		if !t.deadline.IsZero() && (next.IsZero() || t.deadline.Before(next)) {
			next = t.deadline
		}
		r.buf[(r.head+kept)%len(r.buf)] = t
		kept++
	}
	for i := kept; i < r.n; i++ {
		r.buf[(r.head+i)%len(r.buf)] = nil
	}
	r.n = kept
	return expired, next
}

func newLaneQueue(capacity int, clock Clock) *laneQueue {
	q := &laneQueue{
		capacity:    capacity,
		clock:       clock,
		deadlineSig: make(chan struct{}, 1),
		done:        make(chan struct{}),
	}
	q.notEmpty.L = &q.mu
	q.notFull.L = &q.mu
	return q
}

// push enqueues t on its lane, blocking while the queue is at capacity.
// It returns ErrClosed if the queue closed before the item was accepted.
//
//fastmm:zeroalloc
func (q *laneQueue) push(t *task) error {
	q.mu.Lock()
	for q.size >= q.capacity && !q.closed {
		q.notFull.Wait()
	}
	if q.closed {
		q.mu.Unlock()
		return ErrClosed
	}
	q.lanes[t.lane].push(t)
	q.estSum[t.lane] += t.est
	q.size++
	q.mu.Unlock()
	q.notEmpty.Signal()
	if !t.deadline.IsZero() {
		select { // nudge the sweeper; a pending nudge already covers us
		case q.deadlineSig <- struct{}{}:
		default:
		}
	}
	return nil
}

// pop dequeues the next item, blocking while the queue is empty: normally
// the oldest item of the highest-priority non-empty lane, but any lane head
// that has aged past the window is served first (oldest such head wins), so
// lower lanes starve for at most the window under sustained high-priority
// traffic. ok=false means closed and fully drained — the runner's signal to
// exit.
//
//fastmm:zeroalloc
func (q *laneQueue) pop() (t *task, ok bool) {
	q.mu.Lock()
	for q.size == 0 && !q.closed {
		q.notEmpty.Wait()
	}
	if q.size == 0 {
		q.mu.Unlock()
		return nil, false
	}
	lane := Lane(-1)
	now := q.clock.Now() //fastmm:allow injected Clock interface: wallClock in prod, fake in tests
	var oldest time.Time
	for _, l := range laneOrder {
		h := q.lanes[l].peek()
		if h == nil || h.submitted.IsZero() || now.Sub(h.submitted) < DefaultAgingWindow {
			continue
		}
		if oldest.IsZero() || h.submitted.Before(oldest) {
			oldest, lane = h.submitted, l
		}
	}
	aged := lane >= 0
	if lane < 0 {
		for _, l := range laneOrder {
			if q.lanes[l].n > 0 {
				lane = l
				break
			}
		}
	}
	t = q.lanes[lane].pop()
	t.aged = aged
	q.estSum[lane] -= t.est
	q.size--
	q.mu.Unlock()
	q.notFull.Signal()
	return t, true
}

// backlogAhead returns the summed estimated service nanoseconds of every
// queued item a new submission on the given lane would wait behind: its own
// lane plus all higher-priority lanes. Aging promotions can only add lower-
// lane items ahead of it, so this is a lower bound — exactly what admission
// control needs (reject only on guaranteed misses).
func (q *laneQueue) backlogAhead(lane Lane) int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	var sum int64
	for _, l := range laneOrder {
		sum += q.estSum[l]
		if l == lane {
			break
		}
	}
	return sum
}

// laneDepths reports the per-lane queued item counts.
func (q *laneQueue) laneDepths() (d [numLanes]int) {
	q.mu.Lock()
	for l := range q.lanes {
		d[l] = q.lanes[l].n
	}
	q.mu.Unlock()
	return d
}

// close marks the queue closed and wakes every parked pusher (they fail with
// ErrClosed), popper (they drain the backlog, then exit), and the sweeper.
func (q *laneQueue) close() {
	q.mu.Lock()
	wasClosed := q.closed
	q.closed = true
	q.mu.Unlock()
	if !wasClosed {
		close(q.done)
	}
	q.notEmpty.Broadcast()
	q.notFull.Broadcast()
}

// sweepExpired removes every queued task whose deadline has passed and
// returns them, along with the earliest deadline still queued (zero when
// none) — the sweeper's next wake-up time. open=false reports a closed
// queue (the sweeper's exit signal; Close drains the queue first, so
// nothing is lost).
func (q *laneQueue) sweepExpired(now time.Time) (expired []*task, next time.Time, open bool) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return nil, time.Time{}, false
	}
	for l := range q.lanes {
		before := len(expired)
		var laneNext time.Time
		expired, laneNext = q.lanes[l].sweepExpired(now, expired)
		for _, t := range expired[before:] {
			q.estSum[l] -= t.est
		}
		if !laneNext.IsZero() && (next.IsZero() || laneNext.Before(next)) {
			next = laneNext
		}
	}
	q.size -= len(expired)
	q.mu.Unlock()
	if len(expired) > 0 {
		q.notFull.Broadcast() // freed capacity may admit parked pushers
	}
	return expired, next, true
}

// depth reports how many items are queued (all lanes).
func (q *laneQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size
}
