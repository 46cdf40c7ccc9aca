// Tests for the server-grade submit path: priority lanes, deadlines,
// completion callbacks, the executing-based width policy, and the
// close-vs-sync-execution lifecycle guarantee.
package batch

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fastmm/internal/mat"
	"fastmm/internal/tuner"
)

// advanceUntil steps the fake clock forward until done closes — the
// deterministic replacement for "sleep and hope the sweeper ran": each step
// both moves time and yields, so the sweeper's next fake timer (armed from
// whatever instant it read) is always eventually overtaken.
func advanceUntil(t *testing.T, fc *fakeClock, step time.Duration, done <-chan struct{}) {
	t.Helper()
	fail := time.After(10 * time.Second)
	for {
		select {
		case <-done:
			return
		case <-fail:
			t.Fatal("condition not reached under fake-clock advance")
		default:
			fc.Advance(step)
			runtime.Gosched()
		}
	}
}

// newTestBatcher builds a batcher whose Close runs in t.Cleanup — after any
// cleanup registered later (LIFO), so a blockRunners release always happens
// before the hang-prone Close.
func newTestBatcher(t *testing.T, opts Options) *Batcher {
	t.Helper()
	b, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return b
}

// newClockedBatcher is newTestBatcher on the given clock. A fake clock
// never advances by itself, so deadlines, admission and the aging window
// move only when the test moves them.
func newClockedBatcher(t *testing.T, opts Options, clk Clock) *Batcher {
	t.Helper()
	opts.clock = clk
	return newTestBatcher(t, opts)
}

// blockRunners occupies every runner of b inside a completion callback: the
// blocker items execute (releasing their executing count and semaphore
// tokens), then their callbacks park until release is called, so the queue
// stops draining while nothing is "executing". release is idempotent and
// also registered as a test cleanup, so a failing test never deadlocks the
// batcher's Close.
func blockRunners(t *testing.T, b *Batcher, runners int) (release func()) {
	t.Helper()
	ch := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(ch) }) }
	t.Cleanup(release)
	entered := make(chan struct{}, runners)
	const n = 64
	A, B := randMat(n, n, 11), randMat(n, n, 12)
	for i := 0; i < runners; i++ {
		C := mat.New(n, n)
		_, err := b.SubmitRequest(mulReq(C, A, B), SubmitOpts{Callback: func(error) {
			entered <- struct{}{}
			<-ch
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < runners; i++ {
		select {
		case <-entered:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d/%d runners reached their blocking callback", i, runners)
		}
	}
	return release
}

// TestWidthPolicyCountsExecutingOnly is the width-policy regression test of
// the redesign: a burst of Workers×4 queued-but-idle items must not dilute
// an executing multiply's width. On the pre-fix policy (width derived from
// the enqueue-time inflight count) the synchronous multiply below would be
// granted 8/(1+32) → width 1; the fixed policy grants it the full budget
// because it is the only multiplication executing. The burst fills the
// 4×Workers queue exactly.
func TestWidthPolicyCountsExecutingOnly(t *testing.T) {
	const workers = 8
	b := newTestBatcher(t, testOptions(workers))

	release := blockRunners(t, b, workers)

	// The burst: Workers×4 small items, queued but idle (every runner is
	// parked in a callback, so nothing dequeues them).
	const n = 64
	A, B := randMat(n, n, 1), randMat(n, n, 2)
	burst := make([]*mat.Dense, 4*workers)
	for i := range burst {
		burst[i] = mat.New(n, n)
		if _, err := b.SubmitRequest(mulReq(burst[i], A, B), SubmitOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.QueueDepth(); got != len(burst) {
		t.Fatalf("burst not idle in the queue: depth %d, want %d", got, len(burst))
	}

	// The one executing multiply: a synchronous call in a fresh shape class
	// (so its granted width is readable off its warm-pool entry key). Its
	// fair share among executing multiplies is the whole Workers budget, and
	// at 2·656³ flops it carries more than DefaultGrainFLOPs per worker, so
	// the grain cap does not bind either.
	const m2 = 656
	A2, B2 := randMat(m2, m2, 3), randMat(m2, m2, 4)
	C2 := mat.New(m2, m2)
	if err := b.Do(mulReq(C2, A2, B2)); err != nil {
		t.Fatal(err)
	}
	checkProduct(t, C2, A2, B2)
	wantKey := entryKey{class: tuner.ClassOf(m2, m2, m2), workers: workers}
	if !b.hasEntry(wantKey) {
		b.mu.Lock()
		keys := make([]entryKey, 0, len(b.entries))
		for k := range b.entries {
			keys = append(keys, k)
		}
		b.mu.Unlock()
		t.Fatalf("executing multiply was starved below its fair share: no entry %+v (pool holds %+v)",
			wantKey, keys)
	}

	release()
	if err := b.Wait(); err != nil {
		t.Fatal(err)
	}
	checkProduct(t, burst[0], A, B)
}

// TestLanePrioritySchedulingOrder: with a single runner, queued items must
// execute strictly by lane priority (High, Normal, Low), FIFO within a lane.
// The fake clock never advances, so no item ages past the window; the four
// items fill the one-worker queue.
func TestLanePrioritySchedulingOrder(t *testing.T) {
	b := newClockedBatcher(t, testOptions(1), newFakeClock())

	release := blockRunners(t, b, 1)

	var mu sync.Mutex
	var order []int
	const n = 64
	A, B := randMat(n, n, 1), randMat(n, n, 2)
	submit := func(id int, lane Lane) {
		t.Helper()
		_, err := b.SubmitRequest(mulReq(mat.New(n, n), A, B), SubmitOpts{Lane: lane, Callback: func(err error) {
			if err != nil {
				t.Errorf("item %d: %v", id, err)
			}
			mu.Lock()
			order = append(order, id)
			mu.Unlock()
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	submit(0, LaneLow)
	submit(1, LaneNormal)
	submit(2, LaneHigh)
	submit(3, LaneLow)

	release()
	if err := b.Wait(); err != nil {
		t.Fatal(err)
	}
	want := []int{2, 1, 0, 3}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != len(want) {
		t.Fatalf("completed %d items, want %d (%v)", len(order), len(want), order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order %v, want %v (strict priority, FIFO per lane)", order, want)
		}
	}
}

// TestDeadlineExpiresWithoutExecuting: an item whose deadline passes while
// it waits in the queue must resolve with ErrDeadlineExceeded — on its
// Ticket and its Callback — without ever running the multiplication, and
// Wait must not aggregate the expiry as a batch error.
func TestDeadlineExpiresWithoutExecuting(t *testing.T) {
	fc := newFakeClock()
	b := newClockedBatcher(t, testOptions(1), fc)

	release := blockRunners(t, b, 1)

	const n = 64
	A, B := randMat(n, n, 1), randMat(n, n, 2)
	C := mat.New(n, n)
	C.Fill(42) // sentinel: an executed multiply would overwrite it
	var cbErr error
	cbDone := make(chan struct{})
	tk, err := b.SubmitRequest(mulReq(C, A, B), SubmitOpts{
		Lane:     LaneLow,
		Deadline: fc.Now().Add(5 * time.Millisecond),
		Callback: func(err error) { cbErr = err; close(cbDone) },
	})
	if err != nil {
		t.Fatal(err)
	}
	fc.Advance(20 * time.Millisecond) // the deadline passes while queued
	release()

	if err := tk.Wait(); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("expired item: ticket err %v, want ErrDeadlineExceeded", err)
	}
	select {
	case <-cbDone:
	case <-time.After(5 * time.Second):
		t.Fatal("callback never invoked for the expired item")
	}
	if !errors.Is(cbErr, ErrDeadlineExceeded) {
		t.Fatalf("expired item: callback err %v, want ErrDeadlineExceeded", cbErr)
	}
	want := mat.New(n, n)
	want.Fill(42)
	if d := mat.MaxAbsDiff(C, want); d != 0 {
		t.Fatalf("expired item was executed anyway (C mutated, max diff %g)", d)
	}
	if err := b.Wait(); err != nil {
		t.Fatalf("Wait must not aggregate deadline expiries, got %v", err)
	}
}

// TestDeadlineExpiresWhileStarved: a deadline'd item that is never dequeued
// — every runner stays busy with other work indefinitely — must still
// resolve with ErrDeadlineExceeded promptly after its deadline passes (the
// sweeper), not hang its Ticket and Callback until a runner happens to
// reach it.
func TestDeadlineExpiresWhileStarved(t *testing.T) {
	fc := newFakeClock()
	b := newClockedBatcher(t, testOptions(1), fc)
	blockRunners(t, b, 1) // the only runner stays parked for the whole test

	const n = 64
	A, B := randMat(n, n, 1), randMat(n, n, 2)
	var cbErr error
	cbDone := make(chan struct{})
	tk, err := b.SubmitRequest(mulReq(mat.New(n, n), A, B), SubmitOpts{
		Lane:     LaneLow,
		Deadline: fc.Now().Add(10 * time.Millisecond),
		Callback: func(err error) { cbErr = err; close(cbDone) },
	})
	if err != nil {
		t.Fatal(err)
	}
	advanceUntil(t, fc, 5*time.Millisecond, tk.done)
	if err := tk.Wait(); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("starved item: ticket err %v, want ErrDeadlineExceeded", err)
	}
	<-cbDone
	if !errors.Is(cbErr, ErrDeadlineExceeded) {
		t.Fatalf("starved item: callback err %v, want ErrDeadlineExceeded", cbErr)
	}
	if got := b.QueueDepth(); got != 0 {
		t.Fatalf("expired item still occupies a queue slot (depth %d)", got)
	}
}

// TestDeadlineAlreadyExpiredAtSubmit: a deadline in the past resolves the
// item synchronously — no queue slot, no runner, even when every runner is
// busy.
func TestDeadlineAlreadyExpiredAtSubmit(t *testing.T) {
	fc := newFakeClock()
	b := newClockedBatcher(t, testOptions(1), fc)
	blockRunners(t, b, 1)

	const n = 64
	A, B := randMat(n, n, 1), randMat(n, n, 2)
	tk, err := b.SubmitRequest(mulReq(mat.New(n, n), A, B), SubmitOpts{Deadline: fc.Now().Add(-time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-tk.done:
	case <-time.After(2 * time.Second):
		t.Fatal("already-expired item must resolve without a runner")
	}
	if err := tk.Wait(); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("got %v, want ErrDeadlineExceeded", err)
	}
	if got := b.QueueDepth(); got != 0 {
		t.Fatalf("already-expired item occupied a queue slot (depth %d)", got)
	}
}

// TestSubmitFuncCallback: a SubmitOpts.Callback fires exactly once with a
// nil error on success, and submission errors are returned without invoking
// it.
func TestSubmitFuncCallback(t *testing.T) {
	b := newTestBatcher(t, testOptions(1))
	const n = 64
	A, B := randMat(n, n, 1), randMat(n, n, 2)
	C := mat.New(n, n)
	var calls atomic.Int64
	var cbErr error
	done := make(chan struct{})
	_, err := b.SubmitRequest(mulReq(C, A, B), SubmitOpts{Lane: LaneHigh, Callback: func(err error) {
		cbErr = err
		calls.Add(1)
		close(done)
	}})
	if err != nil {
		t.Fatal(err)
	}
	<-done
	if err := b.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("callback invoked %d times, want 1", got)
	}
	if cbErr != nil {
		t.Fatalf("callback error %v, want nil", cbErr)
	}
	checkProduct(t, C, A, B)

	// Wait must not return while a callback is still running: callbacks
	// complete before their item is released to Wait/Close, so servers can
	// tear down per-request state after Wait.
	var slowDone atomic.Bool
	gate := make(chan struct{})
	entered := make(chan struct{})
	_, err = b.SubmitRequest(mulReq(mat.New(n, n), A, B), SubmitOpts{Callback: func(error) {
		close(entered)
		<-gate
		slowDone.Store(true)
	}})
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	waitRet := make(chan error, 1)
	go func() { waitRet <- b.Wait() }()
	select {
	case <-waitRet:
		t.Fatal("Wait returned while a callback was still running")
	case <-time.After(10 * time.Millisecond):
	}
	close(gate)
	if err := <-waitRet; err != nil {
		t.Fatal(err)
	}
	if !slowDone.Load() {
		t.Fatal("Wait returned before a callback completed")
	}

	cbTouched := false
	_, err = b.SubmitRequest(mulReq(mat.New(3, 3), mat.New(3, 4), mat.New(5, 3)), SubmitOpts{Callback: func(error) { cbTouched = true }})
	if err == nil {
		t.Fatal("dimension mismatch must fail at submission")
	}
	if cbTouched {
		t.Fatal("submission errors must not invoke the callback")
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = b.SubmitRequest(mulReq(C, A, B), SubmitOpts{Callback: func(error) { t.Error("callback after close") }})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("SubmitRequest after Close: got %v, want ErrClosed", err)
	}
}

// TestSubmitWithInvalidLane: out-of-range lanes fail at submission.
func TestSubmitWithInvalidLane(t *testing.T) {
	b := newTestBatcher(t, testOptions(1))
	const n = 64
	if _, err := b.SubmitRequest(mulReq(mat.New(n, n), randMat(n, n, 1), randMat(n, n, 2)), SubmitOpts{Lane: Lane(7)}); err == nil {
		t.Fatal("invalid lane must fail at submission")
	}
	if _, err := b.SubmitRequest(mulReq(mat.New(n, n), randMat(n, n, 1), randMat(n, n, 2)), SubmitOpts{Lane: Lane(-1)}); err == nil {
		t.Fatal("negative lane must fail at submission")
	}
}

// TestMultiplyCloseRace is the close-vs-sync-execution hammer: concurrent
// synchronous Multiply calls race Close, and once Close returns nothing may
// still be executing — the semaphore must be fully free and the executing
// count zero. On the pre-fix code (closed checked outside submitMu, sync
// calls invisible to the outstanding count) a Multiply that passed the
// closed check kept running after Close returned, and this test fails.
// Run with -race in CI.
func TestMultiplyCloseRace(t *testing.T) {
	const workers = 2
	for iter := 0; iter < 20; iter++ {
		b, err := New(testOptions(workers))
		if err != nil {
			t.Fatal(err)
		}
		const n = 64
		A, B := randMat(n, n, int64(iter)), randMat(n, n, int64(iter+100))

		var started atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			C := mat.New(n, n)
			go func() {
				defer wg.Done()
				for {
					err := b.Do(mulReq(C, A, B))
					if errors.Is(err, ErrClosed) {
						return
					}
					if err != nil {
						t.Errorf("multiply: %v", err)
						return
					}
					started.Add(1)
				}
			}()
		}
		for started.Load() < 2 { // let the racers actually multiply
			runtime.Gosched()
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		// The lifecycle guarantee at the instant Close returns: no sync
		// call is mid-execution — every semaphore token is home and the
		// executing count is zero, and both stay there.
		if got := b.executing.Load(); got != 0 {
			t.Fatalf("iter %d: %d multiplications executing after Close returned", iter, got)
		}
		b.sem.mu.Lock()
		free := b.sem.free
		b.sem.mu.Unlock()
		if free != workers {
			t.Fatalf("iter %d: %d/%d semaphore tokens free after Close returned — a sync multiply is still running",
				iter, free, workers)
		}
		wg.Wait()
	}
}
