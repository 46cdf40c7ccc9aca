// Tests for the public batched-dispatch surface: fastmm.NewBatcher,
// MultiplyBatch, and Batcher.Do/SubmitRequest/Wait. Synthetic
// calibration profiles keep them deterministic (see auto_test.go); every
// option set carries NoDiskCache so no test touches the user's real cache.
package fastmm_test

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fastmm"
	"fastmm/internal/costmodel"
	"fastmm/internal/gemm"
	"fastmm/internal/mat"
	"fastmm/internal/tuner"
)

// mulReq is the request for C = A·B.
func mulReq(C, A, B *fastmm.Matrix) fastmm.Request {
	return fastmm.Request{Op: fastmm.OpMultiply, C: C, A: A, B: B}
}

func batchTestOpts(workers int) fastmm.BatchOptions {
	return fastmm.BatchOptions{
		Resources: fastmm.Resources{Workers: workers},
		Tuning:    autoTestOpts(workers),
	}
}

func TestMultiplyBatchMatchesClassical(t *testing.T) {
	shapes := [][3]int{{128, 128, 128}, {257, 129, 191}, {96, 160, 64}, {300, 300, 300}}
	var dsts, as, bs, wants []*fastmm.Matrix
	for i, s := range shapes {
		A := fastmm.RandomMatrix(s[0], s[1], int64(i))
		B := fastmm.RandomMatrix(s[1], s[2], int64(i+20))
		as = append(as, A)
		bs = append(bs, B)
		dsts = append(dsts, fastmm.NewMatrix(s[0], s[2]))
		w := fastmm.NewMatrix(s[0], s[2])
		fastmm.Classical(w, A, B)
		wants = append(wants, w)
	}
	opts := batchTestOpts(2)
	for call := 0; call < 2; call++ { // second call reuses the shared warm batcher
		for _, d := range dsts {
			d.Zero()
		}
		if err := fastmm.MultiplyBatch(dsts, as, bs, opts); err != nil {
			t.Fatal(err)
		}
		for i := range shapes {
			if d := mat.MaxAbsDiff(dsts[i], wants[i]); d > 1e-9*float64(shapes[i][1]+1) {
				t.Fatalf("call %d item %d: max diff %g", call, i, d)
			}
		}
	}
	if err := fastmm.MultiplyBatch(dsts[:1], as, bs, opts); err == nil {
		t.Fatal("mismatched lengths must fail")
	}
}

// TestBatcherAllocsSteadyState enforces the batch acceptance bar: a warm
// batcher's synchronous dispatch allocates at most 2 allocations per
// multiplication (the executor's per-call context and nothing else).
func TestBatcherAllocsSteadyState(t *testing.T) {
	b, err := fastmm.NewBatcher(batchTestOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	const n = 256
	A := fastmm.RandomMatrix(n, n, 1)
	B := fastmm.RandomMatrix(n, n, 2)
	C := fastmm.NewMatrix(n, n)
	for i := 0; i < 3; i++ { // tune the class and warm the arenas
		if err := b.Do(mulReq(C, A, B)); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := b.Do(mulReq(C, A, B)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 && !raceEnabled {
		t.Fatalf("steady-state batcher Multiply allocates %.1f/op, want ≤ 2", allocs)
	}
}

// TestBatcherAndAutoHammer drives one shared AutoExecutor and one shared
// Batcher from 8 goroutines with mixed shapes — the concurrency-hardening
// scenario of the batched-dispatch issue. Run with -race in CI: it covers
// the tuner's in-memory cache (Auto's, and the batcher's warm pool), the
// batcher's weighted semaphore, and concurrent Submit/Wait.
func TestBatcherAndAutoHammer(t *testing.T) {
	auto, err := fastmm.NewAutoExecutor(autoTestOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := fastmm.NewBatcher(batchTestOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	shapes := [][3]int{
		{96, 96, 96}, {130, 70, 110}, {160, 160, 160}, {97, 131, 89},
		{224, 96, 144}, {64, 200, 64},
	}
	lanes := []fastmm.Lane{fastmm.LaneNormal, fastmm.LaneHigh, fastmm.LaneLow}
	var laneSubmitted [fastmm.BatchNumLanes]atomic.Int64
	const goroutines = 8
	iters := 6
	if testing.Short() {
		iters = 2
	}
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < iters; i++ {
				s := shapes[(g+i)%len(shapes)]
				A := fastmm.NewMatrix(s[0], s[1])
				B := fastmm.NewMatrix(s[1], s[2])
				A.FillRandom(rng)
				B.FillRandom(rng)
				want := fastmm.NewMatrix(s[0], s[2])
				fastmm.Classical(want, A, B)

				C := fastmm.NewMatrix(s[0], s[2])
				if err := auto.Multiply(C, A, B); err != nil {
					errs <- err
					return
				}
				if d := mat.MaxAbsDiff(C, want); d > 1e-9*float64(s[1]+1) {
					t.Errorf("auto g%d i%d: max diff %g", g, i, d)
				}

				C2 := fastmm.NewMatrix(s[0], s[2])
				if err := b.Do(mulReq(C2, A, B)); err != nil {
					errs <- err
					return
				}
				if d := mat.MaxAbsDiff(C2, want); d > 1e-9*float64(s[1]+1) {
					t.Errorf("batch sync g%d i%d: max diff %g", g, i, d)
				}

				C3 := fastmm.NewMatrix(s[0], s[2])
				lane := lanes[(g+i)%len(lanes)]
				opts := fastmm.SubmitOpts{Lane: lane}
				if i%2 == 0 {
					opts.Deadline = time.Now().Add(time.Hour) // generous: must not expire
				}
				tk, err := b.SubmitRequest(mulReq(C3, A, B), opts)
				if errors.Is(err, fastmm.ErrAdmissionDenied) {
					// A generous deadline must never be shed; an hour of queued
					// backlog here would be a calibration disaster.
					t.Errorf("hammer g%d i%d: hour-long deadline rejected", g, i)
					continue
				}
				if err != nil {
					errs <- err
					return
				}
				laneSubmitted[lane].Add(1)
				if err := tk.Wait(); err != nil {
					errs <- err
					return
				}
				if d := mat.MaxAbsDiff(C3, want); d > 1e-9*float64(s[1]+1) {
					t.Errorf("batch async g%d i%d: max diff %g", g, i, d)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := b.Wait(); err != nil {
		t.Fatal(err)
	}

	// At quiescence the public Stats snapshot must satisfy the per-lane
	// conservation invariant exactly, and agree with the submissions the
	// hammer actually made.
	st := b.Stats()
	var totalDone int64
	for l, ls := range st.Lanes {
		lane := fastmm.Lane(l)
		if ls.Queued != 0 || ls.Executing != 0 {
			t.Fatalf("lane %v not quiescent: queued=%d executing=%d", lane, ls.Queued, ls.Executing)
		}
		if ls.Submitted != ls.Done+ls.Expired+ls.Rejected {
			t.Fatalf("lane %v conservation: submitted=%d done=%d expired=%d rejected=%d",
				lane, ls.Submitted, ls.Done, ls.Expired, ls.Rejected)
		}
		if ls.Submitted != laneSubmitted[lane].Load() {
			t.Fatalf("lane %v submitted=%d, hammer made %d", lane, ls.Submitted, laneSubmitted[lane].Load())
		}
		if ls.QueueWait.Count != ls.Done || ls.Service.Count != ls.Done {
			t.Fatalf("lane %v histogram counts (%d, %d) != done %d",
				lane, ls.QueueWait.Count, ls.Service.Count, ls.Done)
		}
		totalDone += ls.Done
	}
	if totalDone == 0 {
		t.Fatal("hammer completed no async items")
	}
	if st.SyncDone == 0 {
		t.Fatal("hammer completed no sync items")
	}
	var backendTotal int64
	for _, c := range st.Backends {
		backendTotal += c
	}
	if backendTotal != totalDone+st.SyncDone {
		t.Fatalf("backend mix %d executions, counters say %d",
			backendTotal, totalDone+st.SyncDone)
	}
	if hr := st.WarmHitRate(); hr <= 0 || hr >= 1 {
		t.Fatalf("hammer warm hit rate = %g, want in (0, 1)", hr)
	}
	if st.EffectiveGFLOPS <= 0 || st.BusySeconds <= 0 {
		t.Fatalf("throughput metrics empty: %g GFLOPS over %gs", st.EffectiveGFLOPS, st.BusySeconds)
	}
}

// deepProfile is autoTestProfile(1) with a gemm whose rate falls steeply
// past 128³ blocks, so the ranking recurses as deep as a shape allows and a
// fast entry's executor retains megabytes of arenas (two-step Strassen at
// 320³ to 448³ on one worker).
func deepProfile() *tuner.Profile {
	p := autoTestProfile(1)
	p.Machine.Gemm = []costmodel.GemmSample{
		{N: 64, SeqGFLOPS: 2.4, ParGFLOPS: 2.4},
		{N: 128, SeqGFLOPS: 2.4, ParGFLOPS: 2.4},
		{N: 256, SeqGFLOPS: 0.6, ParGFLOPS: 0.6},
		{N: 1024, SeqGFLOPS: 0.2, ParGFLOPS: 0.2},
	}
	return p
}

// TestSharedPoolEvictionHammer: eight goroutines drive one AutoExecutor and
// one Batcher over more shape classes than tuner.MaxEntries, under a
// Workspace budget that ranks each fast plan but cannot keep the arenas of
// all of them, so both caches evict entries that other goroutines are still
// running. Every product must match gemm.Naive, and at quiescence each pool
// holds at most MaxEntries entries, retaining no more than the budget unless
// only its most recent entry is left.
func TestSharedPoolEvictionHammer(t *testing.T) {
	opts := autoTestOpts(1)
	opts.Profile = deepProfile()
	fast := []int{320, 384, 448}
	uncapped, err := fastmm.NewAutoExecutor(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range fast {
		p, err := uncapped.PlanForOp(fastmm.OpMultiply, n, n, n)
		if err != nil {
			t.Fatal(err)
		}
		if p.IsClassical() {
			t.Fatalf("%d³: the profile picked classical, want a fast plan", n)
		}
		opts.Workspace = max(opts.Workspace, p.WorkspaceBytes)
	}
	auto, err := fastmm.NewAutoExecutor(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fastmm.NewBatcher(fastmm.BatchOptions{Resources: opts.Resources, Tuning: opts})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// Shapes below the recursion cutoff, each its own class, run classical;
	// there are more of them than the pools may keep.
	type problem struct{ A, B, want *fastmm.Matrix }
	var problems []problem
	add := func(m, k, n int) {
		p := problem{A: fastmm.RandomMatrix(m, k, int64(len(problems))), B: fastmm.RandomMatrix(k, n, int64(len(problems)+1000))}
		p.want = fastmm.NewMatrix(m, n)
		gemm.Naive(p.want, p.A, p.B)
		problems = append(problems, p)
	}
	dims := []int{4, 5, 6, 7, 8, 10, 12, 14, 16, 20, 24, 28, 32, 40, 48, 56, 64, 80, 96, 112}
	for i, small := 0, 0; small < tuner.MaxEntries+8; i++ {
		if f := i / 32; i%32 == 0 && f < len(fast) { // spread the fast shapes out
			add(fast[f], fast[f], fast[f])
			continue
		}
		add(dims[small%len(dims)], dims[small/len(dims)], 8)
		small++
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range problems {
				p := problems[(i+g*len(problems)/goroutines)%len(problems)]
				tol := 1e-9 * float64(p.A.Cols()+1)
				C := fastmm.NewMatrix(p.want.Rows(), p.want.Cols())
				if err := auto.Do(mulReq(C, p.A, p.B)); err != nil {
					errs <- err
					return
				}
				if d := mat.MaxAbsDiff(C, p.want); d > tol {
					t.Errorf("auto g%d %dx%dx%d: max diff %g", g, p.A.Rows(), p.A.Cols(), p.B.Cols(), d)
				}
				C = fastmm.NewMatrix(p.want.Rows(), p.want.Cols())
				if err := b.Do(mulReq(C, p.A, p.B)); err != nil {
					errs <- err
					return
				}
				if d := mat.MaxAbsDiff(C, p.want); d > tol {
					t.Errorf("batch g%d %dx%dx%d: max diff %g", g, p.A.Rows(), p.A.Cols(), p.B.Cols(), d)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := b.Stats()
	autoEntries, autoRetained := auto.Warm()
	for _, pool := range []struct {
		name     string
		entries  int
		retained int64
	}{{"auto", autoEntries, autoRetained}, {"batch", st.WarmEntries, st.WorkspaceRetained}} {
		if pool.entries > tuner.MaxEntries {
			t.Errorf("%s pool holds %d entries, bound %d", pool.name, pool.entries, tuner.MaxEntries)
		}
		if pool.entries > 1 && pool.retained > opts.Workspace {
			t.Errorf("%s pool: %d entries retain %d bytes over a budget of %d", pool.name, pool.entries, pool.retained, opts.Workspace)
		}
	}
	if st.WarmMisses <= int64(len(problems)) {
		t.Errorf("batch: %d misses over %d classes: nothing was evicted and re-decided", st.WarmMisses, len(problems))
	}
	for _, n := range fast {
		if p, err := auto.PlanForOp(fastmm.OpMultiply, n, n, n); err != nil || p.IsClassical() {
			t.Errorf("%d³: plan %v (err %v) under a budget of %d, want a fast plan", n, p, err, opts.Workspace)
		}
	}
}

// TestSubmitWithPublicSurface exercises the server-grade submit path through
// the public aliases: priority lanes, a deadline that expires while queued
// (fastmm.ErrDeadlineExceeded on the ticket, not from Wait), and completion
// callbacks via SubmitOpts.Callback.
func TestSubmitWithPublicSurface(t *testing.T) {
	b, err := fastmm.NewBatcher(batchTestOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	const n = 96
	A := fastmm.RandomMatrix(n, n, 1)
	B := fastmm.RandomMatrix(n, n, 2)
	want := fastmm.NewMatrix(n, n)
	fastmm.Classical(want, A, B)

	// A High-lane item with a generous deadline and a callback.
	C := fastmm.NewMatrix(n, n)
	done := make(chan error, 1)
	_, err = b.SubmitRequest(mulReq(C, A, B), fastmm.SubmitOpts{
		Lane:     fastmm.LaneHigh,
		Deadline: time.Now().Add(time.Minute),
		Callback: func(err error) { done <- err },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if d := mat.MaxAbsDiff(C, want); d > 1e-9*float64(n+1) {
		t.Fatalf("high-lane product: max diff %g", d)
	}

	// A Low-lane item already past its deadline fails fast on its ticket.
	tk, err := b.SubmitRequest(mulReq(fastmm.NewMatrix(n, n), A, B), fastmm.SubmitOpts{
		Lane:     fastmm.LaneLow,
		Deadline: time.Now().Add(-time.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.Wait(); !errors.Is(err, fastmm.ErrDeadlineExceeded) {
		t.Fatalf("expired item: got %v, want fastmm.ErrDeadlineExceeded", err)
	}
	if err := b.Wait(); err != nil {
		t.Fatalf("Wait must not aggregate expiries: %v", err)
	}

	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.SubmitRequest(mulReq(C, A, B), fastmm.SubmitOpts{}); !errors.Is(err, fastmm.ErrBatcherClosed) {
		t.Fatalf("SubmitRequest after Close: got %v, want fastmm.ErrBatcherClosed", err)
	}
}

// TestBatcherStatsPublicSurface exercises the observability aliases:
// BatchStats/BatchLaneStats/BatchHistogram, BatchHistogramBounds, and the
// snapshot's cross-field consistency after a known mix of traffic.
func TestBatcherStatsPublicSurface(t *testing.T) {
	if fastmm.ErrAdmissionDenied == nil {
		t.Fatal("fastmm must re-export ErrAdmissionDenied")
	}
	if errors.Is(fastmm.ErrAdmissionDenied, fastmm.ErrDeadlineExceeded) {
		t.Fatal("admission rejection and deadline expiry must be distinct errors")
	}
	bounds := fastmm.BatchHistogramBounds()
	if len(bounds) == 0 || bounds[0] != time.Microsecond {
		t.Fatalf("BatchHistogramBounds()[0] = %v, want 1µs", bounds[0])
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			t.Fatalf("histogram bounds not increasing at %d: %v ≤ %v", i, bounds[i], bounds[i-1])
		}
	}

	b, err := fastmm.NewBatcher(batchTestOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	const n = 96
	A := fastmm.RandomMatrix(n, n, 7)
	B := fastmm.RandomMatrix(n, n, 8)
	C := fastmm.NewMatrix(n, n)
	if err := b.Do(mulReq(C, A, B)); err != nil { // sync path
		t.Fatal(err)
	}
	tk, err := b.SubmitRequest(mulReq(fastmm.NewMatrix(n, n), A, B), fastmm.SubmitOpts{Lane: fastmm.LaneHigh})
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
	// An item already past its deadline expires without executing.
	tk, err = b.SubmitRequest(mulReq(fastmm.NewMatrix(n, n), A, B), fastmm.SubmitOpts{
		Lane:     fastmm.LaneLow,
		Deadline: time.Now().Add(-time.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.Wait(); !errors.Is(err, fastmm.ErrDeadlineExceeded) {
		t.Fatalf("expired item: %v", err)
	}
	if err := b.Wait(); err != nil {
		t.Fatal(err)
	}

	var st fastmm.BatchStats = b.Stats()
	var high fastmm.BatchLaneStats = st.Lanes[fastmm.LaneHigh]
	if high.Submitted != 1 || high.Done != 1 {
		t.Fatalf("High lane = %+v, want 1 submitted / 1 done", high)
	}
	if low := st.Lanes[fastmm.LaneLow]; low.Expired != 1 || low.Done != 0 {
		t.Fatalf("Low lane = %+v, want 1 expired / 0 done", low)
	}
	if st.SyncDone != 1 {
		t.Fatalf("SyncDone = %d, want 1", st.SyncDone)
	}
	var svc fastmm.BatchHistogram = high.Service
	if svc.Count != 1 || svc.Quantile(0.5) <= 0 || svc.Mean() <= 0 {
		t.Fatalf("High service histogram = %+v, want one positive observation", svc)
	}
	if st.WarmEntries == 0 || st.WarmMisses == 0 {
		t.Fatalf("warm pool untouched: %d entries, %d misses", st.WarmEntries, st.WarmMisses)
	}
}

// TestAdmissionDeniedPublicSurface drives a real rejection through the public
// API: a single-worker batcher whose runner is pinned by a no-deadline
// backlog must shed a deadline'd item it cannot possibly start in time. The
// assertion is tolerant of scheduling (if the backlog drained improbably
// fast the item is simply admitted) but the usual path exercises
// fastmm.ErrAdmissionDenied end to end.
func TestAdmissionDeniedPublicSurface(t *testing.T) {
	b, err := fastmm.NewBatcher(batchTestOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	const n = 384
	A := fastmm.RandomMatrix(n, n, 9)
	B := fastmm.RandomMatrix(n, n, 10)
	for i := 0; i < 2; i++ { // observe real service times into the estimator
		if err := b.Do(mulReq(fastmm.NewMatrix(n, n), A, B)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ { // a no-deadline backlog that fills the 4×Workers queue
		if _, err := b.SubmitRequest(mulReq(fastmm.NewMatrix(n, n), A, B), fastmm.SubmitOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	rejected := false
	tk, err := b.SubmitRequest(mulReq(fastmm.NewMatrix(n, n), A, B), fastmm.SubmitOpts{
		Deadline: time.Now().Add(time.Millisecond),
	})
	switch {
	case errors.Is(err, fastmm.ErrAdmissionDenied):
		rejected = true
		if tk != nil {
			t.Fatal("a rejected submission must not produce a Ticket")
		}
	case err != nil:
		t.Fatal(err)
	default:
		// Admitted (or the deadline passed before screening): the ticket
		// resolves either way, possibly with an expiry.
		if werr := tk.Wait(); werr != nil && !errors.Is(werr, fastmm.ErrDeadlineExceeded) {
			t.Fatal(werr)
		}
	}
	if err := b.Wait(); err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	if rejected && st.Lanes[fastmm.LaneNormal].Rejected != 1 {
		t.Fatalf("rejected counter = %d, want 1", st.Lanes[fastmm.LaneNormal].Rejected)
	}
	ls := st.Lanes[fastmm.LaneNormal]
	if ls.Submitted != ls.Done+ls.Expired+ls.Rejected {
		t.Fatalf("conservation after drain: %+v", ls)
	}
}
