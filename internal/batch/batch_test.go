package batch

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"fastmm/internal/costmodel"
	"fastmm/internal/gemm"
	"fastmm/internal/mat"
	"fastmm/internal/op"
	"fastmm/internal/tuner"
)

// testProfile is a synthetic calibration so tests never measure the machine.
// Gemm is modelled slow against a fast addition bandwidth, which makes fast
// algorithms win the model ranking at moderate sizes — tests that need warm
// fast executors (retained arenas) rely on that.
func testProfile(workers int) *tuner.Profile {
	par := func(seq float64) float64 {
		if workers <= 1 {
			return seq
		}
		return seq * float64(workers) * 0.8
	}
	return &tuner.Profile{
		Version:    tuner.ProfileVersion,
		CreatedAt:  time.Now(),
		GOMAXPROCS: workers,
		Machine: costmodel.Machine{
			Workers: workers,
			Backend: gemm.Default().Name(),
			Gemm: []costmodel.GemmSample{
				{N: 64, SeqGFLOPS: 0.8, ParGFLOPS: par(0.8)},
				{N: 256, SeqGFLOPS: 1.0, ParGFLOPS: par(1.0)},
				{N: 1024, SeqGFLOPS: 1.1, ParGFLOPS: par(1.1)},
			},
			AddSeqGBps: 40,
			AddParGBps: 80,
		},
	}
}

func testOptions(workers int) Options {
	return Options{
		Resources: Resources{Workers: workers},
		Tuning: tuner.Options{
			Profile:     testProfile(workers),
			ProbeTopK:   tuner.NoProbes,
			NoDiskCache: true,
		},
	}
}

// mulReq is the request for C = A·B.
func mulReq(C, A, B *mat.Dense) op.Request {
	return op.Request{Op: op.Multiply, C: C, A: A, B: B}
}

func randMat(r, c int, seed int64) *mat.Dense {
	m := mat.New(r, c)
	m.FillRandom(rand.New(rand.NewSource(seed)))
	return m
}

// waitSemWaiters spins (yielding, never sleeping) until the semaphore has at
// least n queued waiters.
func waitSemWaiters(t *testing.T, s *wsem, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; {
		s.mu.Lock()
		got := s.waiters.Len()
		s.mu.Unlock()
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d queued semaphore waiters", n)
		}
		runtime.Gosched()
	}
}

func checkProduct(t *testing.T, C, A, B *mat.Dense) {
	t.Helper()
	want := mat.New(A.Rows(), B.Cols())
	gemm.Mul(want, A, B)
	tol := 1e-9 * float64(A.Cols()+1)
	if d := mat.MaxAbsDiff(C, want); d > tol {
		t.Fatalf("product mismatch: max diff %g (tol %g) for %dx%dx%d",
			d, tol, A.Rows(), A.Cols(), B.Cols())
	}
}

// TestSameClassSharesWarmEntry is the bucketing property test: every shape
// that ClassOf maps to one bucket must resolve to the same warm entry (one
// tuning decision, one executor) and still produce the exact product for its
// own dimensions (the executor peels; the plan is shared).
func TestSameClassSharesWarmEntry(t *testing.T) {
	b, err := New(testOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	rng := rand.New(rand.NewSource(7))
	var first *tuner.Entry
	wantClass := tuner.ClassOf(256, 256, 256)
	for i := 0; i < 6; i++ {
		// Dims in (224,256] all bucket to 256.
		m, k, n := 225+rng.Intn(32), 225+rng.Intn(32), 225+rng.Intn(32)
		if got := tuner.ClassOf(m, k, n); got != wantClass {
			t.Fatalf("ClassOf(%d,%d,%d) = %v, want %v", m, k, n, got, wantClass)
		}
		e, _, _, err := b.entryFor(op.Multiply, m, k, n, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = e.te
		} else if e.te != first {
			t.Fatalf("shape %dx%dx%d did not reuse the class warm entry", m, k, n)
		}
		A, B := randMat(m, k, int64(i)), randMat(k, n, int64(i+100))
		C := mat.New(m, n)
		if err := b.Do(mulReq(C, A, B)); err != nil {
			t.Fatal(err)
		}
		checkProduct(t, C, A, B)
	}
	if got := b.WarmEntries(); got != 1 {
		t.Fatalf("one class touched, %d warm entries", got)
	}
}

// TestMaxEntriesEviction fills tuner.MaxEntries+1 distinct classes. Every
// one is below the recursion cutoff, so each runs classical and is never
// probed; the pool keeps the most recent tuner.MaxEntries.
func TestMaxEntriesEviction(t *testing.T) {
	b := newTestBatcher(t, testOptions(1))
	dims := []int{4, 5, 6, 7, 8, 10, 12, 14, 16, 20, 24, 28, 32, 40, 48, 56, 64, 80, 96, 112}
	classes := 0
	for _, m := range dims {
		for _, k := range dims {
			if classes == tuner.MaxEntries+1 {
				break
			}
			classes++
			A, B := randMat(m, k, int64(m)), randMat(k, 8, int64(k))
			C := mat.New(m, 8)
			if err := b.Do(mulReq(C, A, B)); err != nil {
				t.Fatal(err)
			}
			checkProduct(t, C, A, B)
		}
	}
	if got := b.WarmEntries(); got != tuner.MaxEntries {
		t.Fatalf("%d classes touched, pool holds %d entries, want %d", classes, got, tuner.MaxEntries)
	}
}

// TestLaneLabelsEvictWithPool: the runners' pprof label sets are bounded
// like the pool they label — queued traffic over more classes than
// tuner.MaxEntries leaves no more sets than that.
func TestLaneLabelsEvictWithPool(t *testing.T) {
	b := newTestBatcher(t, testOptions(1))
	dims := []int{4, 5, 6, 7, 8, 10, 12, 14, 16, 20, 24, 28, 32, 40, 48, 56, 64, 80, 96, 112}
	for i := 0; i < tuner.MaxEntries+8; i++ {
		m, k := dims[i%len(dims)], dims[i/len(dims)]
		A, B := randMat(m, k, int64(i)), randMat(k, 8, int64(i+1))
		C := mat.New(m, 8)
		tk, err := b.SubmitRequest(mulReq(C, A, B), SubmitOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
		checkProduct(t, C, A, B)
	}
	b.labelMu.Lock()
	sets := len(b.labels)
	b.labelMu.Unlock()
	if sets == 0 || sets > tuner.MaxEntries {
		t.Fatalf("%d label sets after %d classes, want 1..%d", sets, tuner.MaxEntries+8, tuner.MaxEntries)
	}
}

// deepOptions is testOptions with a calibration whose gemm rate falls
// steeply past 128³ blocks, so the ranking recurses as deep as a shape
// allows and fast entries retain megabytes of arenas (Strassen two or
// three steps deep at 320³, 384³ and 448³ on one worker).
func deepOptions() Options {
	opts := testOptions(1)
	opts.Tuning.Profile.Machine.Gemm = []costmodel.GemmSample{
		{N: 64, SeqGFLOPS: 2.4, ParGFLOPS: 2.4},
		{N: 128, SeqGFLOPS: 2.4, ParGFLOPS: 2.4},
		{N: 256, SeqGFLOPS: 0.6, ParGFLOPS: 0.6},
		{N: 1024, SeqGFLOPS: 0.2, ParGFLOPS: 0.2},
	}
	return opts
}

// TestWorkspaceBudgetEviction: a budget the size of the largest fast plan's
// WorkspaceBytes ranks every class's fast plan, but cannot keep the arenas
// of all three warm: the pool evicts least recently used entries until what
// it retains fits, apart from the most recent entry, which always stays.
func TestWorkspaceBudgetEviction(t *testing.T) {
	classes := []int{320, 384, 448}
	opts := deepOptions()
	uncapped := newTestBatcher(t, opts)
	for _, n := range classes {
		p, err := uncapped.PlanForOp(op.Multiply, n, n, n)
		if err != nil {
			t.Fatal(err)
		}
		if p.IsClassical() {
			t.Fatalf("%d³: the profile picked classical, want a fast plan", n)
		}
		opts.Workspace = max(opts.Workspace, p.WorkspaceBytes)
	}
	b := newTestBatcher(t, opts)
	for _, n := range classes {
		A, B := randMat(n, n, int64(n)), randMat(n, n, int64(n+1))
		C := mat.New(n, n)
		if err := b.Do(mulReq(C, A, B)); err != nil {
			t.Fatal(err)
		}
		checkProduct(t, C, A, B)
		if p, _ := b.PlanForOp(op.Multiply, n, n, n); p.IsClassical() {
			t.Fatalf("%d³: a budget of %d filtered every fast plan", n, opts.Workspace)
		}
		if st := b.Stats(); st.WarmEntries > 1 && st.WorkspaceRetained > opts.Workspace {
			t.Fatalf("%d entries retain %d bytes over a budget of %d", st.WarmEntries, st.WorkspaceRetained, opts.Workspace)
		}
	}
	if got := b.WarmEntries(); got == len(classes) {
		t.Fatalf("the pool kept all %d entries under a budget of %d", got, opts.Workspace)
	}
}

func TestWidthPolicy(t *testing.T) {
	opts := testOptions(8)
	b, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	cases := []struct {
		m, k, n, load, want int
	}{
		{768, 768, 768, 1, 8},  // big and alone: full width
		{768, 768, 768, 8, 1},  // big but 8 in flight: fair share
		{768, 768, 768, 3, 2},  // fair share 8/3 rounds down to a power of two
		{128, 128, 128, 1, 1},  // small: below the grain even when alone
		{4096, 512, 512, 2, 4}, // grain cap not binding, load splits
	}
	for _, c := range cases {
		if got := b.widthFor(c.m, c.k, c.n, c.load); got != c.want {
			t.Errorf("widthFor(%d,%d,%d, load=%d) = %d, want %d",
				c.m, c.k, c.n, c.load, got, c.want)
		}
	}
}

func TestSubmitWait(t *testing.T) {
	b, err := New(testOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	const items = 12
	tickets := make([]*Ticket, 0, items)
	mats := make([]*mat.Dense, 0, items*3)
	for i := 0; i < items; i++ {
		n := 64 + 16*(i%3)
		A, B := randMat(n, n, int64(i)), randMat(n, n, int64(i+50))
		C := mat.New(n, n)
		tk, err := b.SubmitRequest(mulReq(C, A, B), SubmitOpts{})
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
		mats = append(mats, C, A, B)
	}
	if err := b.Wait(); err != nil {
		t.Fatal(err)
	}
	for _, tk := range tickets {
		if err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < items; i++ {
		checkProduct(t, mats[3*i], mats[3*i+1], mats[3*i+2])
	}

	if _, err := b.SubmitRequest(mulReq(mat.New(3, 3), mat.New(3, 4), mat.New(5, 3)), SubmitOpts{}); err == nil {
		t.Fatal("dimension mismatch must fail at Submit")
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.SubmitRequest(mulReq(mat.New(4, 4), mat.New(4, 4), mat.New(4, 4)), SubmitOpts{}); err != ErrClosed {
		t.Fatalf("Submit after Close: got %v, want ErrClosed", err)
	}
	if err := b.Do(mulReq(mat.New(4, 4), mat.New(4, 4), mat.New(4, 4))); err != ErrClosed {
		t.Fatalf("Multiply after Close: got %v, want ErrClosed", err)
	}
	if err := b.Close(); err != nil {
		t.Fatalf("Close must be idempotent: %v", err)
	}
}

func TestMultiplyAllMixedShapes(t *testing.T) {
	b, err := New(testOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	shapes := [][3]int{{96, 96, 96}, {130, 70, 110}, {257, 129, 191}, {64, 192, 48}}
	var reqs []op.Request
	for i, s := range shapes {
		reqs = append(reqs, mulReq(mat.New(s[0], s[2]), randMat(s[0], s[1], int64(i)), randMat(s[1], s[2], int64(i+10))))
	}
	if err := b.MultiplyAll(reqs); err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		checkProduct(t, r.C, r.A, r.B)
	}
	// A refused request fails the batch but not its neighbours.
	bad := mulReq(mat.New(3, 3), mat.New(3, 4), mat.New(5, 3))
	fresh := mulReq(mat.New(96, 96), reqs[0].A, reqs[0].B)
	if err := b.MultiplyAll([]op.Request{bad, fresh}); err == nil {
		t.Fatal("a mismatched request must fail the batch")
	}
	checkProduct(t, fresh.C, fresh.A, fresh.B)
}

func TestSemaphoreFIFO(t *testing.T) {
	var s wsem
	s.free = 4
	s.acquire(4)
	done := make(chan int, 2)
	go func() { s.acquire(3); done <- 3 }()
	waitSemWaiters(t, &s, 1) // the wide waiter enqueues first
	go func() { s.acquire(1); done <- 1 }()
	waitSemWaiters(t, &s, 2)
	s.release(2) // 2 free: neither the queued 3 nor the 1 behind it may pass
	select {
	case v := <-done:
		t.Fatalf("acquire(%d) passed with only 2 tokens free (FIFO violated or over-grant)", v)
	case <-time.After(20 * time.Millisecond):
	}
	s.release(1) // 3 free: the wide waiter goes first, then the narrow one
	if v := <-done; v != 3 {
		t.Fatalf("expected the FIFO-front acquire(3) to pass first, got %d", v)
	}
	s.release(3)
	if v := <-done; v != 1 {
		t.Fatalf("expected acquire(1) after release, got %d", v)
	}
}

func TestPlanForInvalid(t *testing.T) {
	b, err := New(testOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := b.PlanForOp(op.Multiply, 0, 5, 5); err == nil {
		t.Fatal("invalid shape must fail")
	}
	if _, err := b.PlanForOp(op.Op(99), 96, 96, 96); err == nil {
		t.Fatal("invalid op must fail")
	}
	p, err := b.PlanForOp(op.Multiply, 96, 96, 96)
	if err != nil {
		t.Fatal(err)
	}
	if p.Workers != 1 {
		t.Fatalf("1-worker batcher produced plan %v", p)
	}
}

func ExampleBatcher() {
	b, err := New(Options{Resources: Resources{Workers: 2}, Tuning: tuner.Options{
		Profile: testProfile(2), ProbeTopK: tuner.NoProbes, NoDiskCache: true}})
	if err != nil {
		panic(err)
	}
	defer b.Close()
	A, B := randMat(128, 128, 1), randMat(128, 128, 2)
	C := mat.New(128, 128)
	tk, err := b.SubmitRequest(mulReq(C, A, B), SubmitOpts{})
	if err != nil {
		panic(err)
	}
	if err := tk.Wait(); err != nil {
		panic(err)
	}
	fmt.Println(C.Rows(), C.Cols())
	// Output: 128 128
}
