package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"fastmm/internal/catalog"
	"fastmm/internal/gemm"
	"fastmm/internal/mat"
	"fastmm/internal/op"
	"fastmm/internal/workspace"
)

// tripwire is the simd backend under its own name. It counts its leaf
// calls and, once armed with a flag, sets that flag as its next leaf call
// returns: a budget reading the flag runs out "after the first leaf" at a
// deterministic point.
type tripwire struct {
	gemm.FusedBackend
	armed atomic.Pointer[atomic.Bool]
	calls atomic.Int64
}

func (b *tripwire) Name() string { return "tripwire" }

func (b *tripwire) Gemm(C *mat.Dense, alpha float64, A, B *mat.Dense, accumulate bool, workers int) {
	b.FusedBackend.Gemm(C, alpha, A, B, accumulate, workers)
	b.trip()
}

func (b *tripwire) GemmFused(dsts []mat.Scaled, alpha float64, asrcs, bsrcs []mat.Scaled, accumulate bool, workers int) {
	b.FusedBackend.GemmFused(dsts, alpha, asrcs, bsrcs, accumulate, workers)
	b.trip()
}

func (b *tripwire) trip() {
	b.calls.Add(1)
	if stop := b.armed.Swap(nil); stop != nil {
		stop.Store(true)
	}
}

var tripwireBackend = func() *tripwire {
	be, err := gemm.Get("simd")
	if err != nil {
		panic(err)
	}
	tw := &tripwire{FusedBackend: be.(gemm.FusedBackend)}
	gemm.Register(tw)
	return tw
}()

// stopOp is one executor entry point, run through a Stoppable.
type stopOp struct {
	name string
	run  func(s Stoppable, C, A, B *mat.Dense) error
}

var stopOps = []stopOp{
	{"Multiply", func(s Stoppable, C, A, B *mat.Dense) error {
		return s.Do(op.Request{Op: op.Multiply, C: C, A: A, B: B})
	}},
	{"MultiplyAdd", func(s Stoppable, C, A, B *mat.Dense) error {
		return s.Do(op.Request{Op: op.MultiplyAdd, C: C, A: A, B: B, Alpha: -0.5})
	}},
}

// The one peeled shape: odd dimensions put fix-ups at both levels.
const stopM, stopK, stopN = 259, 263, 67

// TestStopLeavesExecutorClean: under every scheduler, explicit and fused,
// for every entry point, a call whose budget trips before it starts or
// after its first leaf returns ErrStopped having skipped the rest of its
// leaves, leaves no goroutine behind and every arena back in the budget's
// pool — the executor's own untouched — and the next ordinary call on the
// same executor is bit-identical to a fresh executor's. Over sees a left
// that starts at the plan's leaf flops and never increases or goes
// below 0, and is not asked again once it has said stop.
func TestStopLeavesExecutorClean(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	A, B := randMat(stopM, stopK, rng), randMat(stopK, stopN, rng)
	for _, mode := range []Parallel{Sequential, DFS, BFS, Hybrid} {
		for _, fused := range []bool{false, true} {
			for _, o := range stopOps {
				for _, afterFirstLeaf := range []bool{false, true} {
					name := fmt.Sprintf("%v/fused=%v/%s/afterFirstLeaf=%v", mode, fused, o.name, afterFirstLeaf)
					t.Run(name, func(t *testing.T) {
						checkStop(t, mode, fused, o, afterFirstLeaf, A, B)
					})
				}
			}
		}
	}
}

// watch is a Budget.Over that records every left it is handed and says
// stop once the flag is set.
type watch struct {
	lefts []int64
	flag  atomic.Bool
}

func (w *watch) over(left int64) bool {
	w.lefts = append(w.lefts, left) // Over is never called concurrently
	return w.flag.Load()
}

// check fails unless the lefts start at want and never increase or go
// below 0.
func (w *watch) check(t *testing.T, want int64) {
	t.Helper()
	if len(w.lefts) == 0 || w.lefts[0] != want {
		t.Fatalf("Over first saw %v, want %d left flops", w.lefts, want)
	}
	for i := 1; i < len(w.lefts); i++ {
		if w.lefts[i] > w.lefts[i-1] || w.lefts[i] < 0 {
			t.Fatalf("Over saw left %d after %d (check %d)", w.lefts[i], w.lefts[i-1], i)
		}
	}
}

func checkStop(t *testing.T, mode Parallel, fused bool, o stopOp, afterFirstLeaf bool, A, B *mat.Dense) {
	opts := Options{Resources: Resources{Workers: 2}, Steps: 2, Parallel: mode, Fused: fused, Backend: "tripwire"}
	newExec := func() *Executor {
		e, err := New(catalog.MustGet("strassen"), opts)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	base := randMat(stopM, stopN, rand.New(rand.NewSource(7))) // MultiplyAdd accumulates into it
	run := func(e *Executor, b Budget) (*mat.Dense, int64, error) {
		C := base.Clone()
		before := tripwireBackend.calls.Load()
		err := o.run(e.WithBudget(b), C, A, B)
		return C, tripwireBackend.calls.Load() - before, err
	}
	// What Over first sees for a strassen Steps-2 call: the 49 leaves over
	// the peeled core.
	wantLeft := 49 * 2 * int64(stopM/4) * int64(stopK/4) * int64(stopN/4)

	e := newExec()
	if _, _, err := run(e, Budget{}); err != nil { // warm the arenas
		t.Fatal(err)
	}
	plain, fullLeaves, err := run(e, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	retained := e.WorkspaceRetained()
	goroutines := runtime.NumGoroutine()

	// A budget that never trips computes the same product from its own pool.
	pool := new(workspace.Pool)
	w := new(watch)
	got, _, err := run(e, Budget{Over: w.over, Arenas: pool})
	if err != nil {
		t.Fatal(err)
	}
	w.check(t, wantLeft)
	if !bitIdentical(got, plain) {
		t.Fatalf("a budgeted call differs from the plain one by %g", mat.MaxAbsDiff(got, plain))
	}
	if e.WorkspaceRetained() != retained || pool.Arenas() == 0 {
		t.Fatalf("budgeted call: executor retains %d (was %d), budget pool holds %d arenas", e.WorkspaceRetained(), retained, pool.Arenas())
	}
	pooled := pool.Bytes()

	w = new(watch)
	if afterFirstLeaf {
		tripwireBackend.armed.Store(&w.flag)
	} else {
		w.flag.Store(true)
	}
	_, leaves, err := run(e, Budget{Over: w.over, Arenas: pool})
	tripwireBackend.armed.Store(nil)
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("stopped call returned %v, want ErrStopped", err)
	}
	switch {
	case !afterFirstLeaf && leaves != 0:
		t.Fatalf("a call stopped before it started ran %d leaves", leaves)
	case !afterFirstLeaf && len(w.lefts) != 1:
		t.Fatalf("Over was asked %d times, want once: it said stop at the first check", len(w.lefts))
	case afterFirstLeaf && (leaves == 0 || leaves >= fullLeaves):
		t.Fatalf("a call stopped after its first leaf ran %d of %d leaves", leaves, fullLeaves)
	case afterFirstLeaf && (mode == Sequential || mode == DFS) && w.lefts[len(w.lefts)-1] >= wantLeft:
		// Only where leaves and checks share a goroutine: a BFS task may
		// start and finish a leaf between another task's read of left and
		// its Over reading the flag.
		t.Fatalf("Over said stop at left %d, yet a leaf of %d started", w.lefts[len(w.lefts)-1], wantLeft)
	}
	w.check(t, wantLeft)
	waitGoroutines(t, goroutines)
	if got := e.WorkspaceRetained(); got != retained {
		t.Fatalf("a budgeted call moved the executor's retained workspace %d -> %d", retained, got)
	}
	// One arena serves a Sequential/DFS call, so the pool must come back
	// exactly. BFS/HYBRID tasks draw pooled arenas in whatever order they
	// start, so the pool may grow as on any ordinary call; it shrinks only
	// if an arena was not returned.
	switch got := pool.Bytes(); {
	case (mode == Sequential || mode == DFS) && (got != pooled || pool.Arenas() != 1):
		t.Fatalf("stopped call moved the budget pool %d -> %d bytes (%d arenas)", pooled, got, pool.Arenas())
	case got < pooled:
		t.Fatalf("stopped call lost arenas: budget pool %d -> %d", pooled, got)
	}

	got, _, err = run(e, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := run(newExec(), Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if !bitIdentical(got, want) {
		t.Fatalf("the call after a stop differs from a fresh executor's by %g", mat.MaxAbsDiff(got, want))
	}
}

// TestBudgetLeftIsLeafFlops: a call's budget starts from R^s leaves of
// 2·(m/M^s)(k/K^s)(n/N^s) — every leaf on a divisible shape, the peeled
// core's leaves otherwise — and a call that runs to the end has started all
// of them, so a check after its last leaf sees 0 left.
func TestBudgetLeftIsLeafFlops(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, dims := range [][3]int{{64, 64, 64}, {stopM, stopK, stopN}} {
		m, k, n := dims[0], dims[1], dims[2]
		A, B := randMat(m, k, rng), randMat(k, n, rng)
		want := 49 * 2 * int64(m/4) * int64(k/4) * int64(n/4)
		for _, mode := range []Parallel{Sequential, DFS, BFS, Hybrid} {
			for _, fused := range []bool{false, true} {
				e, err := New(catalog.MustGet("strassen"), Options{Resources: Resources{Workers: 2}, Steps: 2, Parallel: mode, Fused: fused})
				if err != nil {
					t.Fatal(err)
				}
				w := new(watch)
				if err := e.WithBudget(Budget{Over: w.over}).Do(op.Request{Op: op.Multiply, C: mat.New(m, n), A: A, B: B}); err != nil {
					t.Fatal(err)
				}
				w.check(t, want)
				if !fused {
					// The explicit path's last step combines the M_r after
					// every leaf has started, checking per C block.
					if last := w.lefts[len(w.lefts)-1]; last != 0 {
						t.Fatalf("%dx%dx%d %v: the last check saw %d left, want 0", m, k, n, mode, last)
					}
				}
			}
		}
	}
}

// TestStopWakesHybridPump pins the HYBRID hand-off a stop must not strand:
// the deferred pump waits for BFS-phase leaves with a deferred leaf queued,
// the budget runs out, and the remaining BFS-phase work is skipped at a stop
// check instead of finishing (so no leafDone wakes the pump). The check
// itself must wake it, or the deferred leaf's task and the call wait
// forever.
func TestStopWakesHybridPump(t *testing.T) {
	var spent atomic.Bool
	b := Budget{Over: func(int64) bool { return spent.Load() }}
	ctx := newRunContext(Options{Resources: Resources{Workers: 2}}, Hybrid, 4, b, 0, new(workspace.Pool))
	ctx.bfsCut = 1 // leaf 0 runs in the BFS phase, leaves 1–3 are deferred
	ran := false
	ctx.root(func() {
		done := make(chan struct{})
		go func() {
			defer close(done)
			ctx.deferLeaf(func() { ran = true })
		}()
		for queued := false; !queued; {
			ctx.mu.Lock()
			queued = len(ctx.deferred) == 1
			ctx.mu.Unlock()
		}
		time.Sleep(time.Millisecond) // let the pump see leavesDone < bfsCut and wait
		spent.Store(true)
		if !ctx.stopped() { // leaf 0's check: skipped, never credited
			t.Error("budget spent but not seen")
		}
		<-done
	})
	if ran {
		t.Fatal("the deferred leaf of a stopped call ran")
	}
	if !errors.Is(ctx.err(), ErrStopped) {
		t.Fatalf("stopped context reports %v", ctx.err())
	}
}

// waitGoroutines waits for the goroutine count to fall back to n: a HYBRID
// tree goroutine may still be unwinding when its call has returned.
func waitGoroutines(t *testing.T, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > n; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running after a stopped call, want %d", runtime.NumGoroutine(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

func bitIdentical(a, b *mat.Dense) bool {
	for i := 0; i < a.Rows(); i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			if ra[j] != rb[j] {
				return false
			}
		}
	}
	return true
}
