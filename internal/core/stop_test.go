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
)

// tripwire is the portable backend under its own name. It counts its leaf
// calls and, once armed with a stop flag, sets that flag as its next leaf
// call returns: a stop "after the first leaf" at a deterministic point.
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
	be, err := gemm.Get("portable")
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
	dims func(A *mat.Dense) (rows, cols int) // C's shape for operand A (B is A's k×n partner)
}

var stopOps = []stopOp{
	{"Multiply", func(s Stoppable, C, A, B *mat.Dense) error { return s.MultiplyTrace(C, A, B, nil) },
		func(A *mat.Dense) (int, int) { return A.Rows(), stopN }},
	{"MultiplyAdd", func(s Stoppable, C, A, B *mat.Dense) error { return s.MultiplyAdd(C, A, B, -0.5) },
		func(A *mat.Dense) (int, int) { return A.Rows(), stopN }},
	{"ATA", func(s Stoppable, C, A, _ *mat.Dense) error { return s.MultiplyATA(C, A) },
		func(A *mat.Dense) (int, int) { return A.Cols(), A.Cols() }},
	{"Syrk", func(s Stoppable, C, A, _ *mat.Dense) error { return s.MultiplySyrk(C, A) },
		func(A *mat.Dense) (int, int) { return A.Rows(), A.Rows() }},
}

// The one peeled shape: odd dimensions put fix-ups at every level, and the
// symmetric ops split it at least once at MinDim 16.
const stopM, stopK, stopN = 67, 63, 65

// TestStopLeavesExecutorClean: under every scheduler, explicit and fused,
// for every entry point, a call whose stop flag is set before it starts or
// after its first leaf returns ErrStopped having skipped the rest of its
// leaves, leaves no goroutine behind and every arena back in the pool — and
// the next ordinary call on the same executor is bit-identical to a fresh
// executor's.
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

func checkStop(t *testing.T, mode Parallel, fused bool, o stopOp, afterFirstLeaf bool, A, B *mat.Dense) {
	opts := Options{Resources: Resources{Workers: 2}, Steps: 2, MinDim: 16, Parallel: mode, Fused: fused, Backend: "tripwire"}
	newExec := func() *Executor {
		e, err := New(catalog.MustGet("strassen"), opts)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	r, c := o.dims(A)
	base := randMat(r, c, rand.New(rand.NewSource(7))) // MultiplyAdd accumulates into it
	run := func(e *Executor, stop *atomic.Bool) (*mat.Dense, int64, error) {
		C := base.Clone()
		before := tripwireBackend.calls.Load()
		err := o.run(e.WithStop(stop), C, A, B)
		return C, tripwireBackend.calls.Load() - before, err
	}

	e := newExec()
	if _, _, err := run(e, nil); err != nil { // warm the arenas
		t.Fatal(err)
	}
	_, fullLeaves, err := run(e, nil)
	if err != nil {
		t.Fatal(err)
	}
	retained := e.WorkspaceRetained()
	goroutines := runtime.NumGoroutine()

	stop := new(atomic.Bool)
	if afterFirstLeaf {
		tripwireBackend.armed.Store(stop)
	} else {
		stop.Store(true)
	}
	_, leaves, err := run(e, stop)
	tripwireBackend.armed.Store(nil)
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("stopped call returned %v, want ErrStopped", err)
	}
	switch {
	case !afterFirstLeaf && leaves != 0:
		t.Fatalf("a call stopped before it started ran %d leaves", leaves)
	case afterFirstLeaf && (leaves == 0 || leaves >= fullLeaves):
		t.Fatalf("a call stopped after its first leaf ran %d of %d leaves", leaves, fullLeaves)
	}
	waitGoroutines(t, goroutines)
	// One arena serves a Sequential/DFS call, so its pool must come back
	// exactly. BFS/HYBRID tasks draw pooled arenas in whatever order they
	// start, so the pool may grow as on any ordinary call; it shrinks only
	// if an arena was not returned.
	switch got := e.WorkspaceRetained(); {
	case (mode == Sequential || mode == DFS) && got != retained:
		t.Fatalf("stopped call moved retained workspace %d -> %d", retained, got)
	case got < retained:
		t.Fatalf("stopped call lost arenas: retained workspace %d -> %d", retained, got)
	}

	got, _, err := run(e, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := run(newExec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bitIdentical(got, want) {
		t.Fatalf("the call after a stop differs from a fresh executor's by %g", mat.MaxAbsDiff(got, want))
	}
}

// TestStopWakesHybridPump pins the HYBRID hand-off a stop must not strand:
// the deferred pump waits for BFS-phase leaves with a deferred leaf queued,
// the flag is set from outside, and the remaining BFS-phase work is skipped
// at a stop check instead of finishing (so no leafDone wakes the pump). The
// check itself must wake it, or the deferred leaf's task and the call wait
// forever.
func TestStopWakesHybridPump(t *testing.T) {
	stop := new(atomic.Bool)
	ctx := newRunContext(Options{Resources: Resources{Workers: 2}}, Hybrid, 4)
	ctx.bfsCut = 1 // leaf 0 runs in the BFS phase, leaves 1–3 are deferred
	ctx.stop = stop
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
		stop.Store(true)
		if !ctx.stopped() { // leaf 0's check: skipped, never credited
			t.Error("stop flag set but not seen")
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
