package core

import (
	"sync"
	"sync/atomic"

	"fastmm/internal/mat"
	"fastmm/internal/trace"
	"fastmm/internal/workspace"
)

// runContext carries one Multiply call's scheduling state. The semaphore
// bounds the number of concurrently *computing* goroutines (tasks waiting on
// children hold no slot, so nested task trees cannot deadlock); the deferred
// queue and leaf counters implement HYBRID's two-phase schedule (§4.3).
type runContext struct {
	mode    Parallel
	workers int
	sem     chan struct{}
	// tr, when non-nil, is the call's execution-trace sink (the request's
	// Trace, handed over by Do): recursion steps, leaf gemm and fused-leaf
	// calls record into it.
	// The sink is its own synchronization domain (atomic claim), so spawned
	// tasks write to it without touching the context's mutex.
	tr *trace.Spans
	// over, when non-nil, is the call's budget test (Budget.Over; budgeted
	// calls only). The recursion asks it at every level and before every
	// leaf gemm, fused product, S/T/M combine and peeling fix-up, handing it
	// the leaf flops not yet started. The first true latches stop: the
	// remaining work is skipped, BFS/HYBRID tasks and HYBRID's deferred pump
	// drain without computing, arenas and marks are released on the ordinary
	// return path, and the call returns ErrStopped. The executor itself
	// never reads a clock.
	over   func(leftFlops int64) bool
	asking atomic.Bool  // held by the one goroutine asking over
	left   atomic.Int64 // leaf flops not yet started (may dip below 0; read clamped)
	stop   atomic.Bool  // the latch over sets
	// arenas is where the call's arenas come from and go back to: the
	// budget's pool when it names one, else the executor's own.
	arenas *workspace.Pool

	bfsCut int // HYBRID: leaves [0,bfsCut) run BFS-style; the rest are deferred

	mu         sync.Mutex
	cond       *sync.Cond
	leavesDone int
	deferred   []deferredLeaf
	treeDone   bool
}

type deferredLeaf struct {
	run  func()
	done chan struct{}
}

// newRunContext builds the per-call scheduling state. mode is the scheduler
// the call runs as (Executor.RunsAs), and totalLeaves its leaf count, which
// only HYBRID reads: its first totalLeaves − totalLeaves mod workers leaves
// run BFS-style and the rest are deferred, at least one, or RunsAs would
// have resolved BFS. The condition variable and semaphore are created only
// for the modes that use them, keeping the sequential and DFS hot paths
// allocation-light. b binds the call's budget: over starts from leftFlops,
// and arenas come from b.Arenas, or from own when the budget names no pool.
func newRunContext(opts Options, mode Parallel, totalLeaves int, b Budget, leftFlops int64, own *workspace.Pool) *runContext {
	ctx := &runContext{mode: mode, workers: opts.Workers, over: b.Over, arenas: own}
	if b.Arenas != nil {
		ctx.arenas = b.Arenas
	}
	ctx.left.Store(leftFlops)
	if ctx.mode == Hybrid {
		ctx.cond = sync.NewCond(&ctx.mu)
		ctx.bfsCut = totalLeaves - totalLeaves%ctx.workers
	}
	if ctx.mode == BFS || ctx.mode == Hybrid {
		ctx.sem = make(chan struct{}, ctx.workers)
	}
	return ctx
}

// root runs a HYBRID call's recursion body and pumps the deferred leaves
// once the BFS phase has finished (the explicit synchronization the paper
// implements with OpenMP locks).
func (ctx *runContext) root(f func()) {
	go func() {
		f()
		ctx.mu.Lock()
		ctx.treeDone = true
		ctx.cond.Broadcast()
		ctx.mu.Unlock()
	}()
	ctx.mu.Lock()
	for {
		// A stopped call never completes its BFS phase, so the queue drains
		// at once, without running the leaves.
		if len(ctx.deferred) > 0 && (ctx.leavesDone >= ctx.bfsCut || ctx.stopSet()) {
			d := ctx.deferred[0]
			ctx.deferred = ctx.deferred[1:]
			ctx.mu.Unlock()
			if !ctx.stopSet() {
				d.run()
			}
			close(d.done)
			ctx.mu.Lock()
			continue
		}
		if ctx.treeDone && len(ctx.deferred) == 0 {
			break
		}
		ctx.cond.Wait()
	}
	ctx.mu.Unlock()
}

// stopSet reports whether the call's stop latch is set — the bare read, for
// the deferred pump, which holds ctx.mu.
func (ctx *runContext) stopSet() bool { return ctx.stop.Load() }

// stopped is the check every skip site makes: an unbudgeted call pays one
// nil check. Until the latch is set it asks the budget. One goroutine asks
// at a time, so over sees left in order and is never asked again once it
// has returned true; a check that finds another goroutine asking does not
// wait for its answer, and the next check asks again. Under HYBRID a set
// latch also wakes the deferred pump, which may be waiting for BFS-phase
// leaves that will now never run; the broadcast under ctx.mu precedes every
// skip, so no skip can strand the pump.
func (ctx *runContext) stopped() bool {
	if ctx.over == nil {
		return false
	}
	if !ctx.stop.Load() {
		if !ctx.asking.CompareAndSwap(false, true) {
			return false
		}
		//fastmm:allow the budget's own test; unbudgeted calls returned above
		if !ctx.stop.Load() && ctx.over(max(0, ctx.left.Load())) {
			ctx.stop.Store(true)
		}
		ctx.asking.Store(false)
		if !ctx.stop.Load() {
			return false
		}
	}
	if ctx.cond != nil {
		ctx.mu.Lock()
		ctx.cond.Broadcast()
		ctx.mu.Unlock()
	}
	return true
}

// startLeaf takes one starting leaf product's 2·m·k·n off the call's left
// flops, so work in flight never counts as left.
func (ctx *runContext) startLeaf(m, k, n int) {
	if ctx.over != nil {
		ctx.left.Add(-2 * int64(m) * int64(k) * int64(n))
	}
}

// err is the call's result: ErrStopped once the stop latch was set.
func (ctx *runContext) err() error {
	if ctx.stopSet() {
		return ErrStopped
	}
	return nil
}

// compute runs f as bounded work of a BFS or HYBRID call, the only ones that
// call it: it occupies one worker slot. A stopped call skips f once it holds
// the slot, so queued tasks drain without computing.
func (ctx *runContext) compute(f func()) {
	ctx.sem <- struct{}{}
	if !ctx.stopped() {
		f()
	}
	<-ctx.sem
}

// deferLeaf queues a leaf for the post-BFS phase and blocks the calling task
// until it has executed, so parents observe a fully computed M_r.
func (ctx *runContext) deferLeaf(f func()) {
	d := deferredLeaf{run: f, done: make(chan struct{})}
	ctx.mu.Lock()
	ctx.deferred = append(ctx.deferred, d)
	ctx.cond.Broadcast()
	ctx.mu.Unlock()
	<-d.done
}

// leafDone credits one completed BFS-phase leaf toward the phase barrier.
func (ctx *runContext) leafDone() {
	ctx.mu.Lock()
	ctx.leavesDone++
	ctx.cond.Broadcast()
	ctx.mu.Unlock()
}

// fixup runs a dynamic-peeling correction product. Top-level fixups may use
// all workers (they run outside the task tree); deeper ones are ordinary
// bounded work inside their task.
func (ctx *runContext) fixup(level int, f func(workers int)) {
	if ctx.stopped() {
		return
	}
	switch ctx.mode {
	case Sequential:
		f(1)
	case DFS:
		f(ctx.workers)
	default:
		if level == 0 {
			f(ctx.workers)
			return
		}
		ctx.compute(func() { f(1) })
	}
}

// additionWorkers is the parallel width used for the S/T addition chains:
// DFS parallelizes all additions; BFS/HYBRID additions run inside their task.
func (ctx *runContext) additionWorkers() int {
	if ctx.mode == DFS {
		return ctx.workers
	}
	return 1
}

// parRowThreshold is the minimum row count before additions fan out.
const parRowThreshold = 128

// parCombine is mat.Combine parallelized over row slabs.
func parCombine(dst *mat.Dense, coeffs []float64, srcs []*mat.Dense, workers int) {
	rows := dst.Rows()
	if workers <= 1 || rows < parRowThreshold {
		mat.Combine(dst, coeffs, srcs)
		return
	}
	//fastmm:allow row-slab fan-out; the workers<=1 steady state returned above
	eachRows(rows, workers, func(lo, n int) {
		sub := make([]*mat.Dense, len(srcs))
		for i, s := range srcs {
			sub[i] = s.View(lo, 0, n, s.Cols())
		}
		mat.Combine(dst.View(lo, 0, n, dst.Cols()), coeffs, sub)
	})
}

// parScale is mat.Scale parallelized over row slabs.
func parScale(dst *mat.Dense, alpha float64, src *mat.Dense, workers int) {
	rows := dst.Rows()
	if workers <= 1 || rows < parRowThreshold {
		mat.Scale(dst, alpha, src)
		return
	}
	//fastmm:allow row-slab fan-out; the workers<=1 steady state returned above
	eachRows(rows, workers, func(lo, n int) {
		mat.Scale(dst.View(lo, 0, n, dst.Cols()), alpha, src.View(lo, 0, n, src.Cols()))
	})
}

// parZero zeroes dst with the same row-slab policy as the other helpers.
func parZero(dst *mat.Dense, workers int) {
	rows := dst.Rows()
	if workers <= 1 || rows < parRowThreshold {
		dst.Zero()
		return
	}
	//fastmm:allow row-slab fan-out; the workers<=1 steady state returned above
	eachRows(rows, workers, func(lo, n int) {
		dst.View(lo, 0, n, dst.Cols()).Zero()
	})
}

// parAxpy is mat.Axpy parallelized over row slabs.
func parAxpy(dst *mat.Dense, alpha float64, src *mat.Dense, workers int) {
	rows := dst.Rows()
	if workers <= 1 || rows < parRowThreshold {
		mat.Axpy(dst, alpha, src)
		return
	}
	//fastmm:allow row-slab fan-out; the workers<=1 steady state returned above
	eachRows(rows, workers, func(lo, n int) {
		mat.Axpy(dst.View(lo, 0, n, dst.Cols()), alpha, src.View(lo, 0, n, src.Cols()))
	})
}

// eachRows partitions [0,rows) into up to workers contiguous slabs and runs f
// on each concurrently.
func eachRows(rows, workers int, f func(lo, n int)) {
	if workers > rows {
		workers = rows
	}
	var wg sync.WaitGroup
	lo := 0
	for i := 0; i < workers; i++ {
		hi := (i + 1) * rows / workers
		if hi > lo {
			wg.Add(1)
			go func(lo, n int) {
				defer wg.Done()
				f(lo, n)
			}(lo, hi-lo)
		}
		lo = hi
	}
	wg.Wait()
}
