// Package core is the execution engine of the framework: it turns an
// algorithm JU,V,WK from the catalog into an actual matrix multiplication,
// the way Benson & Ballard's generated C++ does. One Executor owns the
// addition plans (with the chosen strategy and optional CSE) and runs the
// recursion with dynamic peeling for arbitrary dimensions (§3.5), piping
// single-coefficient temporaries through to the base case as scalar factors
// (§3.1), and calling the classical gemm kernel at the leaves (§3.4).
//
// Parallel execution follows §4: DFS (parallel leaf gemm and parallel
// additions), BFS (a goroutine task per recursive multiplication, bounded by
// a worker semaphore), and HYBRID (task parallelism for the load-balanced
// prefix of leaf multiplications, then the remainder with all workers on
// each).
//
// All recursion temporaries — the S_r/T_r operand combinations, the M_r
// products, block-view headers, and the addition plans' coefficient scratch
// — come from workspace arenas owned by the Executor (§4's memory
// trade-off, Table 3): DFS reuses one arena with stack discipline, while
// BFS/HYBRID hand each spawned task its own arena from the executor's pool
// (or from a Budget's pool, for a call bound to one).
// After warm-up a sequential or single-worker-DFS Multiply call is
// therefore (amortized) allocation-free; parallel configurations allocate
// only per goroutine fanned out (task closures, slab views), never per
// matrix temporary.
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"fastmm/internal/addchain"
	"fastmm/internal/algo"
	"fastmm/internal/gemm"
	"fastmm/internal/mat"
	"fastmm/internal/resources"
	"fastmm/internal/trace"
	"fastmm/internal/workspace"
)

// Parallel selects the scheduling scheme of §4.
type Parallel int

const (
	// Sequential runs everything on the calling goroutine.
	Sequential Parallel = iota
	// DFS recurses sequentially and parallelizes the leaf gemm calls and
	// the matrix additions (§4.1).
	DFS
	// BFS launches each recursive multiplication (with its additions) as a
	// task; leaf gemms are sequential (§4.2).
	BFS
	// Hybrid runs the load-balanced prefix of leaf tasks BFS-style and the
	// remaining leaves afterwards with all workers each (§4.3).
	Hybrid
)

func (p Parallel) String() string {
	switch p {
	case Sequential:
		return "sequential"
	case DFS:
		return "dfs"
	case BFS:
		return "bfs"
	case Hybrid:
		return "hybrid"
	}
	return fmt.Sprintf("Parallel(%d)", int(p)) //fastmm:allow unreachable fallback for invalid enum values
}

// Resources is the shared execution budget embedded in Options — one struct
// (internal/resources) reused by the tuner's and batcher's options too, so
// Workers/Workspace defaulting and cache-key rendering happen in one place.
type Resources = resources.Resources

// MinDim is §3.4's recursion cutoff: automatic-cutoff recursion (Steps 0)
// splits while every subproblem block dimension stays at least MinDim, and
// the autotuner sends shapes whose largest dimension is below it straight to
// classical gemm.
const MinDim = 128

// Options configures an Executor.
type Options struct {
	// Resources is the execution budget: Workers bounds the goroutines used
	// (default GOMAXPROCS); Workspace, when positive, caps the predicted
	// workspace (in bytes, per WorkspaceBytes) a Multiply call may claim. A
	// BFS or HYBRID call whose per-branch workspace would exceed the cap
	// degrades to DFS — the paper's memory-vs-parallelism dial (§4,
	// Table 3) — and the executor's arena pool sheds arenas beyond
	// (approximately) this many bytes, while always keeping one so reuse
	// survives a cap below even the DFS footprint.
	Resources
	// Steps is the number of recursive steps before the classical base
	// case. 0 selects automatic cutoff: recurse while every subproblem
	// block dimension stays at least MinDim (§3.4's rule of thumb).
	// Explicit Steps ignore MinDim, but a step is never taken on a
	// subproblem smaller than one base-case block.
	Steps int
	// Strategy picks the matrix-addition implementation (§3.2); default
	// write-once, the paper's overall winner.
	Strategy addchain.Strategy
	// CSE applies greedy length-2 common-subexpression elimination to the
	// S- and T-formation plans (§3.3).
	CSE bool
	// Parallel selects the scheduler.
	Parallel Parallel
	// Backend names the leaf-kernel backend (gemm.Backend) the base-case
	// multiplications and peeling fixups run on: "simd", "blas" (in a blas
	// build), or "" for gemm.Default(). The autotuner sets it per plan;
	// unknown names fail executor construction.
	Backend string
	// Fused runs the last recursion level through the fused blocked engine
	// (gemm.DispatchFused) when the backend supports it: the S_r/T_r linear
	// combinations fold into the leaf's packing pass and the M_r products
	// scatter-add straight into the C blocks through the micro-kernel
	// epilogue, so that level materializes no S/T/M temporaries at all
	// (Huang et al., arXiv:1611.01120). Workspace accounting and the
	// Workspace cap see the reduced footprint. On a backend without fused
	// support (gemm.CanFuse false — the blas bridge) the option is ignored
	// and the explicit path runs exactly as before.
	Fused bool
	// Stats, when non-nil, accumulates scheduler counters across Multiply
	// calls (atomic; safe under all schedulers). Used by tests and by the
	// tracing output of cmd/fmmbench to validate §4's scheduling shapes.
	Stats *Stats
}

// Stats counts scheduler events of a Multiply call (§4): how many leaf gemm
// calls ran, how many were BFS-phase tasks vs HYBRID-deferred, how many
// peeling fixups executed, and how many task goroutines were spawned.
type Stats struct {
	LeafCalls      int64
	FusedCalls     int64 // fused leaf products (gemm.DispatchFused calls)
	DeferredLeaves int64
	FixupCalls     int64
	TasksSpawned   int64
}

// Reset zeroes the counters.
func (s *Stats) Reset() {
	atomic.StoreInt64(&s.LeafCalls, 0)
	atomic.StoreInt64(&s.FusedCalls, 0)
	atomic.StoreInt64(&s.DeferredLeaves, 0)
	atomic.StoreInt64(&s.FixupCalls, 0)
	atomic.StoreInt64(&s.TasksSpawned, 0)
}

// Snapshot returns a consistent copy of the counters.
func (s *Stats) Snapshot() Stats {
	return Stats{
		LeafCalls:      atomic.LoadInt64(&s.LeafCalls),
		FusedCalls:     atomic.LoadInt64(&s.FusedCalls),
		DeferredLeaves: atomic.LoadInt64(&s.DeferredLeaves),
		FixupCalls:     atomic.LoadInt64(&s.FixupCalls),
		TasksSpawned:   atomic.LoadInt64(&s.TasksSpawned),
	}
}

func (s *Stats) add(field *int64, n int64) {
	if s != nil {
		atomic.AddInt64(field, n)
	}
}

func (o Options) withDefaults() Options {
	o.Resources = o.Resources.Normalized()
	if o.Steps < 0 {
		o.Steps = 0
	}
	return o
}

// levelPlan holds the addition plans for one algorithm in the schedule.
type levelPlan struct {
	alg   *algo.Algorithm
	splan *addchain.Plan // S_r from blocks of A (columns of U)
	tplan *addchain.Plan // T_r from blocks of B (columns of V)
	cplan *addchain.Plan // C blocks from the M_r (rows of W)
}

// Executor multiplies matrices with a fixed algorithm schedule and options.
// It is safe for concurrent use by multiple goroutines. Reusing one Executor
// across Multiply calls reuses its workspace arenas, so steady-state calls
// are (amortized) allocation-free.
type Executor struct {
	schedule []levelPlan
	opts     Options
	be       gemm.Backend      // resolved from opts.Backend at construction
	fbe      gemm.FusedBackend // non-nil iff opts.Fused and the backend can fuse
	fplans   []fusedPlan       // per schedule level, set iff fbe != nil
	arenas   workspace.Pool
}

// New builds an executor for a single algorithm.
func New(a *algo.Algorithm, opts Options) (*Executor, error) {
	return NewSchedule([]*algo.Algorithm{a}, opts)
}

// NewTrusted builds an executor without re-verifying the algorithm against
// its tensor. It exists for callers — the autotuner above all — that build
// many executors per shape from algorithms the catalog has already verified
// once; repeating the O(m²k²n²) tensor check per candidate would dominate
// the tuning time. Passing an unverified algorithm silently computes the
// wrong product; use New unless the source is trusted.
func NewTrusted(a *algo.Algorithm, opts Options) (*Executor, error) {
	return newSchedule([]*algo.Algorithm{a}, opts, false)
}

// NewSchedule builds an executor that cycles through the given algorithms by
// recursion level — level ℓ uses algs[ℓ mod len(algs)]. This is how the
// paper's ⟨54,54,54⟩ algorithm composes ⟨3,3,6⟩∘⟨3,6,3⟩∘⟨6,3,3⟩ (§5.2).
func NewSchedule(algs []*algo.Algorithm, opts Options) (*Executor, error) {
	return newSchedule(algs, opts, true)
}

func newSchedule(algs []*algo.Algorithm, opts Options, verify bool) (*Executor, error) {
	if len(algs) == 0 {
		return nil, fmt.Errorf("core: empty algorithm schedule")
	}
	opts = opts.withDefaults()
	be, err := gemm.Resolve(opts.Backend)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	e := &Executor{opts: opts, be: be}
	e.arenas.MaxBytes = opts.Workspace
	for _, a := range algs {
		if a == nil {
			return nil, fmt.Errorf("core: nil algorithm in schedule")
		}
		if verify {
			if err := a.Verify(); err != nil {
				return nil, fmt.Errorf("core: refusing invalid algorithm: %w", err)
			}
		}
		lp := levelPlan{
			alg:   a,
			splan: addchain.FromColumns(a.U),
			tplan: addchain.FromColumns(a.V),
			cplan: addchain.FromRows(a.W),
		}
		if opts.CSE {
			lp.splan.ApplyCSE()
			lp.tplan.ApplyCSE()
		}
		e.schedule = append(e.schedule, lp)
	}
	if opts.Fused {
		if fb, ok := be.(gemm.FusedBackend); ok {
			e.fbe = fb
			for _, lp := range e.schedule {
				e.fplans = append(e.fplans, buildFusedPlan(lp))
			}
		}
	}
	return e, nil
}

// Fused reports whether the executor actually runs the fused leaf engine —
// Options.Fused on a backend that supports it.
func (e *Executor) Fused() bool { return e.fbe != nil }

// Opts returns the executor's resolved options.
func (e *Executor) Opts() Options { return e.opts }

// Algorithm returns the first algorithm of the schedule.
func (e *Executor) Algorithm() *algo.Algorithm { return e.schedule[0].alg }

// Backend returns the name of the leaf-kernel backend the executor resolved
// (the default backend's name when Options.Backend was empty).
func (e *Executor) Backend() string { return e.be.Name() }

// Multiply computes C = A·B. C must be A.Rows()×B.Cols() and must not alias
// A or B.
func (e *Executor) Multiply(C, A, B *mat.Dense) error { return e.MultiplyTrace(C, A, B, nil) }

// MultiplyTrace is Multiply with an optional execution-trace sink: when tr
// is non-nil the call records its scheduling decision (the traversal mode
// actually run, workspace-cap degradation included, and the granted width),
// each recursion step's sub-shape and workspace mark, and every leaf gemm
// call. The sink is fixed-capacity and concurrency-safe, so BFS fan-out
// records without coordination; a nil sink costs one pointer check per site.
//
// The steady-state DFS path must stay allocation-free (the benchmarks pin it
// at one pinned runContext alloc per call, waived below); fmmvet enforces
// this over the whole static call graph.
//
//fastmm:zeroalloc
func (e *Executor) MultiplyTrace(C, A, B *mat.Dense, tr *trace.Spans) error {
	return e.product(C, A, B, 1, false, tr, Budget{})
}

// ErrStopped is returned by a budgeted call whose budget ran out before the
// call finished. C then holds a partial result and must be discarded.
var ErrStopped = errors.New("core: call stopped")

// Budget bounds one call of a Stoppable (see WithBudget).
type Budget struct {
	// Over, when non-nil, is asked at every stop check with the leaf flops
	// the call has not yet started: it starts at the plan's leaf flops (R^s
	// leaves of 2·(m/M^s)(k/K^s)(n/N^s) over the peeled core — peeling
	// fix-ups are not counted, so it is a lower bound), and each leaf gemm
	// and fused product takes off its own 2·m·k·n as it starts. The first
	// true stops the call. Over is called from one goroutine at a time (a
	// check that finds it busy skips it), and never again once it has
	// returned true.
	Over func(leftFlops int64) bool
	// Arenas, when non-nil, is the pool every arena of the call comes from
	// and goes back to — the root's and BFS/HYBRID tasks' — instead of the
	// executor's own.
	Arenas *workspace.Pool
}

// Stoppable is the executor's entry points bound to one Budget; see
// WithBudget.
type Stoppable struct {
	e *Executor
	b Budget
}

// WithBudget binds the executor's entry points to a budget; the tuner binds
// one per probe run. Once Over returns true, the call skips its remaining
// recursion levels, leaves, fused products, additions and peeling fix-ups,
// drains its spawned tasks, releases its workspace on the ordinary return
// path and returns ErrStopped. The overshoot is at most one leaf or one
// addition pass past the check that stopped it. A zero Budget makes every
// call an ordinary one.
func (e *Executor) WithBudget(b Budget) Stoppable { return Stoppable{e: e, b: b} }

// MultiplyTrace is Executor.MultiplyTrace under the bound budget.
func (s Stoppable) MultiplyTrace(C, A, B *mat.Dense, tr *trace.Spans) error {
	return s.e.product(C, A, B, 1, false, tr, s.b)
}

// MultiplyAdd is Executor.MultiplyAdd under the bound budget.
func (s Stoppable) MultiplyAdd(C, A, B *mat.Dense, alpha float64) error {
	return s.e.product(C, A, B, alpha, true, nil, s.b)
}

// product is every general-multiply entry: C = alpha·A·B, or C += alpha·A·B
// with acc (MultiplyAdd), with an optional trace sink and budget.
func (e *Executor) product(C, A, B *mat.Dense, alpha float64, acc bool, tr *trace.Spans, b Budget) error {
	if A.Cols() != B.Rows() || C.Rows() != A.Rows() || C.Cols() != B.Cols() {
		//fastmm:allow error construction on the reject path, before any work
		return fmt.Errorf("core: dimension mismatch C %d×%d = A %d×%d · B %d×%d",
			C.Rows(), C.Cols(), A.Rows(), A.Cols(), B.Rows(), B.Cols())
	}
	mode := e.scheduleMode(A.Rows(), A.Cols(), B.Cols())
	var left int64
	if b.Over != nil {
		left = e.leafFlops(0, A.Rows(), A.Cols(), B.Cols())
	}
	ctx := newRunContext(e.opts, mode, e.leafCount(), b, left, &e.arenas) //fastmm:allow the pinned one allocation per call (runContext + its BFS/HYBRID sync)
	ctx.tr = tr
	if tr != nil {
		tr.Add(trace.Span{
			Kind:    trace.KindSched,
			Sched:   mode.String(),
			Workers: int32(ctx.workers),
			M:       int32(A.Rows()),
			K:       int32(A.Cols()),
			N:       int32(B.Cols()),
		})
	}
	ar := ctx.arenas.Get()
	// Returned via defer so a panic escaping the recursion (e.g. a caller
	// mutating an operand concurrently) cannot leak the warmed arena. For
	// Hybrid, ctx.root only returns once the tree goroutine has finished,
	// so the arena is idle by the time the defer runs.
	defer ctx.arenas.Put(ar)
	if mode == Sequential || mode == DFS {
		// Single-traversal modes use this one arena for the whole call:
		// reserving the analytic footprint up front makes even the first
		// call's matrix temporaries a single chunk allocation.
		ar.Reserve(int(e.workspaceFloats(mode, A.Rows(), A.Cols(), B.Cols(), 0)))
	}
	if mode != Hybrid {
		// Only HYBRID needs the deferred-leaf pump of ctx.root; calling
		// multiply directly keeps the hot path free of closure allocations.
		e.multiply(ctx, ar, C, A, B, alpha, 0, 0, acc)
	} else {
		//fastmm:allow HYBRID spawn path; DFS steady state takes the branch above
		ctx.root(func() {
			e.multiply(ctx, ar, C, A, B, alpha, 0, 0, acc)
		})
	}
	return ctx.err()
}

// scheduleMode resolves the scheduler for one call: the configured mode,
// degraded BFS/HYBRID→DFS when the Workspace cap would be exceeded (§4's
// memory trade-off; DFS is the minimum-workspace traversal, so it is never
// degraded further).
func (e *Executor) scheduleMode(p, q, r int) Parallel {
	mode := e.opts.Parallel
	if cap := e.opts.Workspace; cap > 0 && (mode == BFS || mode == Hybrid) {
		if e.workspaceBytes(mode, p, q, r) > cap {
			mode = DFS
		}
	}
	return mode
}

// WorkspaceBytes predicts the peak workspace (in bytes) one Multiply of a
// p×q by q×r problem claims under the executor's configured scheduler — the
// analytic memory model of the paper's Table 3, extended with the gemm
// kernel's per-worker packing slabs. DFS charges one branch per level;
// BFS/HYBRID charge every concurrent branch. The estimate walks the actual
// recursion tree (schedule, steps, peeling cores), so it is exact for the
// matrix temporaries; per-task scratch (headers, coefficient slabs, one
// 32 KiB minimum arena chunk per concurrent task) adds small change on top
// that the Workspace cap does not meter.
func (e *Executor) WorkspaceBytes(p, q, r int) int64 {
	return e.workspaceBytes(e.opts.Parallel, p, q, r)
}

func (e *Executor) workspaceBytes(mode Parallel, p, q, r int) int64 {
	floats := e.workspaceFloats(mode, p, q, r, 0)
	packWorkers := 1
	if mode != Sequential {
		packWorkers = e.opts.Workers
	}
	//fastmm:allow Backend interface read of a static per-backend constant
	return 8 * (floats + int64(packWorkers)*e.be.PackFloatsPerWorker())
}

// workspaceFloats counts the float64 temporaries live at once in the
// subtree rooted at the given level and dims, mirroring the allocation
// pattern of fastStep: every M_r is materialized, operands that are scaled
// copies of a source block are aliased (no buffer), CSE aux temporaries
// are materialized per formOperand call (per branch) but only once per
// family under streaming.
func (e *Executor) workspaceFloats(mode Parallel, p, q, r, level int) int64 {
	if !e.shouldRecurse(level, p, q, r) {
		return 0
	}
	lp := e.schedule[level%len(e.schedule)]
	b := lp.alg.Base
	R := int64(lp.alg.Rank())
	bm, bk, bn := p/b.M, q/b.K, r/b.N // peeling-core block dims
	if e.fbe != nil && !e.shouldRecurse(level+1, bm, bk, bn) {
		// The fused level materializes no S/T/M temporaries at all: operand
		// sums form inside the leaf's packing pass and products scatter-add
		// straight into C. Only view headers and Scaled scratch remain —
		// small change the model does not meter, like the per-task scratch.
		return 0
	}
	sUnit, tUnit := int64(bm*bk), int64(bk*bn)
	auxS, auxT := int64(len(lp.splan.Aux)), int64(len(lp.tplan.Aux))
	matS, matT := int64(materializedOutputs(lp.splan)), int64(materializedOutputs(lp.tplan))
	streamCost := sUnit*(auxS+matS) + tUnit*(auxT+matT) // whole family at once
	self := R * int64(bm*bn)                            // the M_r products, all live until the combine
	child := e.workspaceFloats(mode, bm, bk, bn, level+1)
	if (mode == BFS || mode == Hybrid) && e.shouldSpawn(level) {
		// Every branch runs concurrently with its own operand buffers
		// (streaming still forms the families once, in the parent). Aux
		// temporaries only materialize in branches that form an operand.
		if e.opts.Strategy == addchain.Streaming {
			return self + streamCost + R*child
		}
		return self + sUnit*matS*(1+auxS) + tUnit*matT*(1+auxT) + R*child
	}
	if e.opts.Strategy == addchain.Streaming {
		return self + streamCost + child
	}
	// One branch at a time: its operands are released before the next, so
	// the peak is one materialized operand plus its aux (aliased branches
	// materialize nothing, aux included).
	var perS, perT int64
	if matS > 0 {
		perS = 1 + auxS
	}
	if matT > 0 {
		perT = 1 + auxT
	}
	return self + sUnit*perS + tUnit*perT + child
}

// aliasedOutput reports whether plan output ch is served by aliasing a
// source block with a scalar factor instead of materializing a buffer —
// the single shared decision used by formOperand, streamFamily, and the
// workspace model.
func aliasedOutput(p *addchain.Plan, ch addchain.Chain) bool {
	return len(ch.Terms) > 0 && ch.IsScaledCopy() && ch.Terms[0].Src < p.NumSources
}

// materializedOutputs counts the plan outputs that require a buffer.
func materializedOutputs(p *addchain.Plan) int {
	n := 0
	for _, ch := range p.Outputs {
		if !aliasedOutput(p, ch) {
			n++
		}
	}
	return n
}

// WorkspaceRetained reports the bytes currently held by the executor's
// arena pool — the live counterpart of the WorkspaceBytes prediction.
func (e *Executor) WorkspaceRetained() int64 { return e.arenas.Bytes() }

// leafFlops is the flop count of the leaf products of a p×q by q×r call
// from the given level down: R^s leaves of 2·(p/M^s)(q/K^s)(r/N^s) over the
// peeled cores, the count Budget.Over starts from. A fused last level runs
// exactly these products, so it counts the same.
func (e *Executor) leafFlops(level, p, q, r int) int64 {
	if !e.shouldRecurse(level, p, q, r) {
		return 2 * int64(p) * int64(q) * int64(r)
	}
	lp := e.schedule[level%len(e.schedule)]
	b := lp.alg.Base
	return int64(lp.alg.Rank()) * e.leafFlops(level+1, p/b.M, q/b.K, r/b.N)
}

// leafCount returns R^L, the number of leaf multiplications for explicit
// Steps (used by Hybrid's load-balance split). For auto cutoff it returns 0
// and Hybrid degrades to BFS.
func (e *Executor) leafCount() int { return e.leavesFrom(0) }

// leavesFrom returns the number of leaves of a full subtree rooted at the
// given level (Π of the ranks of the remaining levels), or 0 in auto mode.
func (e *Executor) leavesFrom(level int) int {
	if e.opts.Steps == 0 {
		return 0
	}
	n := 1
	for l := level; l < e.opts.Steps; l++ {
		n *= e.schedule[l%len(e.schedule)].alg.Rank()
	}
	return n
}

// shouldRecurse applies §3.4: an explicit step count is honored as long as
// one base-case block fits; auto mode recurses while all block dimensions
// stay at least MinDim.
func (e *Executor) shouldRecurse(level int, p, q, r int) bool {
	lp := e.schedule[level%len(e.schedule)]
	b := lp.alg.Base
	if p < b.M || q < b.K || r < b.N {
		return false
	}
	if e.opts.Steps > 0 {
		return level < e.opts.Steps
	}
	return p/b.M >= MinDim && q/b.K >= MinDim && r/b.N >= MinDim
}

// multiply computes C (+)= alpha·A·B recursively within arena ar (owned by
// the calling goroutine). leafBase locates this subtree's first leaf in the
// global preorder numbering (HYBRID bookkeeping). acc selects accumulation
// into C (MultiplyAdd's beta path) — it reaches the leaves and the combine
// epilogue, so no product temporary is ever materialized for it.
func (e *Executor) multiply(ctx *runContext, ar *workspace.Arena, C, A, B *mat.Dense, alpha float64, level, leafBase int, acc bool) {
	// The stop check of every level and, in Sequential/DFS, of every leaf
	// (BFS/HYBRID leaves re-check in compute and the deferred pump). It comes
	// before any operand is read: a task whose operand formation a stop
	// skipped arrives here with nil operands.
	if ctx.stopped() {
		return
	}
	p, q, r := A.Rows(), A.Cols(), B.Cols()
	if !e.shouldRecurse(level, p, q, r) {
		e.leafMultiply(ctx, C, A, B, alpha, level, leafBase, acc)
		return
	}
	lp := e.schedule[level%len(e.schedule)]
	b := lp.alg.Base

	// Dynamic peeling (§3.5): carve the largest (M·i)×(K·j)×(N·k) core and
	// fix up the borders with classical products.
	pc, qc, rc := p-p%b.M, q-q%b.K, r-r%b.N
	a11 := ar.View(A, 0, 0, pc, qc)
	b11 := ar.View(B, 0, 0, qc, rc)
	c11 := ar.View(C, 0, 0, pc, rc)
	e.fastStep(ctx, ar, lp, c11, a11, b11, alpha, level, leafBase, acc)

	// The fixup closures run on this goroutine (directly, or inside its
	// bounded-compute section), so the views can come from this arena. The
	// first write into each region honors acc; later contributions always
	// accumulate.
	if qc < q { // C11 += A12·B21
		e.countFixup()
		//fastmm:allow dynamic-peeling fixup, off the uniform steady-state path
		ctx.fixup(level, func(w int) {
			gemm.Dispatch(e.be, c11, alpha, ar.View(A, 0, qc, pc, q-qc), ar.View(B, qc, 0, q-qc, rc), true, w)
		})
	}
	if rc < r { // C12 (+)= A11·B12 + A12·B22
		e.countFixup()
		//fastmm:allow dynamic-peeling fixup, off the uniform steady-state path
		ctx.fixup(level, func(w int) {
			c12 := ar.View(C, 0, rc, pc, r-rc)
			gemm.Dispatch(e.be, c12, alpha, ar.View(A, 0, 0, pc, qc), ar.View(B, 0, rc, qc, r-rc), acc, w)
			if qc < q {
				gemm.Dispatch(e.be, c12, alpha, ar.View(A, 0, qc, pc, q-qc), ar.View(B, qc, rc, q-qc, r-rc), true, w)
			}
		})
	}
	if pc < p { // [C21 C22] (+)= A2·B (full-width bottom strip)
		e.countFixup()
		//fastmm:allow dynamic-peeling fixup, off the uniform steady-state path
		ctx.fixup(level, func(w int) {
			gemm.Dispatch(e.be, ar.View(C, pc, 0, p-pc, r), alpha, ar.View(A, pc, 0, p-pc, q), B, acc, w)
		})
	}
}

// leafMultiply is the recursion base case: a classical gemm call whose
// parallelism depends on the scheduler (§4): DFS leaves use all workers, BFS
// leaves run sequentially inside their task, HYBRID defers the tail leaves to
// a second all-worker phase.
func (e *Executor) leafMultiply(ctx *runContext, C, A, B *mat.Dense, alpha float64, level, leafIdx int, acc bool) {
	if s := e.opts.Stats; s != nil {
		s.add(&s.LeafCalls, 1)
	}
	switch ctx.mode {
	case Sequential:
		e.leafGemm(ctx, C, alpha, A, B, acc, 1)
	case DFS:
		e.leafGemm(ctx, C, alpha, A, B, acc, ctx.workers)
	case BFS:
		//fastmm:allow BFS task body; per-task captures are the spawn cost
		ctx.compute(func() { e.leafGemm(ctx, C, alpha, A, B, acc, 1) })
	case Hybrid:
		if ctx.isDeferredLeaf(leafIdx) {
			if s := e.opts.Stats; s != nil {
				s.add(&s.DeferredLeaves, 1)
			}
			//fastmm:allow HYBRID deferred-leaf capture, spawn path by design
			ctx.deferLeaf(func() { e.leafGemm(ctx, C, alpha, A, B, acc, ctx.workers) })
			return
		}
		//fastmm:allow HYBRID BFS-phase task body, spawn path by design
		ctx.compute(func() { e.leafGemm(ctx, C, alpha, A, B, acc, 1) })
		ctx.leafDone(maxInt(1, e.leavesFrom(level)))
	}
}

// leafGemm runs one leaf gemm. Its flops leave the call's budget as it
// starts — for a task-run leaf, not when it is queued.
func (e *Executor) leafGemm(ctx *runContext, C *mat.Dense, alpha float64, A, B *mat.Dense, acc bool, workers int) {
	ctx.startLeaf(A.Rows(), A.Cols(), B.Cols())
	gemm.DispatchTraced(e.be, C, alpha, A, B, acc, workers, ctx.tr)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// operand is a formed (or aliased) input to a recursive multiplication.
type operand struct {
	m     *mat.Dense
	alpha float64
}

// operands is an arena-backed family of operands (parallel slices, so both
// parts come from existing arena slabs). The zero value means "not formed".
type operands struct {
	mats   []*mat.Dense
	alphas []float64
}

func (o operands) at(r int) operand { return operand{m: o.mats[r], alpha: o.alphas[r]} }

// fastStep performs one recursive step of the fast algorithm on a core whose
// dimensions divide the base case exactly. All temporaries come from ar; the
// step's mark is released on return, so a DFS traversal reuses one level's
// buffers across siblings while spawned BFS/HYBRID branches draw their own
// arenas from the call's pool (the M_r stay in the parent's arena — the
// parent outlives its children and combines their results).
func (e *Executor) fastStep(ctx *runContext, ar *workspace.Arena, lp levelPlan, C, A, B *mat.Dense, alpha float64, level, leafBase int, acc bool) {
	b := lp.alg.Base
	R := lp.alg.Rank()
	bm, bk, bn := A.Rows()/b.M, A.Cols()/b.K, B.Cols()/b.N

	if e.fbe != nil && !e.shouldRecurse(level+1, bm, bk, bn) {
		// One level above the leaf with a fuse-capable backend: skip operand
		// formation and the M_r products entirely and run the fused engine.
		e.fusedStep(ctx, ar, lp, C, A, B, alpha, level, acc)
		return
	}

	mark := ar.Mark()
	defer ar.Release(mark)
	if ctx.tr != nil {
		ctx.tr.Add(trace.Span{
			Kind:  trace.KindStep,
			Level: int32(level),
			M:     int32(A.Rows()),
			K:     int32(A.Cols()),
			N:     int32(B.Cols()),
			Mark:  ar.LiveFloatBytes(),
		})
	}

	ablocks := blocks(ar, A, b.M, b.K)
	bblocks := blocks(ar, B, b.K, b.N)
	cblocks := blocks(ar, C, b.M, b.N)

	// The streaming strategy (§3.2 method 3) forms every S_r and T_r up
	// front in one pass over the source blocks, at the cost of keeping all
	// R temporaries alive — exactly the memory trade-off the paper
	// describes. The other strategies form each operand inside task r.
	// The operand families live as parallel mats/alphas slices so they
	// come from the arena (there is no operand-struct slab).
	var sOps, tOps operands
	if e.opts.Strategy == addchain.Streaming {
		aw := ctx.additionWorkers()
		sOps = e.streamFamily(ctx, ar, lp.splan, ablocks, bm, bk, alpha, aw)
		tOps = e.streamFamily(ctx, ar, lp.tplan, bblocks, bk, bn, 1, aw)
	}

	// The M_r live in this (parent) arena: they must survive until the
	// combine below, after every child arena has been returned.
	ms := ar.Ptrs(R)
	for r := 0; r < R; r++ {
		ms[r] = ar.Matrix(bm, bn)
	}
	childSpan := maxInt(1, e.leavesFrom(level+1))
	topLevel := level == 0

	if (ctx.mode == BFS || ctx.mode == Hybrid) && e.shouldSpawn(level) {
		e.fanOut(ctx, lp, sOps, tOps, ablocks, bblocks, ms, bm, bk, bn, alpha, level, leafBase, childSpan)
	} else {
		for r := 0; r < R && !ctx.stopped(); r++ {
			rmark := ar.Mark()
			var s, t operand
			if sOps.mats != nil {
				s, t = sOps.at(r), tOps.at(r)
			} else {
				s = e.formOperand(ctx, ar, lp.splan, r, ablocks, bm, bk, alpha)
				t = e.formOperand(ctx, ar, lp.tplan, r, bblocks, bk, bn, 1)
			}
			e.multiply(ctx, ar, ms[r], s.m, t.m, s.alpha*t.alpha, level+1, leafBase+r*childSpan, false)
			ar.Release(rmark)
		}
	}

	// Combine the M_r into the C blocks. At the top level all workers are
	// available (§4.2); deeper combines run inside their own task.
	combineWorkers := 1
	if ctx.mode == DFS || (topLevel && ctx.mode != Sequential) {
		combineWorkers = ctx.workers
	}
	if (ctx.mode == BFS || ctx.mode == Hybrid) && !topLevel {
		//fastmm:allow BFS/HYBRID bounded-compute section; DFS takes the else branch
		ctx.compute(func() { e.combine(ctx, ar, lp.cplan, cblocks, ms, combineWorkers, acc) })
	} else {
		e.combine(ctx, ar, lp.cplan, cblocks, ms, combineWorkers, acc)
	}
}

// fanOut runs one recursion level's R branch multiplications as BFS/HYBRID
// tasks. It lives apart from fastStep so the goroutine closure's captures
// (sOps, tOps, ms, …) are heap-moved only on spawning paths — a DFS
// traversal through fastStep must stay allocation-free.
//
//fastmm:allow BFS/HYBRID spawn path: allocates per task by design
func (e *Executor) fanOut(ctx *runContext, lp levelPlan, sOps, tOps operands, ablocks, bblocks, ms []*mat.Dense, bm, bk, bn int, alpha float64, level, leafBase, childSpan int) {
	var wg sync.WaitGroup
	for r := 0; r < lp.alg.Rank(); r++ {
		if s := e.opts.Stats; s != nil {
			s.add(&s.TasksSpawned, 1)
		}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			car := ctx.arenas.Get()
			defer ctx.arenas.Put(car)
			var s, t operand
			if sOps.mats != nil {
				s, t = sOps.at(r), tOps.at(r)
			} else {
				ctx.compute(func() {
					s = e.formOperand(ctx, car, lp.splan, r, ablocks, bm, bk, alpha)
					t = e.formOperand(ctx, car, lp.tplan, r, bblocks, bk, bn, 1)
				})
			}
			e.multiply(ctx, car, ms[r], s.m, t.m, s.alpha*t.alpha, level+1, leafBase+r*childSpan, false)
		}(r)
	}
	wg.Wait()
}

// shouldSpawn limits task creation to recursion levels that still have
// meaningful work; spawning below the leaf level is pointless.
func (e *Executor) shouldSpawn(level int) bool {
	return e.opts.Steps == 0 || level < e.opts.Steps
}

// blocks slices m into an mb×nb grid of equal arena-backed views (dims must
// divide).
func blocks(ar *workspace.Arena, m *mat.Dense, mb, nb int) []*mat.Dense {
	rb, cb := m.Rows()/mb, m.Cols()/nb
	out := ar.Ptrs(mb * nb)
	for i := 0; i < mb; i++ {
		for j := 0; j < nb; j++ {
			out[i*nb+j] = ar.View(m, i*rb, j*cb, rb, cb)
		}
	}
	return out
}

// formOperand materializes S_r (or T_r) per the configured strategy, or
// returns an aliased block with a scalar factor when the chain is a scaled
// copy (§3.1). alpha is a pending scale of the source operand and multiplies
// into the formed combination.
func (e *Executor) formOperand(ctx *runContext, ar *workspace.Arena, plan *addchain.Plan, r int, src []*mat.Dense, rows, cols int, alpha float64) operand {
	ch := plan.Outputs[r]
	if len(ch.Terms) == 0 {
		z := ar.Matrix(rows, cols)
		z.Zero()
		return operand{m: z, alpha: 0}
	}
	if aliasedOutput(plan, ch) {
		return operand{m: src[ch.Terms[0].Src], alpha: alpha * ch.Terms[0].Coeff}
	}
	workers := ctx.additionWorkers()
	nodes := e.nodes(ar, plan, src, rows, cols, workers)
	dst := ar.Matrix(rows, cols)
	coeffs := ar.Floats(len(ch.Terms))
	srcs := ar.Ptrs(len(ch.Terms))
	for i, t := range ch.Terms {
		coeffs[i] = alpha * t.Coeff
		srcs[i] = nodes[t.Src]
	}
	if e.opts.Strategy == addchain.Pairwise {
		parScale(dst, coeffs[0], srcs[0], workers)
		for i := 1; i < len(srcs); i++ {
			parAxpy(dst, coeffs[i], srcs[i], workers)
		}
	} else {
		parCombine(dst, coeffs, srcs, workers)
	}
	return operand{m: dst, alpha: 1}
}

// streamFamily forms all outputs of a plan in one pass over the source
// blocks: for each node, scatter its contribution into every destination
// that uses it (§3.2 method 3). Scaled copies are still aliased.
func (e *Executor) streamFamily(ctx *runContext, ar *workspace.Arena, plan *addchain.Plan, src []*mat.Dense, rows, cols int, alpha float64, workers int) operands {
	nodes := e.nodes(ar, plan, src, rows, cols, workers)
	out := operands{mats: ar.Ptrs(len(plan.Outputs)), alphas: ar.Floats(len(plan.Outputs))}
	touched := ar.Bools(len(plan.Outputs))
	for r, ch := range plan.Outputs {
		switch {
		case len(ch.Terms) == 0:
			z := ar.Matrix(rows, cols)
			z.Zero()
			out.mats[r], out.alphas[r] = z, 0
			touched[r] = true
		case aliasedOutput(plan, ch):
			out.mats[r], out.alphas[r] = src[ch.Terms[0].Src], alpha*ch.Terms[0].Coeff
			touched[r] = true
		default:
			out.mats[r], out.alphas[r] = ar.Matrix(rows, cols), 1
		}
	}
	for n, node := range nodes {
		if ctx.stopped() {
			break
		}
		for r, ch := range plan.Outputs {
			if out.alphas[r] != 1 || aliasedOutput(plan, ch) {
				continue // aliased or zero output
			}
			for _, t := range ch.Terms {
				if t.Src != n {
					continue
				}
				if !touched[r] {
					parScale(out.mats[r], alpha*t.Coeff, node, workers)
					touched[r] = true
				} else {
					parAxpy(out.mats[r], alpha*t.Coeff, node, workers)
				}
			}
		}
	}
	return out
}

// nodes resolves plan node ids to matrices, materializing CSE temporaries on
// demand (write-once, in dependency order).
func (e *Executor) nodes(ar *workspace.Arena, plan *addchain.Plan, src []*mat.Dense, rows, cols, workers int) []*mat.Dense {
	if len(plan.Aux) == 0 {
		return src
	}
	nodes := ar.Ptrs(plan.NumNodes())
	copy(nodes, src)
	for _, aux := range plan.Aux {
		d := ar.Matrix(rows, cols)
		coeffs := ar.Floats(len(aux.Terms))
		srcs := ar.Ptrs(len(aux.Terms))
		for i, t := range aux.Terms {
			coeffs[i] = t.Coeff
			srcs[i] = nodes[t.Src]
		}
		parCombine(d, coeffs, srcs, workers)
		nodes[aux.Dst] = d
	}
	return nodes
}

// combine forms the C blocks from the M_r per the configured strategy. With
// acc the blocks accumulate (C_j += Σ w·M_r) instead of being overwritten —
// MultiplyAdd's beta path reaching the combine epilogue.
func (e *Executor) combine(ctx *runContext, ar *workspace.Arena, plan *addchain.Plan, cblocks, ms []*mat.Dense, workers int, acc bool) {
	if e.opts.Strategy == addchain.Streaming {
		e.streamCombine(ctx, ar, plan, cblocks, ms, workers, acc)
		return
	}
	mark := ar.Mark()
	defer ar.Release(mark)
	for j, ch := range plan.Outputs {
		if ctx.stopped() {
			return
		}
		dst := cblocks[j]
		if len(ch.Terms) == 0 {
			if !acc {
				dst.Zero()
			}
			continue
		}
		coeffs := ar.Floats(len(ch.Terms))
		srcs := ar.Ptrs(len(ch.Terms))
		for i, t := range ch.Terms {
			coeffs[i] = t.Coeff
			srcs[i] = ms[t.Src]
		}
		switch {
		case acc:
			for i := range srcs {
				parAxpy(dst, coeffs[i], srcs[i], workers)
			}
		case e.opts.Strategy == addchain.Pairwise:
			parScale(dst, coeffs[0], srcs[0], workers)
			for i := 1; i < len(srcs); i++ {
				parAxpy(dst, coeffs[i], srcs[i], workers)
			}
		default: // WriteOnce
			parCombine(dst, coeffs, srcs, workers)
		}
	}
}

// streamCombine implements the streaming strategy for the output side: walk
// each M_r once and scatter its contribution into every C block using it.
// With acc every contribution accumulates and untouched blocks are left
// as-is rather than zeroed.
func (e *Executor) streamCombine(ctx *runContext, ar *workspace.Arena, plan *addchain.Plan, cblocks, ms []*mat.Dense, workers int, acc bool) {
	mark := ar.Mark()
	defer ar.Release(mark)
	touched := ar.Bools(len(cblocks))
	for r, m := range ms {
		if ctx.stopped() {
			return
		}
		for j, ch := range plan.Outputs {
			for _, t := range ch.Terms {
				if t.Src != r {
					continue
				}
				if !touched[j] && !acc {
					parScale(cblocks[j], t.Coeff, m, workers)
				} else {
					parAxpy(cblocks[j], t.Coeff, m, workers)
				}
				touched[j] = true
			}
		}
	}
	if !acc {
		for j := range plan.Outputs {
			if !touched[j] {
				cblocks[j].Zero()
			}
		}
	}
}

func (e *Executor) countFixup() {
	if s := e.opts.Stats; s != nil {
		s.add(&s.FixupCalls, 1)
	}
}
