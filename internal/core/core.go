// Package core is the execution engine of the framework: it turns an
// algorithm JU,V,WK from the catalog into an actual matrix multiplication,
// the way Benson & Ballard's generated C++ does. One Executor lowers each
// schedule level at construction to a product list (the addition plans,
// with the chosen strategy and optional CSE, and each product's C
// destinations) and runs the recursion with dynamic peeling for arbitrary
// dimensions (§3.5). Every recursion step is one walk over its level's
// products (step.go): each operand is aliased, piping single-coefficient
// temporaries through to the base case as scalar factors (§3.1), formed, or
// fused into the leaf's packing pass, and each product is materialised and
// combined into C or scatter-added by the fused leaf's epilogue. The leaves
// call the classical gemm kernel (§3.4).
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
	"sync/atomic"

	"fastmm/internal/addchain"
	"fastmm/internal/algo"
	"fastmm/internal/gemm"
	"fastmm/internal/mat"
	"fastmm/internal/op"
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
	// Strategy picks the matrix-addition implementation (§3.2); the zero
	// value is write-once, the paper's overall winner.
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
	// Fused lowers the last recursion level's products for the fused
	// blocked engine (gemm.DispatchFused) when the backend supports it: each
	// product's S_r/T_r combinations fold into the leaf's packing pass and
	// its M_r scatter-adds straight into the C blocks through the
	// micro-kernel epilogue, so that level materializes no S/T/M temporaries
	// at all (Huang et al., arXiv:1611.01120). Every other level, and every
	// level of an executor without it, forms its operands and materialises
	// its products.
	// Workspace accounting and the Workspace cap see the reduced footprint.
	// On a backend without fused support (gemm.CanFuse false — the blas
	// bridge) the option is ignored. The autotuner sets it exactly where the
	// backend can fuse; cmd/fmmbench's explicit-vs-fused figures set it.
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

// Executor multiplies matrices with a fixed algorithm schedule and options.
// It is safe for concurrent use by multiple goroutines. Reusing one Executor
// across Multiply calls reuses its workspace arenas, so steady-state calls
// are (amortized) allocation-free.
type Executor struct {
	schedule []levelPlan
	opts     Options
	be       gemm.Backend      // resolved from opts.Backend at construction
	fbe      gemm.FusedBackend // non-nil iff opts.Fused and the backend can fuse
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
		e.schedule = append(e.schedule, newLevel(a, opts.CSE))
	}
	if fb, ok := be.(gemm.FusedBackend); ok && opts.Fused {
		e.fbe = fb
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

// Do runs one request, C = α·op(A,B) + β·C, and is the executor's one
// entry: Multiply, MultiplyAdd, MultiplyATA and MultiplySyrk are Do with
// the op filled in. The request is checked by op.Request.Validate (shape
// rules, nil operands, a C that overlaps A or B); a request that fails the
// check returns its error and does no work. A β outside {0, 1} scales C
// once up front; α and the accumulate flag (β ≠ 0) then ride the recursion
// to the leaf gemm, the fused epilogue and the combine (§3.1), so no pass
// over C runs after the product. AᵗA and Syrk are the backend's classical
// lower-triangle pass (see MultiplyATA).
//
// When r.Trace is non-nil a general product records its scheduling
// decision (the traversal mode actually run, workspace-cap degradation
// included, and the granted width), each recursion step's sub-shape and
// workspace mark, and every leaf and fused-leaf call. The sink is
// fixed-capacity and concurrency-safe, so BFS fan-out records without
// coordination; a nil sink costs one pointer check per site.
//
// The steady-state DFS path must stay allocation-free (the benchmarks pin it
// at one pinned runContext alloc per call, waived below); fmmvet enforces
// this over the whole static call graph.
//
//fastmm:zeroalloc
func (e *Executor) Do(r op.Request) error { return e.do(r, Budget{}) }

// Multiply computes C = A·B. C must be A.Rows()×B.Cols() and must not alias
// A or B; a call that breaks either rule returns an error and does no work.
func (e *Executor) Multiply(C, A, B *mat.Dense) error {
	return e.Do(op.Request{Op: op.Multiply, C: C, A: A, B: B})
}

// MultiplyAdd computes C += alpha·A·B. The accumulation rides the recursion
// all the way to the leaves (alpha piped to the base case, §3.1; the leaf
// gemm and the combine epilogue run in accumulate mode), so no product-sized
// temporary is materialized and no separate final-add pass runs — under a
// fused plan the accumulate happens inside the scatter-add epilogue itself.
// Dimensions as for Multiply. An alpha of 0 adds nothing: the call checks
// its operands and leaves C as it is.
func (e *Executor) MultiplyAdd(C, A, B *mat.Dense, alpha float64) error {
	r := op.Request{Op: op.MultiplyAdd, C: C, A: A, B: B, Alpha: alpha}
	if alpha == 0 { // a Request reads Alpha 0 as 1
		return r.Validate()
	}
	return e.Do(r)
}

// ErrStopped is returned by a budgeted call whose budget ran out before the
// call finished. C then holds a partial result and must be discarded.
var ErrStopped = errors.New("core: call stopped")

// Budget bounds one Do call of a Stoppable (see WithBudget).
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

// Stoppable is the executor's Do bound to one Budget; see WithBudget.
type Stoppable struct {
	e *Executor
	b Budget
}

// WithBudget binds the executor's Do to a budget; the tuner binds one per
// probe run and a zero one for every served call. Once Over returns true, a
// general product skips its remaining recursion levels, leaves, fused
// products, additions and peeling fix-ups, drains its spawned tasks,
// releases its workspace on the ordinary return path and returns
// ErrStopped. The overshoot is at most one leaf or one addition pass past
// the check that stopped it. AᵗA and Syrk are one triangle pass with no
// stop check. A zero Budget makes every call an ordinary one.
func (e *Executor) WithBudget(b Budget) Stoppable { return Stoppable{e: e, b: b} }

// Do is Executor.Do under the bound budget.
func (s Stoppable) Do(r op.Request) error { return s.e.do(r, s.b) }

// do is Do under budget b.
func (e *Executor) do(r op.Request, b Budget) error {
	r = r.Normalized()
	if err := r.Validate(); err != nil {
		return err
	}
	if r.Beta != 0 && r.Beta != 1 {
		mat.Scale(r.C, r.Beta, r.C)
	}
	acc := r.Beta != 0
	switch r.Op {
	case op.ATA:
		gemm.ATA(e.be, r.C, r.Alpha, r.A, acc, e.symmetricWorkers())
	case op.Syrk:
		gemm.Syrk(e.be, r.C, r.Alpha, r.A, acc, e.symmetricWorkers())
	default:
		return e.product(r.C, r.A, r.B, r.Alpha, acc, r.Trace, b)
	}
	return nil
}

// product is the general multiply of a validated request: C = alpha·A·B,
// or C += alpha·A·B with acc, with an optional trace sink and budget.
func (e *Executor) product(C, A, B *mat.Dense, alpha float64, acc bool, tr *trace.Spans, b Budget) error {
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
// pattern of step: every M_r is materialized, operands that are scaled
// copies of a source block are aliased (no buffer), CSE aux temporaries
// are materialized per formOperand call (per branch) but only once per
// family under streaming.
func (e *Executor) workspaceFloats(mode Parallel, p, q, r, level int) int64 {
	if !e.shouldRecurse(level, p, q, r) {
		return 0
	}
	lp := &e.schedule[level%len(e.schedule)]
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
	if mode == BFS || mode == Hybrid {
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

// aliasedOutput reports whether a plan output chain is served by aliasing a
// source block with a scalar factor instead of materializing a buffer (a
// scaled copy, §3.1) — the single shared decision used by formOperand,
// streamFamily, and the workspace model.
func aliasedOutput(p *addchain.Plan, terms []addchain.Term) bool {
	return len(terms) == 1 && terms[0].Src < p.NumSources
}

// materializedOutputs counts the plan outputs that require a buffer.
func materializedOutputs(p *addchain.Plan) int {
	n := 0
	for _, ch := range p.Outputs {
		if !aliasedOutput(p, ch.Terms) {
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
	lp := &e.schedule[level%len(e.schedule)]
	b := lp.alg.Base

	// Dynamic peeling (§3.5): carve the largest (M·i)×(K·j)×(N·k) core and
	// fix up the borders with classical products.
	pc, qc, rc := p-p%b.M, q-q%b.K, r-r%b.N
	a11 := ar.View(A, 0, 0, pc, qc)
	b11 := ar.View(B, 0, 0, qc, rc)
	c11 := ar.View(C, 0, 0, pc, rc)
	e.step(ctx, ar, lp, c11, a11, b11, alpha, level, leafBase, acc)

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

func (e *Executor) countFixup() {
	if s := e.opts.Stats; s != nil {
		s.add(&s.FixupCalls, 1)
	}
}
