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
// call the classical gemm kernel (§3.4). Walk yields a call's levels as
// multiply runs them (peeled core, addition plans, lowering), and what
// sizes or prices a call folds that walk: WorkspaceBytes, a budget's leaf
// flops, HYBRID's leaf numbering and internal/costmodel.
//
// Parallel execution follows §4: DFS (parallel leaf gemm and parallel
// additions), BFS (a goroutine task per recursive multiplication, bounded by
// a worker semaphore), and HYBRID (task parallelism for the load-balanced
// prefix of leaf multiplications, then the remainder with all workers on
// each). A call runs, and traces, the scheduler RunsAs resolves for its
// shape: a BFS or HYBRID call with nothing to fan out or to defer runs as
// the scheduler that does the same work, and internal/costmodel and the
// autotuner read the same answer.
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

// Parallel selects the scheduling scheme of §4. An executor refuses a value
// outside Sequential..Hybrid. What a call runs as is RunsAs's answer for
// its shape, which may differ from the requested scheduler.
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
	// value is write-once, the paper's overall winner. An executor refuses
	// a value outside the three strategies.
	Strategy addchain.Strategy
	// CSE applies greedy length-2 common-subexpression elimination to the
	// S- and T-formation plans (§3.3).
	CSE bool
	// Parallel selects the scheduler a call asks for; each call runs, and
	// traces, the one RunsAs resolves for its shape.
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
	if opts.Parallel < Sequential || opts.Parallel > Hybrid {
		return nil, fmt.Errorf("core: unknown scheduler %v", opts.Parallel)
	}
	if opts.Strategy < addchain.WriteOnce || opts.Strategy > addchain.Streaming {
		return nil, fmt.Errorf("core: unknown addition strategy %v", opts.Strategy)
	}
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
// decision (the scheduler RunsAs resolves, which the call runs, and the
// granted width), each recursion step's sub-shape and
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
// or C += alpha·A·B with acc, with an optional trace sink and budget. It
// runs, and traces, the scheduler RunsAs resolves for the call.
func (e *Executor) product(C, A, B *mat.Dense, alpha float64, acc bool, tr *trace.Spans, b Budget) error {
	p, q, r := A.Rows(), A.Cols(), B.Cols()
	mode := e.RunsAs(e.opts.Parallel, p, q, r)
	var left int64
	if b.Over != nil {
		left = e.leafFlops(p, q, r)
	}
	var leaves int
	if mode == Hybrid {
		leaves = int(e.leaves(0, p, q, r).Count)
	}
	ctx := newRunContext(e.opts, mode, leaves, b, left, &e.arenas) //fastmm:allow the pinned one allocation per call (runContext + its BFS/HYBRID sync)
	ctx.tr = tr
	if tr != nil {
		tr.Add(trace.Span{
			Kind:    trace.KindSched,
			Sched:   mode.String(),
			Workers: int32(ctx.workers),
			M:       int32(p),
			K:       int32(q),
			N:       int32(r),
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
		ar.Reserve(int(e.workspaceFloats(mode, p, q, r)))
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

// RunsAs resolves the scheduler a p×q by q×r call runs as when par is
// requested of this executor (its own Options.Parallel for its calls;
// any other scheduler for a sibling executor that differs from it only
// there). Sequential and DFS run as asked. BFS and HYBRID run as DFS when
// their workspace would exceed the Workspace cap (§4's memory trade-off;
// DFS is the minimum-workspace traversal) or when the top level is fused,
// so every product is one fused leaf call all workers wide and nothing
// fans out. HYBRID runs as BFS when it would defer no leaf: under
// automatic cutoff (no static leaf count), with a fused last level (which
// calls no leaf gemm) or with a leaf count the worker count divides. It
// allocates nothing.
func (e *Executor) RunsAs(par Parallel, p, q, r int) Parallel {
	if par != BFS && par != Hybrid {
		return par
	}
	if cap := e.opts.Workspace; cap > 0 && e.workspaceBytes(par, p, q, r) > cap {
		return DFS
	}
	w := e.Walk(p, q, r)
	for w.Next() {
		if w.Fused && w.Depth == 0 {
			return DFS
		}
		if w.Fused {
			return BFS
		}
	}
	if par == Hybrid && (e.opts.Steps == 0 || w.Count%int64(e.opts.Workers) == 0) {
		return BFS
	}
	return par
}

// WorkspaceBytes predicts the peak workspace (in bytes) one Multiply of a
// p×q by q×r problem claims under the executor's configured scheduler — the
// analytic memory model of the paper's Table 3, extended with the gemm
// kernel's per-worker packing slabs. DFS charges one branch per level;
// BFS/HYBRID charge every concurrent branch. The estimate folds the call's
// Walk (schedule, steps, peeling cores, lowering), so it is exact for the
// matrix temporaries; per-task scratch (headers, coefficient slabs, one
// 32 KiB minimum arena chunk per concurrent task) adds small change on top
// that the Workspace cap does not meter.
func (e *Executor) WorkspaceBytes(p, q, r int) int64 {
	return e.workspaceBytes(e.opts.Parallel, p, q, r)
}

func (e *Executor) workspaceBytes(mode Parallel, p, q, r int) int64 {
	floats := e.workspaceFloats(mode, p, q, r)
	packWorkers := 1
	if mode != Sequential {
		packWorkers = e.opts.Workers
	}
	//fastmm:allow Backend interface read of a static per-backend constant
	return 8 * (floats + int64(packWorkers)*e.be.PackFloatsPerWorker())
}

// workspaceFloats counts the float64 temporaries live at once in a p×q by
// q×r call under mode, folding its walk by step's allocation pattern: an
// unfused level holds its R products M_r, all live until the combine, and
// its formed operands — none for an operand aliased to a scaled source
// block, and CSE aux temporaries per formed operand, or once per family
// under streaming. A fused level holds none: operand sums form inside the
// leaf's packing pass and products scatter-add straight into C (view
// headers and Scaled scratch are small change the model does not meter,
// like the per-task scratch). DFS holds one subproblem per level at a time;
// BFS/HYBRID hold every subproblem of every level at once.
func (e *Executor) workspaceFloats(mode Parallel, p, q, r int) int64 {
	var floats int64
	for w := e.Walk(p, q, r); w.Next() && !w.Fused; {
		sUnit, tUnit := int64(w.BM*w.BK), int64(w.BK*w.BN)
		auxS, auxT := int64(len(w.S.Aux)), int64(len(w.T.Aux))
		matS, matT := int64(materializedOutputs(w.S)), int64(materializedOutputs(w.T))
		level := int64(w.Alg.Rank()) * int64(w.BM*w.BN) // the M_r
		bfs := mode == BFS || mode == Hybrid
		switch {
		case e.opts.Strategy == addchain.Streaming:
			// Every S_r and T_r at once, formed in the parent.
			level += sUnit*(auxS+matS) + tUnit*(auxT+matT)
		case bfs:
			// Every branch forms its own operands concurrently; aux
			// temporaries only materialize in branches that form one.
			level += sUnit*matS*(1+auxS) + tUnit*matT*(1+auxT)
		default:
			// One branch at a time: its operands are released before the
			// next, so the peak is one formed operand plus its aux.
			if matS > 0 {
				level += sUnit * (1 + auxS)
			}
			if matT > 0 {
				level += tUnit * (1 + auxT)
			}
		}
		branches := int64(1)
		if bfs {
			branches = w.Count
		}
		floats += branches * level
	}
	return floats
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

// Level is one level of a call's recursion as the executor runs it: the
// subproblem, the core dynamic peeling carves out of it (§3.5), the level's
// addition plans and its lowering. multiply runs each level; WorkspaceBytes,
// a budget's leaf flops, HYBRID's leaf numbering and internal/costmodel's
// prices fold over a Walk of them.
type Level struct {
	// Depth is the level's recursion depth, 0 at the top, and Count the
	// number of its subproblems: the product of the ranks above it.
	Depth int
	Count int64
	// M, K and N are each subproblem's dims: A is M×K and B is K×N.
	M, K, N int
	// CM, CK and CN are the peeled core's dims, the largest multiples of the
	// base case; the borders beyond them run as classical fix-up products.
	// BM, BK and BN are the core's block dims, the next level's M, K and N.
	CM, CK, CN int
	BM, BK, BN int
	// Alg is the level's algorithm, and S, T and C its addition plans: the
	// S_r from the blocks of A, the T_r from those of B, and the C blocks
	// from the M_r.
	Alg     *algo.Algorithm
	S, T, C *addchain.Plan
	// Fused is the level's lowering: its products fold their operand sums
	// into the leaf's packing pass and scatter-add into C, so it holds no
	// S/T/M temporary. An unfused level forms its operands and materialises
	// its products. Only an executor's last level fuses, with Options.Fused
	// on a backend that can.
	Fused bool

	lp *levelPlan
}

// Walk is a cursor over the levels of one call's recursion. It allocates
// nothing.
type Walk struct {
	Level
	e    *Executor
	done bool
}

// Walk returns the walk of a p×q by q×r call. Each Next moves to the next
// level the executor recurses at, top down. Once Next returns false, Level
// describes the leaves: Depth is the number of levels, Count the number of
// leaf products and M, K and N their dims.
func (e *Executor) Walk(p, q, r int) Walk { return e.walkFrom(0, p, q, r) }

// walkFrom is the walk of a subproblem at the given depth.
func (e *Executor) walkFrom(depth, p, q, r int) Walk {
	return Walk{e: e, Level: Level{Depth: depth - 1, Count: 1, BM: p, BK: q, BN: r}}
}

// Next moves to the next level and reports whether the executor takes a
// step there.
func (w *Walk) Next() bool {
	if w.done {
		return false
	}
	count := w.Count
	if w.Alg != nil {
		count *= int64(w.Alg.Rank())
	}
	var ok bool
	w.Level, ok = w.e.level(w.Depth+1, w.BM, w.BK, w.BN)
	w.Count, w.done = count, !ok
	return ok
}

// leaves is where the walk of a subproblem at the given depth ends.
func (e *Executor) leaves(depth, p, q, r int) Level {
	w := e.walkFrom(depth, p, q, r)
	for w.Next() {
	}
	return w.Level
}

// level is the step at the given depth of a p×q by q×r subproblem; ok
// reports that the executor takes one (shouldRecurse). Without a step only
// Depth, M, K and N are set.
func (e *Executor) level(depth, p, q, r int) (lv Level, ok bool) {
	lv = Level{Depth: depth, M: p, K: q, N: r}
	if !e.shouldRecurse(depth, p, q, r) {
		return lv, false
	}
	lp := &e.schedule[depth%len(e.schedule)]
	b := lp.alg.Base
	lv.CM, lv.CK, lv.CN = p-p%b.M, q-q%b.K, r-r%b.N
	lv.BM, lv.BK, lv.BN = p/b.M, q/b.K, r/b.N
	lv.Alg, lv.S, lv.T, lv.C, lv.lp = lp.alg, lp.splan, lp.tplan, lp.cplan, lp
	lv.Fused = e.fbe != nil && !e.shouldRecurse(depth+1, lv.BM, lv.BK, lv.BN)
	return lv, true
}

// leafFlops is the flop count of a p×q by q×r call's leaf products, the
// count Budget.Over starts from: 2·M·K·N for each leaf of the walk. A fused
// last level runs exactly these products, so it counts the same.
func (e *Executor) leafFlops(p, q, r int) int64 {
	lv := e.leaves(0, p, q, r)
	return lv.Count * 2 * int64(lv.M) * int64(lv.K) * int64(lv.N)
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
	lv, ok := e.level(level, A.Rows(), A.Cols(), B.Cols())
	if !ok {
		e.leafMultiply(ctx, C, A, B, alpha, leafBase, acc)
		return
	}

	// Dynamic peeling (§3.5): the step runs on the level's core, and one
	// classical product fixes up each border.
	p, q, r, pc, qc, rc := lv.M, lv.K, lv.N, lv.CM, lv.CK, lv.CN
	c11 := ar.View(C, 0, 0, pc, rc)
	e.step(ctx, ar, &lv, c11, ar.View(A, 0, 0, pc, qc), ar.View(B, 0, 0, qc, rc), alpha, leafBase, acc)

	// The first write into each border honors acc; later contributions
	// always accumulate.
	if rc < r { // C12 (+)= A11·B12
		e.fixup(ctx, level, ar.View(C, 0, rc, pc, r-rc), alpha, ar.View(A, 0, 0, pc, qc), ar.View(B, 0, rc, qc, r-rc), acc)
	}
	if qc < q { // [C11 C12] += A12·[B21 B22] (full-width top strip)
		e.fixup(ctx, level, ar.View(C, 0, 0, pc, r), alpha, ar.View(A, 0, qc, pc, q-qc), ar.View(B, qc, 0, q-qc, r), true)
	}
	if pc < p { // [C21 C22] (+)= A2·B (full-width bottom strip)
		e.fixup(ctx, level, ar.View(C, pc, 0, p-pc, r), alpha, ar.View(A, pc, 0, p-pc, q), B, acc)
	}
}

// fixup runs one peeling fix-up, C (+)= alpha·A·B, as a classical gemm at
// the scheduler's fix-up width (runContext.fixup), counted and traced as a
// fix-up of the given level.
func (e *Executor) fixup(ctx *runContext, level int, C *mat.Dense, alpha float64, A, B *mat.Dense, acc bool) {
	if s := e.opts.Stats; s != nil {
		s.add(&s.FixupCalls, 1)
	}
	//fastmm:allow dynamic-peeling fixup, off the uniform steady-state path
	ctx.fixup(level, func(w int) {
		gemm.DispatchTraced(e.be, C, alpha, A, B, acc, w, ctx.tr, trace.Span{Kind: trace.KindFixup, Level: int32(level)})
	})
}

// leafMultiply is the recursion base case: a classical gemm call whose
// parallelism depends on the scheduler (§4): DFS leaves use all workers, BFS
// leaves run sequentially inside their task, HYBRID defers the tail leaves to
// a second all-worker phase.
func (e *Executor) leafMultiply(ctx *runContext, C, A, B *mat.Dense, alpha float64, leafIdx int, acc bool) {
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
		if leafIdx >= ctx.bfsCut { // the deferred tail
			if s := e.opts.Stats; s != nil {
				s.add(&s.DeferredLeaves, 1)
			}
			//fastmm:allow HYBRID deferred-leaf capture, spawn path by design
			ctx.deferLeaf(func() { e.leafGemm(ctx, C, alpha, A, B, acc, ctx.workers) })
			return
		}
		//fastmm:allow HYBRID BFS-phase task body, spawn path by design
		ctx.compute(func() { e.leafGemm(ctx, C, alpha, A, B, acc, 1) })
		ctx.leafDone()
	}
}

// leafGemm runs one leaf gemm. Its flops leave the call's budget as it
// starts — for a task-run leaf, not when it is queued.
func (e *Executor) leafGemm(ctx *runContext, C *mat.Dense, alpha float64, A, B *mat.Dense, acc bool, workers int) {
	ctx.startLeaf(A.Rows(), A.Cols(), B.Cols())
	gemm.DispatchTraced(e.be, C, alpha, A, B, acc, workers, ctx.tr, trace.Span{Kind: trace.KindLeaf})
}
