// Package fastmm is a practical framework for fast (sub-cubic) matrix
// multiplication on shared-memory machines, reproducing Benson & Ballard,
// "A Framework for Practical Parallel Fast Matrix Multiplication"
// (PPoPP 2015).
//
// A fast algorithm is a low-rank decomposition JU,V,WK of the ⟨M,K,N⟩
// matrix-multiplication tensor; this package ships a catalog of more than
// twenty of them (Strassen, Strassen-Winograd, Hopcroft-Kerr-rank ⟨2,2,N⟩
// variants, rectangular base cases, and compositions such as the ⟨54,54,54⟩
// algorithm), a recursive executor with dynamic peeling and three
// matrix-addition strategies, three shared-memory schedulers (DFS, BFS,
// HYBRID), a classical leaf kernel used both as base case and baseline (one
// blocked gemm whose micro-kernel is AVX-512 8×24 where the CPU has it, else
// AVX2 6×8, else Go 8×4, and an optional cgo BLAS bridge; see
// LeafBackends), and the ALS-based numerical search for discovering new
// algorithms.
//
// Quick start:
//
//	A := fastmm.NewMatrix(n, n) // fill it
//	B := fastmm.NewMatrix(n, n)
//	C := fastmm.NewMatrix(n, n)
//	err := fastmm.Multiply(C, A, B, "strassen", fastmm.Options{Steps: 2})
//
// For repeated multiplications build an Executor once:
//
//	exec, err := fastmm.NewExecutor("fast424", fastmm.Options{
//		Steps:    2,
//		Parallel: fastmm.Hybrid,
//		Workers:  6,
//	})
//	err = exec.Multiply(C, A, B)
//
// Multiply, MultiplyAdd, MultiplyATA and MultiplySyrk are an Executor's Do
// with the op filled in; Do takes any Request, C = Alpha·op(A,B) + Beta·C:
//
//	err = exec.Do(fastmm.Request{Op: fastmm.OpMultiply, C: C, A: A, B: B, Alpha: -2, Beta: 0.5})
//
// Or let the autotuner pick the algorithm, depth and scheduler for each shape
// (the paper's Figs. 4–6 show no single choice wins everywhere); its fast
// plans fuse their last level wherever the leaf backend can:
//
//	err := fastmm.Auto(C, A, B, fastmm.AutoOptions{})
//
// An Executor owns reusable workspace arenas: every matrix temporary of
// the recursion is carved from them, so steady-state Multiply calls on a
// reused Executor are (amortized) allocation-free for sequential and
// single-worker DFS execution, and allocation-bounded — proportional to
// the goroutines fanned out, never to the flop count — for multi-worker
// DFS, BFS, and HYBRID. WorkspaceBytes predicts a call's peak workspace
// (the paper's Table 3 memory analysis), WorkspaceRetained reports what
// the arenas currently hold, and Options.Workspace caps the footprint — a
// BFS/HYBRID call that would exceed the cap degrades to the memory-minimal
// DFS schedule.
package fastmm

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"fastmm/internal/addchain"
	"fastmm/internal/algo"
	"fastmm/internal/batch"
	"fastmm/internal/catalog"
	"fastmm/internal/core"
	"fastmm/internal/gemm"
	"fastmm/internal/mat"
	"fastmm/internal/op"
	"fastmm/internal/resources"
	"fastmm/internal/trace"
	"fastmm/internal/tuner"
)

// Matrix is a dense row-major float64 matrix with cheap rectangular views.
type Matrix = mat.Dense

// NewMatrix returns a zeroed r×c matrix.
func NewMatrix(r, c int) *Matrix { return mat.New(r, c) }

// MatrixFromRows builds a matrix from a slice of equal-length rows (copied).
func MatrixFromRows(rows [][]float64) *Matrix { return mat.FromRows(rows) }

// MatrixFromSlice wraps row-major data of length r*c without copying.
func MatrixFromSlice(r, c int, data []float64) *Matrix { return mat.FromSlice(r, c, data) }

// RandomMatrix returns an r×c matrix with entries uniform in [-1, 1).
func RandomMatrix(r, c int, seed int64) *Matrix {
	m := mat.New(r, c)
	m.FillRandom(rand.New(rand.NewSource(seed)))
	return m
}

// Algorithm is a fast matrix-multiplication algorithm JU,V,WK for a base
// case ⟨M,K,N⟩.
type Algorithm = algo.Algorithm

// BaseCase identifies a block multiplication shape ⟨M,K,N⟩.
type BaseCase = algo.BaseCase

// Options configures the executor; the zero value gives sequential
// execution, write-once additions, and automatic recursion cutoff.
type Options = core.Options

// Resources is the resource budget — Workers and Workspace — shared
// by every options type in the stack: it is embedded in Options,
// AutoOptions, and BatchOptions, so the three layers spell (and cache-key)
// a budget identically.
type Resources = resources.Resources

// Op identifies a structured operation the framework can plan end to end:
// the general multiply, the symmetric Gram (AᵗA) and SYRK (A·Aᵗ) products —
// whose classical plan is one lower-triangle pass at about ½ of a general
// multiply's flops, with an exactly symmetric result — and the accumulate
// fusion C += A·B.
type Op = op.Op

// Operations.
const (
	OpMultiply    = op.Multiply
	OpATA         = op.ATA
	OpSyrk        = op.Syrk
	OpMultiplyAdd = op.MultiplyAdd
)

// Request is one operation-typed work item, C = Alpha·op(A,B) + Beta·C:
// the unit accepted by Do, Executor.Do and Batcher.SubmitRequest. Zero
// Alpha means 1, zero Beta means overwrite; B must be nil for
// OpATA/OpSyrk. C must not alias A or B.
type Request = op.Request

// Executor runs a fixed algorithm schedule; it is safe for concurrent use.
type Executor = core.Executor

// Strategy selects the matrix-addition implementation (§3.2 of the paper).
type Strategy = addchain.Strategy

// Addition strategies.
const (
	Pairwise  = addchain.Pairwise
	WriteOnce = addchain.WriteOnce
	Streaming = addchain.Streaming
)

// Parallel selects the shared-memory scheduler (§4 of the paper).
type Parallel = core.Parallel

// Schedulers.
const (
	Sequential = core.Sequential
	DFS        = core.DFS
	BFS        = core.BFS
	Hybrid     = core.Hybrid
)

// Algorithms lists the names of all catalog algorithms.
func Algorithms() []string { return catalog.Names() }

// GetAlgorithm returns a catalog algorithm by name (e.g. "strassen",
// "winograd", "fast424", "classical222").
func GetAlgorithm(name string) (*Algorithm, error) { return catalog.Get(name) }

// AlgorithmsForBase lists catalog algorithms for one base case, sorted by
// rank.
func AlgorithmsForBase(bc BaseCase) []string { return catalog.ForBase(bc) }

// NewExecutor builds an executor for the named catalog algorithm.
func NewExecutor(name string, opts Options) (*Executor, error) {
	a, err := catalog.Get(name)
	if err != nil {
		return nil, err
	}
	return core.New(a, opts)
}

// NewExecutorFor builds an executor for a caller-supplied algorithm (for
// example one found with the search API); the algorithm is verified first.
func NewExecutorFor(a *Algorithm, opts Options) (*Executor, error) {
	return core.New(a, opts)
}

// NewScheduleExecutor builds an executor that cycles through the named
// algorithms by recursion level, e.g. the paper's ⟨54,54,54⟩ composition
// {"fast336", "fast363", "fast633"}.
func NewScheduleExecutor(names []string, opts Options) (*Executor, error) {
	algs := make([]*Algorithm, len(names))
	for i, n := range names {
		a, err := catalog.Get(n)
		if err != nil {
			return nil, err
		}
		algs[i] = a
	}
	return core.NewSchedule(algs, opts)
}

// AutoOptions configures the autotuning dispatcher behind Auto and
// NewAutoExecutor. The zero value is ready to use: GOMAXPROCS workers, no
// workspace budget, quick auto-calibration on first use, top-4 empirical
// probing, and the default on-disk tuning cache (JSON under
// os.UserCacheDir()/fastmm, overridable via the FASTMM_TUNE_CACHE
// environment variable; set it to "off" to disable the disk layer).
// Resources sets the budget — Workspace, when positive, filters fast plans
// whose workspace exceeds it and bounds the bytes the warm executors of the
// in-memory cache (at most 128 entries) retain; ProbeTopK how many leaders are timed
// (AutoNoProbes: none); Algorithms the catalog entries ranked; Profile a
// fixed calibration; NoDiskCache keeps decisions in memory. Everything else
// the tuner does — the leaf backend (the default one), the recursion cutoff
// (128, §3.4), recursion depths, the addition strategy (write-once, without
// CSE, for every fast plan), a fused last level on every fast plan exactly
// where the backend can fuse, one timing per probe — is fixed.
type AutoOptions = tuner.Options

// AutoPlan is one fully specified tuned configuration: algorithm, recursion
// depth, scheduler, workers, and the predicted/measured times behind the
// choice. Its Strategy is write-once on every fast plan, and Fused follows
// the leaf backend: set on every fast plan where it can fuse (simd), on none
// where it cannot (blas).
type AutoPlan = tuner.Plan

// AutoNoProbes, assigned to AutoOptions.ProbeTopK, makes the dispatcher
// trust the calibrated cost model without timing any candidate empirically.
const AutoNoProbes = tuner.NoProbes

// AutoExecutor is a shape-aware autotuning dispatcher (the paper's missing
// piece: Figs. 4–6 show no single algorithm/depth/scheduler wins everywhere).
// Each multiplication shape is tuned on first touch — candidate plans are
// ranked by the calibrated cost model, the leaders optionally probed — and
// the winner is cached in memory and on disk, so repeated shapes dispatch in
// O(1) without allocating. It is safe for concurrent use.
type AutoExecutor = tuner.Tuner

// NewAutoExecutor builds an autotuning dispatcher. The first construction
// per process may run a quick machine calibration (~100ms) unless a
// persisted calibration exists or AutoOptions.Profile supplies one.
func NewAutoExecutor(opts AutoOptions) (*AutoExecutor, error) { return tuner.New(opts) }

// Auto computes C = A·B with an automatically chosen (algorithm, steps,
// scheduler) plan for the operands' shape, its additions write-once and its
// last level fused wherever the leaf backend can fuse.
// Dispatchers are shared process-wide per distinct AutoOptions, so repeated
// calls with the same options hit the warm path. Each call re-derives the
// option-set key (microseconds, not a re-tune); the hottest paths should
// hold their own dispatcher from NewAutoExecutor instead.
func Auto(C, A, B *Matrix, opts AutoOptions) error {
	return Do(Request{Op: OpMultiply, C: C, A: A, B: B}, opts)
}

// Do executes one operation-typed request — C = Alpha·op(A,B) + Beta·C —
// with the tuned plan for the request's (op, shape), through the same
// process-shared dispatchers as Auto. Auto, MultiplyATA, and Syrk are thin
// wrappers over this.
func Do(req Request, opts AutoOptions) error {
	t, err := sharedAuto(opts)
	if err != nil {
		return err
	}
	return t.Do(req)
}

// MultiplyATA computes C = Aᵗ·A (C must be n×n for A m×n, and must not alias
// A) with an exactly symmetric result (C.At(i,j) == C.At(j,i) bit-for-bit).
// Its plan is always classical: one lower-triangle pass of the leaf engine,
// about ½ the flops of Multiply(C, Aᵗ, A), mirrored — no fast walk over the
// triangle beats that at practical sizes, so the shape is never probed.
func MultiplyATA(C, A *Matrix, opts AutoOptions) error {
	return Do(Request{Op: OpATA, C: C, A: A}, opts)
}

// Syrk computes the symmetric rank-k update C = A·Aᵗ (C must be m×m for A
// m×n, and must not alias A), with the same planning and exact-symmetry
// guarantees as MultiplyATA.
func Syrk(C, A *Matrix, opts AutoOptions) error {
	return Do(Request{Op: OpSyrk, C: C, A: A}, opts)
}

// AutoPlanFor reports the plan Auto would use for a shape (tuning it on
// first touch), without multiplying.
func AutoPlanFor(m, k, n int, opts AutoOptions) (AutoPlan, error) {
	t, err := sharedAuto(opts)
	if err != nil {
		return AutoPlan{}, err
	}
	return t.PlanForOp(OpMultiply, m, k, n)
}

var (
	autoMu    sync.Mutex
	autoByOpt = map[string]*AutoExecutor{}
)

// sharedAuto returns the process-wide dispatcher for one option set. The
// calibration profile enters the key by value (content hash), so callers
// that construct an equal Profile per call still share one warm dispatcher.
// The map holds one entry per genuinely distinct option set for the process
// lifetime; own the dispatcher via NewAutoExecutor to control that.
func sharedAuto(opts AutoOptions) (*AutoExecutor, error) {
	key := opts.Key() // zero value and spelled-out defaults share one dispatcher
	autoMu.Lock()
	defer autoMu.Unlock()
	if t, ok := autoByOpt[key]; ok {
		return t, nil
	}
	t, err := tuner.New(opts)
	if err != nil {
		return nil, err
	}
	autoByOpt[key] = t
	return t, nil
}

// BatchOptions configures a Batcher (and MultiplyBatch). The zero value is
// ready to use: GOMAXPROCS total workers, no workspace budget, and default
// tuning. Resources is the batcher's one budget, handed to its one tuner,
// whose cache is the warm pool: Workspace, when positive, filters fast plans
// whose workspace exceeds it and bounds the bytes the pool's executors
// retain (LRU eviction), and the pool holds at most 128 shape-class entries
// either way. Trace sets the trace sampling rate; Tuning passes the
// autotuner's other options (ProbeTopK, Algorithms, Profile, NoDiskCache)
// through to the tuner, which decides each entry at that entry's width. The
// rest of the serving policy is fixed: a queue of 4×Workers items, a 1 s
// lane-aging window, and 64 Mi flops per worker of internal parallelism.
type BatchOptions = batch.Options

// Batcher dispatches many multiplications through warm per-shape-class
// executors: work is keyed by the tuner's shape-class bucketing, each class
// is tuned once (first touch) and then served by a retained executor whose
// workspace arenas stay warm, and independent multiplications run
// concurrently under one total Workers budget — a deep queue of small
// problems runs many sequential multiplies side by side, while a lone large
// problem uses the full-width parallel schedule. Every request is a Request:
// Do runs it synchronously, SubmitRequest queues it. The queued path is
// server-grade: SubmitOpts carries a priority lane (High/Normal/Low), a
// per-item deadline (fail-fast with ErrDeadlineExceeded), and a completion
// Callback so servers avoid ticket bookkeeping — hardened with
// deadline-aware admission control (ErrAdmissionDenied sheds guaranteed-dead
// work at submit), a 1 s lane-aging window that bounds Low-lane starvation,
// and an allocation-free metrics surface
// (Batcher.Stats). It is safe for concurrent use; see NewBatcher.
type Batcher = batch.Batcher

// BatchTicket tracks one Batcher.SubmitRequest; Wait blocks until the
// multiplication resolved (ran, failed, or expired) and returns its error.
type BatchTicket = batch.Ticket

// SubmitOpts carries the per-item scheduling options of
// Batcher.SubmitRequest: a priority lane, an optional deadline, and an
// optional completion Callback. The zero value queues on LaneNormal with no
// deadline and no callback.
type SubmitOpts = batch.SubmitOpts

// Lane is a submission priority lane: runners drain the highest-priority
// non-empty lane first (strict priority, FIFO within a lane).
type Lane = batch.Lane

// Priority lanes. LaneNormal is the zero value.
const (
	LaneNormal = batch.LaneNormal
	LaneHigh   = batch.LaneHigh
	LaneLow    = batch.LaneLow
)

// ErrDeadlineExceeded resolves a submitted item whose SubmitOpts.Deadline
// passed before it started executing: the item fails fast (Ticket and
// Callback) instead of occupying a runner. Batcher.Wait does not aggregate
// expiries — they are expected per-item outcomes for deadline'd traffic.
var ErrDeadlineExceeded = batch.ErrDeadlineExceeded

// ErrBatcherClosed is returned by Batcher submissions after Close.
var ErrBatcherClosed = batch.ErrClosed

// ErrAdmissionDenied is returned by SubmitRequest when the queued
// backlog ahead of a deadline'd item already guarantees its deadline will
// pass before it could start (judged by calibrated per-shape-class service
// times refined by a live EWMA). A rejected item never enters the queue and
// produces no Ticket and no callback — the caller sheds the load at submit
// instead of burning a queue slot on doomed work. Admission is deliberately
// optimistic: items are rejected only when expiry is certain under the
// current estimate, so a miscalibrated model degrades to admitting items
// that later expire with ErrDeadlineExceeded, never to refusing servable
// work.
var ErrAdmissionDenied = batch.ErrAdmissionDenied

// BatchStats is a point-in-time snapshot of a Batcher's metrics: per-lane
// queue depths, conservation counters (submitted/done/expired/rejected) and
// latency histograms, warm-pool hit rate, backend mix, and the paper's
// Eq. (3) effective-GFLOPS rate over the batcher's lifetime. Obtain one with
// Batcher.Stats(); the snapshot allocates, the per-item metric updates it
// reads never do.
type BatchStats = batch.Stats

// BatchLaneStats is one lane's slice of a BatchStats snapshot. At quiescence
// (and permanently after Close) the conservation invariant holds:
// Submitted == Done + Expired + Rejected + Queued + Executing.
type BatchLaneStats = batch.LaneStats

// BatchHistogram is a fixed-bucket latency distribution snapshot
// (power-of-two microsecond buckets); Quantile and Mean summarize it.
type BatchHistogram = batch.Histogram

// BatchNumLanes is the number of priority lanes (the length of
// BatchStats.Lanes).
const BatchNumLanes = batch.NumLanes

// BatchHistogramBounds returns the upper bound of each BatchHistogram
// bucket; the last bucket is unbounded.
func BatchHistogramBounds() []time.Duration { return batch.HistogramBounds() }

// TraceConfig configures per-request execution tracing
// (BatchOptions.Trace). Tracing is always on, into a 128-record ring; the
// zero value samples one request in 64, and Sample sets another rate (1
// traces every request). The record path is allocation-free and never takes
// a blocking lock, cheap enough for production. Sampled records are read
// back with Batcher.Traces().
type TraceConfig = trace.Config

// TraceRecord is one sampled request's execution trace: submission verdict
// ("queued", "sync", "rejected", "expired"), lane and queue wait
// (with lane-aging promotion flagged), the resolved plan (shape class, warm
// hit/miss, algorithm, steps, scheduler, backend, predicted vs measured
// seconds), the measured service time, and the execution's spans. Records
// marshal to JSON for export (the serving example's /debug/fastmm?trace=1).
type TraceRecord = trace.Record

// TraceSpan is one event inside a TraceRecord: the scheduler choice
// ("sched"), a recursion step with its workspace mark ("step"), or a leaf
// gemm call with backend, dims, and duration ("leaf").
type TraceSpan = trace.Span

// NewBatcher builds a batched dispatcher. The machine calibration behind its
// tuners happens here (once), so construction may take ~100ms on a machine
// with no persisted calibration; shape classes are tuned lazily as work
// arrives. Close the batcher to stop its async runner pool.
func NewBatcher(opts BatchOptions) (*Batcher, error) { return batch.New(opts) }

// MultiplyBatch computes dsts[i] = as[i]·bs[i] for every i, running
// independent multiplications concurrently through a process-shared Batcher
// for the given options — so repeated calls with equal options reuse the
// same warm executors and tuning decisions. The first error is returned.
// Serving workloads with a long batcher lifetime should hold their own
// NewBatcher instead.
func MultiplyBatch(dsts, as, bs []*Matrix, opts BatchOptions) error {
	if len(dsts) != len(as) || len(as) != len(bs) {
		return fmt.Errorf("fastmm: mismatched batch lengths dsts=%d as=%d bs=%d",
			len(dsts), len(as), len(bs))
	}
	b, err := sharedBatcher(opts)
	if err != nil {
		return err
	}
	reqs := make([]Request, len(dsts))
	for i := range reqs {
		reqs[i] = Request{Op: OpMultiply, C: dsts[i], A: as[i], B: bs[i]}
	}
	return b.MultiplyAll(reqs)
}

var (
	batchMu    sync.Mutex
	batchByOpt = map[string]*Batcher{}
)

// sharedBatcher returns the process-wide batcher for one option set,
// mirroring sharedAuto: one entry per genuinely distinct option set, alive
// for the process lifetime (its runner goroutines park on an empty queue).
func sharedBatcher(opts BatchOptions) (*Batcher, error) {
	key := opts.Key()
	batchMu.Lock()
	defer batchMu.Unlock()
	if b, ok := batchByOpt[key]; ok {
		return b, nil
	}
	b, err := batch.New(opts)
	if err != nil {
		return nil, err
	}
	batchByOpt[key] = b
	return b, nil
}

// LeafBackends lists the registered leaf-kernel backends ("simd" always;
// "blas" when built with the blas tag). The autotuner calibrates and plans
// on the default backend — override it for the process with the
// FASTMM_BACKEND environment variable — and Options.Backend pins one
// executor to a named backend.
func LeafBackends() []string { return gemm.Names() }

// LeafBackendAccelerated reports whether the named backend runs an
// architecture-specific fast path on this machine (e.g. the simd backend's
// AVX-512 or AVX2 assembly; false means its pure-Go fallback is in use).
func LeafBackendAccelerated(name string) bool {
	be, err := gemm.Get(name)
	return err == nil && be.Accelerated()
}

// DefaultLeafBackend reports which backend the classical entry points (and
// plans that name no backend) dispatch to.
func DefaultLeafBackend() string { return gemm.Default().Name() }

// Multiply computes C = A·B with the named fast algorithm.
func Multiply(C, A, B *Matrix, algorithm string, opts Options) error {
	e, err := NewExecutor(algorithm, opts)
	if err != nil {
		return err
	}
	return e.Multiply(C, A, B)
}

// Classical computes C = A·B with the blocked classical kernel (the
// repository's vendor-dgemm stand-in), sequentially. It routes through the
// backend registry's dispatch explicitly, so the process-default backend —
// SetDefault, or the FASTMM_BACKEND environment variable — is honored here
// exactly as it is in tuned plans. Like mismatched dimensions, a C that
// shares storage with A or B panics.
func Classical(C, A, B *Matrix) { ClassicalParallel(C, A, B, 1) }

// ClassicalParallel computes C = A·B with the classical kernel using up to
// workers goroutines, through the same registry dispatch as Classical.
func ClassicalParallel(C, A, B *Matrix, workers int) {
	if mat.Overlaps(C, A) || mat.Overlaps(C, B) {
		panic("fastmm: classical product into a C that aliases A or B")
	}
	gemm.Dispatch(gemm.Default(), C, 1, A, B, false, workers)
}

// EffectiveGFLOPS is the paper's Equation (3) metric for a P×Q×R
// multiplication: (2PQR − PR) / time · 1e-9. It equals true GFLOPS for the
// classical algorithm and normalizes fast algorithms onto the same
// inverse-time scale.
func EffectiveGFLOPS(p, q, r int, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return (2*float64(p)*float64(q)*float64(r) - float64(p)*float64(r)) / seconds * 1e-9
}

// Verify checks that an algorithm is an exact (or, for APA algorithms,
// O(λ)-accurate) decomposition of its base-case tensor.
func Verify(a *Algorithm) error {
	if a == nil {
		return fmt.Errorf("fastmm: nil algorithm")
	}
	return a.Verify()
}
