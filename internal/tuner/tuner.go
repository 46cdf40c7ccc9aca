// Package tuner is the shape-aware autotuning dispatcher: given a problem
// shape ⟨m,k,n⟩ and a worker count it picks the (algorithm, recursion depth,
// scheduler) combination predicted — and optionally measured — to be fastest
// on this machine. It operationalizes the paper's central empirical claim
// that no single fast algorithm wins everywhere (Figs. 4–6): the best choice
// depends on the shape, the core count, and the memory budget.
//
// A decision is keyed by (op, shape, width): the width is the worker count
// a plan runs at, Options.Workers or any smaller count the batched
// dispatcher asks for. The pipeline per key:
//
//  1. enumerate candidate plans — every algorithm of Options.Algorithms ×
//     steps up to DefaultMaxSteps × scheduler, plus the classical gemm
//     baseline, all on the default leaf backend; every fast plan forms its
//     operand sums write-once (§3.2's practical strategy, without CSE) and
//     fuses its last level exactly when the backend can (gemm.CanFuse: simd
//     does, blas does not); the schedulers are Sequential at one worker and
//     DFS at more, joined by BFS and HYBRID only where the DFS executor's
//     RunsAs says a call runs as them (so a fusing backend ranks no HYBRID
//     plan and no one-step BFS plan); shapes below core.MinDim, and the
//     symmetric ops AᵗA and Syrk at every shape, get the baseline alone;
//  2. build each fast candidate's executor and rank the candidates by
//     internal/costmodel's price of that executor's own walk, turned into
//     predicted seconds by a one-time machine calibration
//     (Options.Profile, or measured gemm GFLOPS at a few block sizes and
//     the measured STREAM-add bandwidth), dropping any plan whose
//     executor's WorkspaceBytes exceeds Options.Workspace; the ranked
//     decisions keep their executors, so picking builds none;
//  3. unless Options.ProbeTopK is NoProbes, refine the top-K survivors with
//     one short empirical probe each — the best-predicted classical plan
//     always among them and timed first, every fast probe stopped once it
//     can no longer finish inside that measured time less the margin, at
//     its leaf-rate bound or, once its leaves run, at its own pace, and a
//     fast plan chosen only when it beats the classical time by the margin,
//     twice (see probe); a cold decision made for a caller's request —
//     Do, or the batched dispatcher's EntryOp on a class whose
//     representative is the request's shape — probes on that request's A
//     and B instead of random operands, and for an overwriting multiply
//     the classical reference probe is the call, so when classical wins the
//     call is already served;
//  4. keep the winner warm in the in-memory cache, so repeated shapes
//     dispatch in O(1) without formatting a key, and persist it as one small
//     JSON file per key (under os.UserCacheDir, overridable via
//     FASTMM_TUNE_CACHE; none with Options.NoDiskCache), written atomically
//     and read back on a cache miss. The cache is the one warm pool of
//     executors: it evicts its least recently used entries past MaxEntries,
//     or while Options.Workspace is below the bytes their arenas retain.
//
// Each key is decided at most once at a time: a concurrent first touch
// waits for the decision in flight instead of ranking and probing again.
//
// fastmm.Auto and fastmm.NewAutoExecutor are the public surface;
// cmd/fmmtune pre-warms, inspects, and clears the caches.
package tuner

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"fastmm/internal/addchain"
	"fastmm/internal/algo"
	"fastmm/internal/catalog"
	"fastmm/internal/core"
	"fastmm/internal/costmodel"
	"fastmm/internal/gemm"
	"fastmm/internal/mat"
	"fastmm/internal/op"
	"fastmm/internal/resources"
	"fastmm/internal/trace"
	"fastmm/internal/workspace"
)

const (
	// DefaultProbeTopK is how many model-ranked survivors get empirical
	// probes when Options.ProbeTopK is zero.
	DefaultProbeTopK = 4
	// NoProbes disables empirical probing: decisions come from the model
	// ranking (and the cache) alone.
	NoProbes = -1
	// DefaultMaxSteps is the deepest recursion enumerated; the paper never
	// profits from more than three steps at practical sizes.
	DefaultMaxSteps = 3
)

// ClassicalAlgorithm is the Plan.Algorithm value for the gemm baseline.
const ClassicalAlgorithm = "classical"

// Resources is the shared resource budget (see internal/resources); it is
// embedded in Options so Workers/Workspace spell the same way — and
// hash into cache keys the same way — across every layer.
type Resources = resources.Resources

// Options configures a Tuner. The zero value is ready to use: GOMAXPROCS
// workers, no workspace cap, quick auto-calibration on first use, top-4
// probing, and the default disk cache location.
type Options struct {
	// Resources is the execution budget: Workers bounds the goroutines a
	// chosen plan may use (default GOMAXPROCS); Workspace, when positive, is
	// the one workspace budget — fast candidates whose executor's
	// WorkspaceBytes exceeds it are never ranked, the built executor
	// degrades BFS/HYBRID to DFS at run time above it (a budget below even
	// the classical kernel's packing slabs still selects sequential
	// classical gemm — multiplication must remain possible), and the
	// in-memory cache evicts its least recently used entries while their
	// retained arenas exceed it.
	Resources
	// ProbeTopK is how many top-ranked candidates to time empirically
	// before committing (0 → DefaultProbeTopK, NoProbes → model only; a
	// value below NoProbes fails New).
	ProbeTopK int
	// Algorithms restricts the candidate catalog entries. The default is
	// the catalog minus the classical decompositions (the direct gemm
	// baseline already covers them) and minus the Numeric and APA entries:
	// their product is off by the entry's ApproxTol, an accuracy loss a
	// caller takes on by naming the entry here, never by default.
	Algorithms []string
	// Profile supplies a calibration instead of loading or measuring one
	// (tests and reproducible benchmarks).
	Profile *Profile
	// NoDiskCache keeps the tuner purely in-memory: nothing is read from
	// or written to the cache directory.
	NoDiskCache bool
}

func (o Options) withDefaults() Options {
	o.Resources = o.Resources.Normalized()
	if o.ProbeTopK == 0 {
		o.ProbeTopK = DefaultProbeTopK
	}
	if len(o.Algorithms) == 0 {
		for _, name := range catalog.Names() {
			if strings.HasPrefix(name, "classical") {
				continue
			}
			if a := catalog.MustGet(name); a.Numeric || a.APA {
				continue
			}
			o.Algorithms = append(o.Algorithms, name)
		}
	}
	return o
}

// Key renders the options' identity: every value that changes what a tuner
// built from them decides, or where it keeps its decisions. Option sets
// with equal keys behave identically, and the zero value renders like its
// defaults spelled out. The resource budget renders through
// resources.Resources.Key, the default leaf backend — the one every plan
// runs on — by name, and the candidate algorithms as a hash.
// The tuner's cache keys end in it, with the resolved calibration in place
// of a nil Profile (ProfileVersion, in the key's prefix, retires cached
// plans when the model changes); fastmm's shared-dispatcher and
// shared-batcher maps key on it.
func (o Options) Key() string {
	o = o.withDefaults()
	h := fnv.New64a()
	for _, name := range o.Algorithms {
		h.Write([]byte(name))
		h.Write([]byte{0})
	}
	// NoDiskCache enters only when set: a tuner that persists never has it.
	disk := ""
	if o.NoDiskCache {
		disk = "/nodisk"
	}
	return fmt.Sprintf("%s/be:%s/k%d/c%016x/p%s%s", o.Resources.Key(), gemm.Default().Name(),
		o.ProbeTopK, h.Sum64(), o.Profile.Fingerprint(), disk)
}

// Plan is one fully specified way to run a multiplication — the unit the
// tuner ranks, probes, caches, and reports.
type Plan struct {
	// Op is the operation's cache-key token (op.Op.Key()); empty means the
	// general multiply, so multiply entries stay the compact common case.
	Op string `json:"op,omitempty"`
	// Algorithm is a catalog name, or ClassicalAlgorithm for direct gemm.
	Algorithm string `json:"algorithm"`
	// Steps is the recursion depth (0 for classical).
	Steps int `json:"steps,omitempty"`
	// Backend is the leaf-kernel backend the plan's base-case gemm calls
	// run on (a gemm.Backend name; "" means the default backend).
	Backend string `json:"backend,omitempty"`
	// Parallel and Strategy are the scheduler and addition strategy, by
	// their String() names (human-readable in the JSON cache).
	Parallel string `json:"parallel"`
	Strategy string `json:"strategy,omitempty"`
	CSE      bool   `json:"cse,omitempty"`
	// Fused runs the last recursion level through the fused-operand engine
	// (no S/T/M temporaries; operand sums folded into packing, products
	// scatter-added through the epilogue) exactly when the plan is fast and
	// its backend can fuse (gemm.CanFuse); build refuses any other value.
	Fused   bool `json:"fused,omitempty"`
	Workers int  `json:"workers"`
	// WorkspaceBytes is the plan's predicted peak workspace: the built
	// executor's Table-3 model for fast plans, the gemm packing slabs for
	// classical.
	WorkspaceBytes int64 `json:"workspace_bytes"`
	// PredictedSeconds is the cost model's estimate; MeasuredSeconds the
	// probe result (0 when the plan was not probed).
	PredictedSeconds float64 `json:"predicted_seconds"`
	MeasuredSeconds  float64 `json:"measured_seconds,omitempty"`
}

// IsClassical reports whether the plan is the direct-gemm baseline.
func (p Plan) IsClassical() bool { return p.Algorithm == ClassicalAlgorithm }

func (p Plan) String() string {
	be := ""
	if p.Backend != "" {
		be = "/" + p.Backend
	}
	o := ""
	if p.Op != "" {
		o = p.Op + ":"
	}
	if p.IsClassical() {
		return fmt.Sprintf("%sclassical/%dw%s", o, p.Workers, be)
	}
	fu := ""
	if p.Fused {
		fu = "/fused"
	}
	return fmt.Sprintf("%s%s/s%d/%s/%s%s/%dw%s", o, p.Algorithm, p.Steps, p.Parallel, p.Strategy, fu, p.Workers, be)
}

// decision is a plan bound to its runnable executor and resolved backend.
type decision struct {
	plan Plan
	be   gemm.Backend   // the plan's leaf backend, resolved at build time
	exec *core.Executor // nil for classical
	// failMul, when non-nil, makes run fail unconditionally — the
	// seam the probe-resilience regression test injects a runtime backend
	// failure through. Never set outside tests.
	failMul error
}

// run executes one request — C = Alpha·op(A,B) + Beta·C — with the decision's
// plan.
func (d *decision) run(r op.Request) error { return d.runBudget(r, core.Budget{}) }

// runBudget is run with a fast plan's executor bound to a budget (see
// core.Executor.WithBudget): once its Over holds the call returns
// core.ErrStopped, and its arenas come from the budget's pool. A fast plan
// runs the request through core.Executor.Do, which checks it and pipes α,
// β and the trace into the recursion; the classical baseline checks it here
// and ignores the budget.
func (d *decision) runBudget(r op.Request, b core.Budget) error {
	if d.failMul != nil {
		return d.failMul
	}
	if d.exec != nil {
		return d.exec.WithBudget(b).Do(r)
	}
	r = r.Normalized()
	if err := r.Validate(); err != nil {
		return fmt.Errorf("tuner: %w", err)
	}
	return d.runClassical(r)
}

// runClassical serves a request on the direct-gemm baseline: alpha and the
// accumulate flag pipe natively into the kernel; only a Beta outside {0, 1}
// costs an extra pre-scale sweep.
func (d *decision) runClassical(r op.Request) error {
	if r.Beta != 0 && r.Beta != 1 {
		mat.Scale(r.C, r.Beta, r.C)
	}
	acc := r.Beta != 0
	w := d.plan.Workers
	switch r.Op {
	case op.Multiply, op.MultiplyAdd:
		gemm.DispatchTraced(d.be, r.C, r.Alpha, r.A, r.B, acc, w, r.Trace, trace.Span{Kind: trace.KindLeaf})
	case op.ATA, op.Syrk:
		var start time.Time
		if r.Trace != nil {
			start = time.Now()
		}
		if r.Op == op.ATA {
			gemm.ATA(d.be, r.C, r.Alpha, r.A, acc, w)
		} else {
			gemm.Syrk(d.be, r.C, r.Alpha, r.A, acc, w)
		}
		if r.Trace != nil {
			m, k, n := r.Shape()
			gemm.TraceLeaf(r.Trace, trace.Span{Kind: trace.KindLeaf}, d.be, m, k, n, time.Since(start))
		}
	default:
		return fmt.Errorf("tuner: unsupported op %s", r.Op)
	}
	return nil
}

// Tuner dispatches multiplications to autotuned plans. It is safe for
// concurrent use, and it is the one place a decision is made, kept warm and
// persisted: Do, PlanForOp, Entry and RankOp work at Options.Workers,
// EntryOp at the width its caller names.
type Tuner struct {
	opts      Options
	prof      *Profile
	be        gemm.Backend // the leaf backend every plan runs on: gemm.Default() at New
	keySuffix string       // Options.Key() less its leading "w<Workers>", where key renders the width

	// mu guards the in-memory cache (see cacheKey): warm holds its entries,
	// uses is the clock each use of an entry reads, and retained sums the
	// entries' bytes.
	mu       sync.Mutex
	warm     map[cacheKey]*Entry
	uses     uint64
	retained int64
	// deciding holds the keys whose decision is being made; each channel is
	// closed once its decision is kept or has failed.
	deciding map[cacheKey]chan struct{}

	// timeRun is the probe's stopwatch: it runs d on req — the caller's own
	// request, when the probe serves one, so the run's result is the call's
	// — and reports the seconds the run took, or core.ErrStopped once its
	// budget finds it cannot finish inside a positive limit (see
	// probeLimit.budget). It is timeDecision everywhere but in tests, which
	// script the measured times through it.
	timeRun func(d *decision, req op.Request, lim probeLimit) (float64, error)
}

// New builds a tuner. Calibration resolution order: Options.Profile, the
// persisted profile, a fresh quick calibration (persisted best-effort).
func New(opts Options) (*Tuner, error) {
	opts = opts.withDefaults()
	if opts.ProbeTopK < NoProbes {
		return nil, fmt.Errorf("tuner: ProbeTopK %d is below NoProbes (%d)", opts.ProbeTopK, NoProbes)
	}
	t := &Tuner{
		opts:     opts,
		be:       gemm.Default(),
		warm:     map[cacheKey]*Entry{},
		deciding: map[cacheKey]chan struct{}{},
	}
	t.timeRun = timeDecision
	switch {
	case opts.Profile != nil:
		if !opts.Profile.Valid() {
			return nil, fmt.Errorf("tuner: supplied calibration profile is invalid (or not measured on backend %s)", t.be.Name())
		}
		t.prof = opts.Profile
	case opts.NoDiskCache:
		t.prof = Calibrate(opts.Workers, true)
	default:
		// A persisted profile calibrated at fewer workers than requested
		// cannot predict this tuner's parallel candidates (GemmRateFor clamps
		// at the calibrated count) — recalibrate, but never clobber a
		// deliberate full-protocol calibration with the quick one; the user
		// re-runs `fmmtune calibrate -workers N` for that.
		p, ok := LoadProfile()
		if ok && p.Machine.Workers >= opts.Workers {
			t.prof = p
		} else {
			t.prof = Calibrate(opts.Workers, true)
			if !ok || p.Quick {
				_ = SaveProfile(t.prof) // best-effort: read-only homes are fine
			}
		}
	}
	t.opts.Profile = t.prof
	t.keySuffix = strings.TrimPrefix(t.opts.Key(), "w"+strconv.Itoa(opts.Workers))
	return t, nil
}

// Calibration returns the machine profile the tuner predicts with.
func (t *Tuner) Calibration() *Profile { return t.prof }

// Multiply computes C = A·B with the tuned plan for the operands' shape —
// tuning it first if this is the shape's first touch. C must not alias A/B.
func (t *Tuner) Multiply(C, A, B *mat.Dense) error {
	return t.Do(op.Request{Op: op.Multiply, C: C, A: A, B: B})
}

// Do executes one operation-typed request — C = Alpha·op(A,B) + Beta·C —
// with the tuned plan for its (op, shape), tuning on first touch. Tuning is
// per plan-space op: ATA and Syrk get their own cached plans (always the
// classical triangle pass), while MultiplyAdd rides Multiply's.
//
// A cold call lends the decision its request (see probe): every probe of a
// Multiply or MultiplyAdd reads the caller's A and B, into a C of its own
// unless it may write the caller's. An overwriting multiply (Beta 0) is
// served by the classical reference probe itself, trace included, so when
// classical wins the call is done. Otherwise the winner runs the request.
func (t *Tuner) Do(req op.Request) error {
	req = req.Normalized()
	if err := req.Validate(); err != nil {
		return fmt.Errorf("tuner: %w", err)
	}
	m, k, n := req.Shape()
	e, _, served, err := t.decide(req.Op.PlanOp(), m, k, n, t.opts.Workers, &req)
	if err != nil || served {
		return err
	}
	return e.Run(req)
}

// PlanForOp returns the tuned plan for an (op, shape), tuning on first
// touch. The shape is always the gemm-equivalent product triple ⟨m,k,n⟩
// (op.Op.Shape): ATA on an m×n operand asks for ⟨n,m,n⟩, Syrk for ⟨m,n,m⟩.
func (t *Tuner) PlanForOp(o op.Op, m, k, n int) (Plan, error) {
	e, _, _, err := t.decide(o.PlanOp(), m, k, n, t.opts.Workers, nil)
	if err != nil {
		return Plan{}, err
	}
	return e.Plan(), nil
}

// Entry is one warm tuning decision: the chosen plan bound to its runnable
// trusted executor (nil executor for the classical baseline), as the
// tuner's in-memory cache keeps it. A holder runs requests through it
// without the tuner's dispatch, which is what a batched dispatcher wants:
// resolve once per shape class, then Run. Holding an Entry keeps its
// executor and arenas alive after the cache evicts it.
type Entry struct {
	d   *decision
	t   *Tuner
	key cacheKey
	// used and bytes are the cache's bookkeeping, guarded by t.mu: the
	// entry's last use on the tuner's use clock, and the workspace bytes its
	// executor retained after its last run while the cache kept it.
	used  uint64
	bytes int64
}

// Entry returns the warm multiply entry for a shape at Options.Workers,
// tuning it on first touch. The returned entry stays valid (and keeps its
// executor's arenas warm) even if the tuner's cache later evicts it.
func (t *Tuner) Entry(m, k, n int) (*Entry, error) {
	e, _, _, err := t.EntryOp(op.Multiply, m, k, n, t.opts.Workers, nil)
	return e, err
}

// EntryOp returns the warm entry for an (op, gemm-equivalent-shape) pair at
// width w, a worker count from 1 to Options.Workers; see PlanForOp for the
// triple convention. The batched dispatcher resolves each request to the
// entry of its (op, shape class, width) and runs it through the entry. A
// warm entry is returned without allocating, and hit reports that the cache
// held it — or that a concurrent caller's decision in flight made it, for
// which this call waited.
//
// req, when non-nil, is the caller's request that asked for the entry. It
// is lent to a cold decision only when its plan-space op and
// gemm-equivalent shape are the entry's — the batched dispatcher's request
// whose shape is its class's representative — and the probes then run on
// it as Do's do (see probe). served reports that the classical reference
// probe ran the request itself — an overwriting Multiply that classical
// won — so the caller must not run it again; the entry's
// Plan().MeasuredSeconds is then that run's time. A request not lent, or
// none, leaves the probes on operands of their own, and nothing is served.
func (t *Tuner) EntryOp(o op.Op, m, k, n, w int, req *op.Request) (e *Entry, hit, served bool, err error) {
	if w < 1 || w > t.opts.Workers {
		return nil, false, false, fmt.Errorf("tuner: width %d outside 1..%d", w, t.opts.Workers)
	}
	return t.decide(o.PlanOp(), m, k, n, w, req)
}

// Plan reports the entry's tuned plan.
func (e *Entry) Plan() Plan { return e.d.plan }

// Run executes one request with the entry's plan. The request's op must
// share the entry's plan space (op.PlanOp) and its shape must match the
// entry's — the entry applies no dispatch, just its bound plan. The run
// refreshes the entry's retained bytes in the tuner's cache, which may
// evict least recently used entries. Safe for concurrent use.
func (e *Entry) Run(req op.Request) error {
	err := e.d.run(req)
	e.t.retain(e)
	return err
}

// WorkspaceRetained reports the bytes currently held by the entry executor's
// arena pool (0 for the classical baseline, whose packing slabs are pooled
// globally by the gemm kernel).
func (e *Entry) WorkspaceRetained() int64 {
	if e.d.exec == nil {
		return 0
	}
	return e.d.exec.WorkspaceRetained()
}

// key renders a decision's disk-cache key: the op, shape and width plus
// every option that changes the answer. It is the key a tuner built with
// Workers w renders. Only the op, shape and width vary per call; the rest
// of the options part is precomputed once in New.
func (t *Tuner) key(o op.Op, m, k, n, w int) string {
	return fmt.Sprintf("v%d/%s/%dx%dx%d/w%d%s", ProfileVersion, o.Key(), m, k, n, w, t.keySuffix)
}

// decide resolves an (op, shape) at width w to its warm entry: from the
// in-memory cache (hit), or else from the key's file in the disk cache or a
// fresh ranking and probe (see resolve). One decision per key is made at a
// time: a caller that finds its key being decided waits, then takes the
// kept entry as a hit — or, when that decision failed and nothing was kept,
// decides itself. req, when non-nil, is the caller's request; only the
// deciding caller's is lent to the probes, and served reports that a probe
// ran it.
func (t *Tuner) decide(o op.Op, m, k, n, w int, req *op.Request) (e *Entry, hit, served bool, err error) {
	key := cacheKey{op: o, m: m, k: k, n: n, w: w}
	t.mu.Lock()
	for {
		if e, ok := t.lookup(key); ok {
			t.mu.Unlock()
			return e, true, false, nil
		}
		busy, ok := t.deciding[key]
		if !ok {
			break
		}
		t.mu.Unlock()
		<-busy
		t.mu.Lock()
	}
	done := make(chan struct{})
	t.deciding[key] = done
	t.mu.Unlock()

	// Deferred, so that a decision that panics still wakes its waiters.
	defer func() {
		t.mu.Lock()
		if e != nil {
			t.warm[key] = e
			t.use(e)
			t.evict()
		}
		delete(t.deciding, key)
		t.mu.Unlock()
		close(done)
	}()
	d, served, err := t.resolve(o, m, k, n, w, req)
	if err != nil {
		return nil, false, false, err
	}
	return &Entry{d: d, t: t, key: key}, false, served, nil
}

// resolve makes the decision for (o, shape) at width w: the plan in the
// key's file when it builds, else the winner of a fresh ranking and probe,
// persisted as the key's file (best-effort: a read-only home only costs the
// next process a re-decision). The probes read req when it is lendable (see
// lendable).
func (t *Tuner) resolve(o op.Op, m, k, n, w int, req *op.Request) (*decision, bool, error) {
	key := t.key(o, m, k, n, w)
	if !t.opts.NoDiskCache {
		if p, ok := loadPlan(key); ok {
			if d, err := t.build(o, p); err == nil {
				return d, false, nil
			}
			// A cache entry build rejects (an unknown algorithm or backend
			// from an edited file or older catalog, a plan RankOp does not
			// emit) falls through to a fresh ranking.
		}
	}
	ranked, err := t.rank(o, m, k, n, w)
	if err != nil {
		return nil, false, err
	}
	d, served, err := t.pick(ranked, m, k, n, lendable(o, m, k, n, req))
	if err != nil {
		return nil, false, err
	}
	if !t.opts.NoDiskCache {
		_ = storePlan(key, d.plan)
	}
	return d, served, nil
}

// lendable returns req normalized when its plan-space op and
// gemm-equivalent shape are the decision's, so its operands may serve the
// probes (see probe), and nil otherwise.
func lendable(o op.Op, m, k, n int, req *op.Request) *op.Request {
	if req == nil || req.Op.PlanOp() != o {
		return nil
	}
	if rm, rk, rn := req.Shape(); rm != m || rk != k || rn != n {
		return nil
	}
	r := req.Normalized()
	return &r
}

// RankOp enumerates the candidate plans for an (op, shape) — the classical
// baseline plus algorithm × steps × scheduler, every fast plan write-once
// without CSE and fused where the tuner's leaf backend can fuse — and sorts
// them by predicted time (fastest first), workspace-cap survivors only. The
// shape is the gemm-equivalent product triple. A classical baseline is
// always present, so the result is never empty; for the symmetric ops it is
// the whole result (see classicalPlan). It ranks at Options.Workers.
func (t *Tuner) RankOp(o op.Op, m, k, n int) ([]Plan, error) {
	ranked, err := t.rank(o, m, k, n, t.opts.Workers)
	if err != nil {
		return nil, err
	}
	plans := make([]Plan, len(ranked))
	for i, d := range ranked {
		plans[i] = d.plan
	}
	return plans, nil
}

// rank is RankOp's ranking at width w as the decisions it builds to price
// each plan, so pick runs them without building any again.
func (t *Tuner) rank(o op.Op, m, k, n, w int) ([]*decision, error) {
	o = o.PlanOp()
	if m <= 0 || k <= 0 || n <= 0 {
		return nil, fmt.Errorf("tuner: invalid shape %d×%d×%d", m, k, n)
	}
	ranked := []*decision{{plan: t.classicalPlan(o, m, k, n, w), be: t.be}}
	// The symmetric ops run classical only (see classicalPlan). Below the
	// recursion cutoff no fast algorithm is worth its additions; guarantee
	// classical rather than trusting the model at sizes the calibration
	// barely covers.
	if o.Symmetric() || max(m, k, n) < core.MinDim {
		return ranked, nil
	}
	for _, name := range t.opts.Algorithms {
		a, err := catalog.GetVerified(name)
		if err != nil {
			continue // unknown or unverifiable entries never panic the tuner
		}
		ranked = append(ranked, t.algorithmPlans(a, m, k, n, w)...)
	}

	sort.SliceStable(ranked, func(i, j int) bool {
		return ranked[i].plan.PredictedSeconds < ranked[j].plan.PredictedSeconds
	})
	return ranked, nil
}

// classicalPlan is the direct-gemm baseline of (o, shape) at width w. For the symmetric
// ops it is gemm.ATA/Syrk, priced as its triangle pass, tagged with the op's
// token, and their only plan: a fast product runs at no less than half the
// result size there, and against the triangle's half flops it never crosses
// over at practical sizes.
func (t *Tuner) classicalPlan(o op.Op, m, k, n, w int) Plan {
	workers := w
	slab := 8 * t.be.PackFloatsPerWorker()
	if cap := t.opts.Workspace; cap > 0 && slab > 0 && int64(workers)*slab > cap {
		// Degrade parallelism until the packing slabs fit; one worker's
		// slab is the floor below which gemm cannot go.
		workers = int(cap / slab)
		if workers < 1 {
			workers = 1
		}
	}
	parallel := "sequential"
	if workers > 1 {
		parallel = "parallel" // direct gemm slab parallelism, not a scheduler
	}
	p := Plan{
		Algorithm:        ClassicalAlgorithm,
		Backend:          t.be.Name(),
		Parallel:         parallel,
		Workers:          workers,
		WorkspaceBytes:   int64(workers) * slab,
		PredictedSeconds: t.prof.Machine.ClassicalTimeFor(m, k, n, workers),
	}
	if o.Symmetric() {
		p.Op = o.Key()
		p.PredictedSeconds = t.prof.Machine.SymmetricTime(m, k, gemm.TriangleTile(t.be), workers)
	}
	return p
}

// algorithmPlans builds and prices the viable (steps, scheduler) plans of
// one algorithm on one shape at width w, all write-once and fused where the backend
// can fuse. Each candidate is priced through its own executor:
// costmodel.PredictTime folds that executor's walk, peeling borders
// included, and deploys its workers as the scheduler the call runs as, and
// its WorkspaceBytes is the footprint the cap filters on. Per depth the
// first scheduler is the base, Sequential at one worker and DFS at more; a
// depth the shape cannot reach (the walk stops short of it) ends the
// enumeration. BFS and HYBRID are built only where the base executor's
// RunsAs says a call runs as them, so no executor is built only to be
// dropped as a twin: a fused one-step BFS multiply runs as DFS, a HYBRID
// call that defers no leaf (a fused last level, or a leaf count W divides)
// as BFS, and either as DFS under a cap its workspace exceeds.
func (t *Tuner) algorithmPlans(a *algo.Algorithm, m, k, n, w int) []*decision {
	var out []*decision
	scheds := []core.Parallel{core.Sequential}
	if w > 1 {
		scheds = []core.Parallel{core.DFS, core.BFS, core.Hybrid}
	}
	for steps := 1; steps <= DefaultMaxSteps; steps++ {
		var base *core.Executor
		for _, par := range scheds {
			if base != nil && base.RunsAs(par, m, k, n) != par {
				continue
			}
			d, err := t.executor(a, par, t.be, Plan{
				Algorithm: a.Name,
				Backend:   t.be.Name(),
				Steps:     steps,
				Parallel:  par.String(),
				Strategy:  addchain.WriteOnce.String(),
				Fused:     gemm.CanFuse(t.be),
				Workers:   w,
			})
			if err != nil {
				break
			}
			if base == nil {
				base = d.exec
				walk := base.Walk(m, k, n)
				for walk.Next() {
				}
				if walk.Depth < steps {
					return out // deeper recursion no longer fits one base-case block
				}
			}
			est, err := costmodel.PredictTime(d.exec, m, k, n, t.prof.Machine)
			if err != nil {
				continue
			}
			d.plan.WorkspaceBytes = d.exec.WorkspaceBytes(m, k, n)
			if cap := t.opts.Workspace; cap > 0 && d.plan.WorkspaceBytes > cap {
				continue
			}
			d.plan.PredictedSeconds = est.Seconds
			out = append(out, d)
		}
	}
	return out
}

// parseParallel inverts core.Parallel.String for cache entries.
func parseParallel(s string) (core.Parallel, error) {
	for _, p := range []core.Parallel{core.Sequential, core.DFS, core.BFS, core.Hybrid} {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("tuner: unknown scheduler %q", s)
}

// build turns a plan loaded from the disk cache into a runnable decision
// for one plan-space op; the ranking builds its own. A fast plan gets a
// trusted executor (the catalog verified the algorithm once already; see
// executor). The plan's backend resolves here — an unknown name
// (edited cache file, a blas plan loaded into a non-blas build) fails and
// falls through to a fresh ranking, like an unknown algorithm, a fast plan
// for a symmetric op, or a fast plan RankOp would not emit: one that is not
// write-once, uses CSE (an earlier version's cached streaming plan), or
// whose Fused disagrees with its backend (an earlier version's cached
// explicit plan on a fusing backend).
func (t *Tuner) build(o op.Op, p Plan) (*decision, error) {
	o = o.PlanOp()
	be, err := gemm.Resolve(p.Backend)
	if err != nil {
		return nil, err
	}
	if p.IsClassical() {
		return &decision{plan: p, be: be}, nil
	}
	if o.Symmetric() {
		return nil, fmt.Errorf("tuner: %s runs only as classical, not %s", o, p)
	}
	if p.Strategy != addchain.WriteOnce.String() || p.CSE {
		return nil, fmt.Errorf("tuner: fast plans run write-once without CSE, not %s (cse %t)", p.Strategy, p.CSE)
	}
	if p.Fused != gemm.CanFuse(be) {
		return nil, fmt.Errorf("tuner: fast plans on backend %s run fused %t, not %s", be.Name(), gemm.CanFuse(be), p)
	}
	a, err := catalog.GetVerified(p.Algorithm)
	if err != nil {
		return nil, err
	}
	par, err := parseParallel(p.Parallel)
	if err != nil {
		return nil, err
	}
	return t.executor(a, par, be, p)
}

// executor binds fast plan p, of algorithm a under scheduler par on backend
// be, to a trusted executor. The workspace cap is threaded through, so the
// executor's run-time degradation also holds.
func (t *Tuner) executor(a *algo.Algorithm, par core.Parallel, be gemm.Backend, p Plan) (*decision, error) {
	exec, err := core.NewTrusted(a, core.Options{
		Resources: core.Resources{Workers: p.Workers, Workspace: t.opts.Workspace},
		Steps:     p.Steps,
		Strategy:  addchain.WriteOnce,
		Fused:     p.Fused,
		Parallel:  par,
		Backend:   p.Backend,
	})
	if err != nil {
		return nil, err
	}
	return &decision{plan: p, be: be, exec: exec}, nil
}

// probeMargin is how much faster than the measured classical baseline a
// fast plan must be — on two timings each — before the tuner commits to it.
// Probes are single timings on whatever else the machine is doing; a win
// inside this margin is noise as often as not, and classical is the choice
// that can never be a regression.
const probeMargin = 0.03

// pick chooses the winner among the ranked decisions, whose executors the
// ranking built to price them, so it builds none: the model's first wins
// the model round, then the configured number of probes decides among the
// leaders empirically. The best-predicted classical plan always joins the
// probed survivors, however the model ranked it — it is the reference
// probe holds every fast plan to. lend and served are resolve's (see
// probe).
func (t *Tuner) pick(ranked []*decision, m, k, n int, lend *op.Request) (*decision, bool, error) {
	topK := t.opts.ProbeTopK
	if topK == NoProbes {
		return ranked[0], false, nil
	}
	survivors := make([]*decision, 0, topK+1)
	haveClassical := false
	for _, d := range ranked {
		if len(survivors) >= topK && !d.plan.IsClassical() {
			continue // the pool is full; only the classical reference is still wanted
		}
		survivors = append(survivors, d)
		haveClassical = haveClassical || d.plan.IsClassical()
		if len(survivors) >= topK && haveClassical {
			break
		}
	}
	if len(survivors) == 1 {
		return survivors[0], false, nil
	}
	return t.probe(survivors, m, k, n, lend)
}

// leafRateSlack is how much faster than classical's measured flop rate on
// the whole shape a fast plan's leaves may run before the probe bound could
// stop a plan that would have finished in time. A leaf can beat the whole
// shape's rate — a smaller gemm fits the caches better, and BFS leaves skip
// the parallel gemm's fan-out. Measured on a 2-CPU AVX-512 Xeon, the worst
// leaf of the benchmark's shapes ran at 1.15–1.20× (2560×320×2560 at two
// workers, leaves of 640×160×640 two at a time); the constant keeps a
// margin over that.
const leafRateSlack = 1.3

// paceSlack is how much faster than its own pace a fast probe's remaining
// leaves may run before the pace bound could stop a plan that would have
// finished in time. A run's pace is the leaf flops it has started per
// second since its first leaf started, the additions between leaves
// included; the additions a plan makes before its first leaf are left out,
// as they would make the pace look slower than the rest of the run. No
// ranked plan streams, so that lead is only the first product's operand
// sums on each explicit level; it stays left out because the slack below was
// measured that way, and taking it in would need a measurement of its own.
// Measured on a 2-CPU AVX-512 Xeon over the top-4 fast probes of the
// benchmark's multiply shapes run to completion, the rest of a sequential
// run beat its pace at a check by at most 1.32× (median about 1.0); at two
// workers, where the leaf-rate bound almost always stops a run first, by up
// to about 3×. A slack below
// the worst case can stop a fast plan that would have won by a few percent,
// a margin the probe's single noisy timing does not resolve either; a larger
// one forgoes most of the saving.
const paceSlack = 1.15

// probeLimit is what one timed probe run is held to: the decision's arena
// pool, and for a fast probe a limit and the flop rate its remaining leaves
// are assumed to run at before it has started one (leafRateSlack ×
// classical's measured rate).
type probeLimit struct {
	limit  time.Duration // 0: run to completion
	rate   float64       // flops per second
	arenas *workspace.Pool
}

// budget is the core.Budget of one run started at start, with now reading
// the clock: Over(left) holds once now + left/rate is past start + limit —
// the run could not finish inside the limit even with every remaining leaf
// at rate and all its additions free, so it has lost. rate is the limit's
// until the run has started a leaf; from then on it is the lower of that
// and paceSlack × the run's pace: the leaf flops it has started (the first
// check's left less this one's) over the seconds since the last check that
// saw none started. With no limit the budget only supplies the arenas.
func (l probeLimit) budget(start time.Time, now func() time.Time) core.Budget {
	b := core.Budget{Arenas: l.arenas}
	if l.limit <= 0 {
		return b
	}
	total := int64(-1) // the first check's left: the plan's whole leaf flops
	var lead float64   // seconds to the last check that saw no leaf started
	b.Over = func(left int64) bool {
		elapsed := now().Sub(start).Seconds()
		if total < 0 {
			total = left
		}
		rate := l.rate
		if started := total - left; started == 0 {
			lead = elapsed
		} else if elapsed > lead {
			rate = min(rate, paceSlack*float64(started)/(elapsed-lead))
		}
		return elapsed+float64(left)/rate > l.limit.Seconds()
	}
	return b
}

// timeDecision is the production timeRun: it runs d on req once under its
// budget (see probeLimit.budget), so a run that cannot finish inside a
// positive limit stops at the first check that proves it and reports the
// limit with core.ErrStopped.
func timeDecision(d *decision, req op.Request, lim probeLimit) (float64, error) {
	start := time.Now()
	err := d.runBudget(req, lim.budget(start, time.Now))
	secs := time.Since(start).Seconds()
	switch {
	case errors.Is(err, core.ErrStopped):
		return lim.limit.Seconds(), err
	case err != nil:
		return 0, err
	}
	return secs, nil
}

// serves reports whether a probe may serve a lent request: only an
// overwriting Multiply's C is the reference probe's to write.
func serves(lend *op.Request) bool {
	return lend != nil && lend.Op == op.Multiply && lend.Beta == 0
}

// probeRequests returns the requests a probe times: ref for its classical
// survivors and scratch for its fast ones. Lent a request, scratch reads its
// A and B into a C of its own, and ref is the request itself when the probe
// may serve it (serves), else scratch; without one both are one multiply on
// deterministic random operands of the shape. Every C is faulted in untimed:
// the first probe is classical's, and its time sets every fast deadline.
func probeRequests(m, k, n int, lend *op.Request) (ref, scratch op.Request) {
	if lend == nil {
		rng := rand.New(rand.NewSource(int64(m)*1_000_003 + int64(k)*1_009 + int64(n)))
		req := op.Request{Op: op.Multiply, C: mat.New(m, n), A: mat.New(m, k), B: mat.New(k, n)}
		req.B.FillRandom(rng)
		req.A.FillRandom(rng)
		req.C.Zero()
		return req, req
	}
	scratch = op.Request{Op: op.Multiply, C: mat.New(m, n), A: lend.A, B: lend.B}
	scratch.C.Zero()
	if !serves(lend) {
		return scratch, scratch
	}
	ref = *lend
	ref.C.Zero()
	return ref, scratch
}

// probe times each surviving multiply decision on operands of the real
// shape and returns the fastest — with classical as the reference a fast
// plan has to beat. One short multiplication per candidate: the probes
// exist to catch what the model misranks, and their cost is amortized by the
// disk cache. The fastest survivor wins outright when it is classical; a
// fast plan wins only if it is more than probeMargin faster than the fastest
// classical survivor, and is so again on one more timing of the two, taken
// back to back so drift hits both. Anything else returns that classical
// plan: the tuner may fail to find a speedup, it must not pick a slowdown.
//
// The classical survivors are timed first, and the rule's own cut-off is
// where a fast probe stops: every fast survivor runs against a limit of
// (1 − probeMargin) times the fastest classical time T_c. A run is stopped
// (see core.Executor.WithBudget) at the first check where it could not
// finish inside that limit even with its remaining leaf flops at
// leafRateSlack × classical's flop rate (flops/T_c), or, once it has
// started a leaf, at paceSlack × its own pace (see probeLimit.budget), and
// its additions free; it has lost whatever it would have measured, and
// never wins. While the slacks hold, the decisions are those of timing
// every survivor to completion; only the losers' time is saved. The
// confirming pair runs without a limit.
//
// lend, when non-nil, is a caller's Multiply or MultiplyAdd of the shape,
// and every probe reads its A and B (see probeRequests), so a cold call
// builds no operands. Only an overwriting Multiply's C is written: the
// classical survivors run that request itself, trace included, and served
// reports that the returned decision is the classical survivor whose run
// wrote C last — the caller's call is then done, since a survivor whose run
// failed is never returned. A fast winner, or a reference run that failed,
// leaves the call to the caller, whose trace then holds the reference
// run's spans before its own. Any other lent request is probed into a C of
// the probe's own and never served; without lend the probe runs on
// operands of its own.
//
// Every run the probe times draws its workspace from one arena pool, made
// here and dropped on return: each fast survivor reuses the arenas the
// previous one warmed instead of allocating and zeroing its own, and
// nothing a probe warmed outlives the decision — the winner's executor
// starts with an empty pool.
//
// A survivor whose probe multiply fails at run time — a backend that built
// fine but misbehaves on this machine, e.g. a blas plan over a broken
// library — is skipped and its error recorded, never fatal (earlier code
// called this unreachable and panicked the process). The winner comes from
// the remaining survivors; only when every survivor failed does the first
// error surface to the caller.
func (t *Tuner) probe(survivors []*decision, m, k, n int, lend *op.Request) (*decision, bool, error) {
	ref, scratch := probeRequests(m, k, n, lend)
	serve := serves(lend)

	arenas := new(workspace.Pool)
	var best, classical, servedBy *decision
	var firstErr error
	for _, fast := range []bool{false, true} {
		for _, d := range survivors {
			if d.plan.IsClassical() == fast {
				continue
			}
			req, lim := ref, probeLimit{arenas: arenas}
			if fast {
				req = scratch
				if classical != nil {
					tc := classical.plan.MeasuredSeconds
					lim.limit = time.Duration((1 - probeMargin) * tc * float64(time.Second))
					lim.rate = leafRateSlack * 2 * float64(m) * float64(k) * float64(n) / tc
				}
			}
			secs, err := t.timeRun(d, req, lim)
			if !fast && serve {
				servedBy = d // the caller's C holds this run's result
			}
			if errors.Is(err, core.ErrStopped) {
				continue // cannot beat the limit: lost
			}
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("tuner: probing %s: %w", d.plan, err)
				}
				continue
			}
			d.plan.MeasuredSeconds = secs
			if best == nil || secs < best.plan.MeasuredSeconds {
				best = d
			}
			if !fast && (classical == nil || secs < classical.plan.MeasuredSeconds) {
				classical = d
			}
		}
	}
	if best == nil {
		// A probe is stopped only against a measured classical time, so no
		// best means every survivor failed.
		return nil, false, firstErr
	}
	if classical == nil || best.plan.IsClassical() {
		// No measured reference (its probe failed), or classical won
		// outright.
		return best, best == servedBy, nil
	}
	beats := func(fast, ref float64) bool { return fast < ref*(1-probeMargin) }
	if !beats(best.plan.MeasuredSeconds, classical.plan.MeasuredSeconds) {
		return classical, classical == servedBy, nil
	}
	fast, err := t.timeRun(best, scratch, probeLimit{arenas: arenas})
	if err != nil {
		return classical, classical == servedBy, nil
	}
	if ref, err := t.timeRun(classical, scratch, probeLimit{arenas: arenas}); err == nil && !beats(fast, ref) {
		return classical, classical == servedBy, nil
	}
	best.plan.MeasuredSeconds = min(best.plan.MeasuredSeconds, fast)
	return best, false, nil
}
