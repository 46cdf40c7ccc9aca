// Package tuner is the shape-aware autotuning dispatcher: given a problem
// shape ⟨m,k,n⟩ and a worker count it picks the (algorithm, recursion depth,
// scheduler, addition strategy) combination predicted — and optionally
// measured — to be fastest on this machine. It operationalizes the paper's
// central empirical claim that no single fast algorithm wins everywhere
// (Figs. 4–6): the best choice depends on the shape, the core count, and the
// memory budget.
//
// The pipeline per shape:
//
//  1. enumerate candidate plans — every algorithm of Options.Algorithms ×
//     steps up to DefaultMaxSteps × scheduler × addition strategy
//     (write-once, streaming), plus the classical gemm baseline, all on the
//     default leaf backend; shapes below core.MinDim, and the symmetric ops
//     AᵗA and Syrk at every shape, get the baseline alone;
//  2. prune and rank them with the analytic cost recurrences of
//     internal/costmodel, turned into predicted seconds by a one-time
//     machine calibration (Options.Profile, or measured gemm GFLOPS at a
//     few block sizes and the measured STREAM-add bandwidth), dropping any
//     plan whose workspace exceeds Options.Workspace;
//  3. unless Options.ProbeTopK is NoProbes, refine the top-K survivors with
//     one short empirical probe each — the best-predicted classical plan
//     always among them and timed first, every fast probe stopped once it
//     can no longer finish inside that measured time less the margin, and a
//     fast plan chosen only when it beats the classical time by the margin,
//     twice (see probe);
//  4. persist the winner in an on-disk tuning cache (JSON under
//     os.UserCacheDir, overridable via FASTMM_TUNE_CACHE; none with
//     Options.NoDiskCache) fronted by an in-memory LRU, so repeated shapes
//     dispatch in O(1).
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

	lruSize = 128
)

// ClassicalAlgorithm is the Plan.Algorithm value for the gemm baseline.
const ClassicalAlgorithm = "classical"

// Resources is the shared resource budget (see internal/resources); it is
// embedded in Options so Workers/Workspace spell the same way — and
// hash into cache keys the same way — across every layer.
type Resources = resources.Resources

// strategies are the addition strategies every fast candidate is ranked
// under: write-once and streaming, §3.2's two winners.
var strategies = []addchain.Strategy{addchain.WriteOnce, addchain.Streaming}

// Options configures a Tuner. The zero value is ready to use: GOMAXPROCS
// workers, no workspace cap, quick auto-calibration on first use, top-4
// probing, and the default disk cache location.
type Options struct {
	// Resources is the execution budget: Workers bounds the goroutines a
	// chosen plan may use (default GOMAXPROCS); Workspace, when positive,
	// caps the workspace bytes a chosen plan may claim — candidates whose
	// predicted footprint exceeds it are never selected, and the cap is
	// threaded through to the built executor, which additionally degrades
	// BFS/HYBRID to DFS at run time (a cap below even the classical kernel's
	// packing slabs still selects sequential classical gemm — multiplication
	// must remain possible).
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
	// scatter-added through the epilogue). Enumerated only for leaf backends
	// that support it (gemm.CanFuse).
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
// core.ErrStopped, and its arenas come from the budget's pool. The
// classical baseline ignores the budget.
func (d *decision) runBudget(r op.Request, b core.Budget) error {
	if d.failMul != nil {
		return d.failMul
	}
	r = r.Normalized()
	if err := r.Validate(); err != nil {
		return fmt.Errorf("tuner: %w", err)
	}
	if d.exec == nil {
		return d.runClassical(r)
	}
	exec := d.exec.WithBudget(b)
	switch r.Op {
	case op.Multiply, op.MultiplyAdd:
		if r.Beta == 0 {
			if err := exec.MultiplyTrace(r.C, r.A, r.B, r.Trace); err != nil {
				return err
			}
			if r.Alpha != 1 {
				mat.Scale(r.C, r.Alpha, r.C)
			}
			return nil
		}
		if r.Beta != 1 {
			mat.Scale(r.C, r.Beta, r.C)
		}
		return exec.MultiplyAdd(r.C, r.A, r.B, r.Alpha)
	}
	return fmt.Errorf("tuner: unsupported op %s", r.Op)
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
		gemm.DispatchTraced(d.be, r.C, r.Alpha, r.A, r.B, acc, w, r.Trace)
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
			gemm.TraceLeaf(r.Trace, trace.KindLeaf, d.be, m, k, n, time.Since(start))
		}
	default:
		return fmt.Errorf("tuner: unsupported op %s", r.Op)
	}
	return nil
}

// Tuner dispatches multiplications to autotuned plans. It is safe for
// concurrent use; concurrent first-touches of the same shape may tune twice
// (benign — the same winner lands in the cache).
type Tuner struct {
	opts      Options
	prof      *Profile
	be        gemm.Backend // the leaf backend every plan runs on: gemm.Default() at New
	keySuffix string       // options part of the cache key, precomputed in New

	mu   sync.Mutex
	lru  *lru
	disk map[string]Plan
	// dirty holds only the entries this tuner decided itself (not the
	// startup-loaded snapshot): it is what persistence writes, so saving
	// never resurrects entries another process — or `fmmtune clear` —
	// removed from the file since we loaded it.
	dirty map[string]Plan

	modelMu sync.Mutex
	models  map[modelKey]*costmodel.Model

	// timeRun is the probe's stopwatch: the seconds one survivor takes on the
	// probe request, or core.ErrStopped once the run provably cannot finish
	// inside a positive limit (see probeLimit). It is timeDecision
	// everywhere but in the invariant tests, which script the measured times
	// through it.
	timeRun func(d *decision, req op.Request, lim probeLimit) (float64, error)
}

// persistMu serializes tuning-cache persistence process-wide: the resource it
// guards is one shared file, and tuners are routinely plural in-process (the
// batcher builds one per internal width), so a per-Tuner lock could not make
// the load-merge-save read-modify-write atomic. Under it, a goroutine holding
// an older view can never overwrite a newer file; across processes the atomic
// rename makes races lose entries, not integrity.
var persistMu sync.Mutex

type modelKey struct {
	name  string
	strat addchain.Strategy
	fused bool
}

// New builds a tuner. Calibration resolution order: Options.Profile, the
// persisted profile, a fresh quick calibration (persisted best-effort).
func New(opts Options) (*Tuner, error) {
	opts = opts.withDefaults()
	if opts.ProbeTopK < NoProbes {
		return nil, fmt.Errorf("tuner: ProbeTopK %d is below NoProbes (%d)", opts.ProbeTopK, NoProbes)
	}
	t := &Tuner{
		opts:   opts,
		be:     gemm.Default(),
		lru:    newLRU(lruSize),
		disk:   map[string]Plan{},
		dirty:  map[string]Plan{},
		models: map[modelKey]*costmodel.Model{},
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
	t.keySuffix = t.opts.Key()
	if !opts.NoDiskCache {
		t.disk = loadEntries()
	}
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
func (t *Tuner) Do(req op.Request) error {
	req = req.Normalized()
	if err := req.Validate(); err != nil {
		return fmt.Errorf("tuner: %w", err)
	}
	m, k, n := req.Shape()
	d, err := t.decide(req.Op.PlanOp(), m, k, n)
	if err != nil {
		return err
	}
	return d.run(req)
}

// PlanForOp returns the tuned plan for an (op, shape), tuning on first
// touch. The shape is always the gemm-equivalent product triple ⟨m,k,n⟩
// (op.Op.Shape): ATA on an m×n operand asks for ⟨n,m,n⟩, Syrk for ⟨m,n,m⟩.
func (t *Tuner) PlanForOp(o op.Op, m, k, n int) (Plan, error) {
	d, err := t.decide(o.PlanOp(), m, k, n)
	if err != nil {
		return Plan{}, err
	}
	return d.plan, nil
}

// Entry is one warm tuning decision: the chosen plan bound to its runnable
// trusted executor (nil executor for the classical baseline). Holding an
// Entry pins the executor and its retained workspace arenas independently of
// the tuner's internal LRU, which is exactly what a batched dispatcher wants:
// resolve once per shape class, then Run requests through the entry with no
// per-call key formatting or cache traffic at all.
type Entry struct {
	d *decision
}

// Entry returns the warm multiply entry for a shape, tuning it on first
// touch. The returned entry stays valid (and keeps its executor's arenas
// warm) even if the tuner later evicts or Forgets the shape.
func (t *Tuner) Entry(m, k, n int) (*Entry, error) { return t.EntryOp(op.Multiply, m, k, n) }

// EntryOp returns the warm entry for an (op, gemm-equivalent-shape) pair;
// see PlanForOp for the triple convention. The batched dispatcher resolves
// one entry per (op, shape class) and runs requests through it.
func (t *Tuner) EntryOp(o op.Op, m, k, n int) (*Entry, error) {
	d, err := t.decide(o.PlanOp(), m, k, n)
	if err != nil {
		return nil, err
	}
	return &Entry{d: d}, nil
}

// Plan reports the entry's tuned plan.
func (e *Entry) Plan() Plan { return e.d.plan }

// Run executes one request with the entry's plan. The request's op must
// share the entry's plan space (op.PlanOp) and its shape must match the
// entry's — the entry applies no dispatch, just its bound plan. Safe for
// concurrent use.
func (e *Entry) Run(req op.Request) error { return e.d.run(req) }

// WorkspaceRetained reports the bytes currently held by the entry executor's
// arena pool (0 for the classical baseline, whose packing slabs are pooled
// globally by the gemm kernel).
func (e *Entry) WorkspaceRetained() int64 {
	if e.d.exec == nil {
		return 0
	}
	return e.d.exec.WorkspaceRetained()
}

// ForgetOp drops an (op, shape) decision from the tuner's in-memory cache,
// so its executor (and retained arenas) can be collected once outstanding
// Entry holders release it. The persisted plan survives: re-touching the
// shape rebuilds the executor from the disk cache without re-probing.
// Byte-budget eviction in the batched dispatcher is the intended caller.
func (t *Tuner) ForgetOp(o op.Op, m, k, n int) {
	key := t.key(o.PlanOp(), m, k, n)
	t.mu.Lock()
	t.lru.remove(key)
	t.mu.Unlock()
}

// InvalidateOp drops an (op, shape) decision everywhere this tuner resolves
// from — the LRU, the loaded disk snapshot, and the dirty set — so the next
// touch of the shape re-ranks (and, per the probe policy, re-probes) from
// scratch instead of rebuilding the cached plan. This is the drift-recovery
// primitive: ForgetOp only releases the executor (the plan survives on
// disk), which is exactly wrong when the plan itself has gone stale against
// the machine's current behavior. The persisted file entry is superseded
// when the fresh decision saves (merge-on-save is keyed per entry).
func (t *Tuner) InvalidateOp(o op.Op, m, k, n int) {
	key := t.key(o.PlanOp(), m, k, n)
	t.mu.Lock()
	t.lru.remove(key)
	delete(t.disk, key)
	delete(t.dirty, key)
	t.mu.Unlock()
}

// key identifies a tuning decision: the op and shape plus every option that
// changes the answer. Only the op and shape vary per call; the options part
// is precomputed once in New so the warm dispatch path formats one string.
func (t *Tuner) key(o op.Op, m, k, n int) string {
	// Hand-rolled (not Sprintf): this runs on every warm dispatch, and the
	// sub-microsecond lookup contract leaves no room for verb parsing.
	b := make([]byte, 0, 48+len(t.keySuffix))
	b = append(b, 'v')
	b = strconv.AppendInt(b, ProfileVersion, 10)
	b = append(b, '/')
	b = append(b, o.Key()...)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(m), 10)
	b = append(b, 'x')
	b = strconv.AppendInt(b, int64(k), 10)
	b = append(b, 'x')
	b = strconv.AppendInt(b, int64(n), 10)
	b = append(b, '/')
	b = append(b, t.keySuffix...)
	return string(b)
}

func (t *Tuner) decide(o op.Op, m, k, n int) (*decision, error) {
	key := t.key(o, m, k, n)
	t.mu.Lock()
	if d, ok := t.lru.get(key); ok {
		t.mu.Unlock()
		return d, nil
	}
	cached, onDisk := t.disk[key]
	t.mu.Unlock()

	if onDisk {
		if d, err := t.build(o, cached); err == nil {
			t.remember(key, d, false)
			return d, nil
		}
		// A cache entry naming an unknown algorithm (edited file, older
		// catalog) falls through to a fresh ranking.
	}

	ranked, err := t.RankOp(o, m, k, n)
	if err != nil {
		return nil, err
	}
	d, err := t.pick(o, ranked, m, k, n)
	if err != nil {
		return nil, err
	}
	t.remember(key, d, true)
	return d, nil
}

// remember installs a decision in the LRU and, when persist is set, appends
// it to the disk cache (best-effort). Persistence merges on save: the cache
// file is re-read under the process-wide persistMu and unioned with the
// entries this tuner decided itself (its dirty set — not the startup-loaded
// snapshot, which would resurrect entries removed from the file since), so
// two in-process tuners with different option sets (disjoint key suffixes)
// writing decisions — interleaved or concurrent — never clobber each
// other's freshly persisted plans; last-writer-wins applies per entry, not
// per file. (Across processes the atomic rename still means a racing writer
// can lose entries, never file integrity.)
func (t *Tuner) remember(key string, d *decision, persist bool) {
	t.mu.Lock()
	t.lru.add(key, d)
	t.mu.Unlock()
	if !persist || t.opts.NoDiskCache {
		return
	}
	persistMu.Lock()
	defer persistMu.Unlock()
	t.mu.Lock()
	t.disk[key] = d.plan
	t.dirty[key] = d.plan
	snapshot := make(map[string]Plan, len(t.dirty))
	for k, v := range t.dirty {
		snapshot[k] = v
	}
	t.mu.Unlock()
	merged := loadEntries()
	for k, v := range snapshot {
		merged[k] = v // this tuner's own decisions win for its own keys
	}
	_ = saveEntries(merged)
}

// RankOp enumerates the candidate plans for an (op, shape) — the classical
// baseline plus algorithm × steps × scheduler × strategy, on the tuner's
// leaf backend — and sorts them by predicted time (fastest first),
// workspace-cap survivors only. The shape is the gemm-equivalent product
// triple. A classical baseline is always present, so the result is never
// empty; for the symmetric ops it is the whole result (see classicalPlan).
func (t *Tuner) RankOp(o op.Op, m, k, n int) ([]Plan, error) {
	o = o.PlanOp()
	if m <= 0 || k <= 0 || n <= 0 {
		return nil, fmt.Errorf("tuner: invalid shape %d×%d×%d", m, k, n)
	}
	plans := []Plan{t.classicalPlan(o, m, k, n)}
	// The symmetric ops run classical only (see classicalPlan). Below the
	// recursion cutoff no fast algorithm is worth its additions; guarantee
	// classical rather than trusting the model at sizes the calibration
	// barely covers.
	if o.Symmetric() || maxInt3(m, k, n) < core.MinDim {
		return plans, nil
	}
	for _, name := range t.opts.Algorithms {
		a, err := catalog.GetVerified(name)
		if err != nil {
			continue // unknown or unverifiable entries never panic the tuner
		}
		plans = append(plans, t.algorithmPlans(a, m, k, n)...)
	}

	sort.SliceStable(plans, func(i, j int) bool {
		return plans[i].PredictedSeconds < plans[j].PredictedSeconds
	})
	return plans, nil
}

// classicalPlan is the direct-gemm baseline of (o, shape). For the symmetric
// ops it is gemm.ATA/Syrk, priced as its triangle pass, tagged with the op's
// token, and their only plan: a fast product runs at no less than half the
// result size there, and against the triangle's half flops it never crosses
// over at practical sizes.
func (t *Tuner) classicalPlan(o op.Op, m, k, n int) Plan {
	workers := t.opts.Workers
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

// schedCand pairs a scheduler with the worker deployment the time model
// sees: DFS parallelizes leaves, BFS fans out tasks, HYBRID fans out with
// its balanced two-phase split (§4).
type schedCand struct {
	par core.Parallel
	ex  costmodel.ExecShape
}

func (t *Tuner) schedules() []schedCand {
	w := t.opts.Workers
	if w <= 1 {
		return []schedCand{{core.Sequential, costmodel.ExecShape{LeafWorkers: 1, TaskWorkers: 1}}}
	}
	return []schedCand{
		{core.DFS, costmodel.ExecShape{LeafWorkers: w, TaskWorkers: 1}},
		{core.BFS, costmodel.ExecShape{LeafWorkers: 1, TaskWorkers: w}},
		{core.Hybrid, costmodel.ExecShape{LeafWorkers: 1, TaskWorkers: w, Balanced: true}},
	}
}

// algorithmPlans enumerates the viable (steps, scheduler, strategy) plans of
// one algorithm on one shape, with predicted times and model workspaces.
// Shapes that don't divide the base case are handled the way the executor
// does — the recursion runs on the largest divisible core and the model
// charges the peeling borders as classical gemm work on top. A plan is
// emitted only under a scheduler it runs as. HYBRID: a leaf count R^steps
// that W divides defers no leaf, nor does a fused last level, which never
// calls a leaf gemm — each would run as its BFS twin. BFS: a fused one-step
// multiply gives every product all workers and spawns no task, so it runs
// as its DFS twin.
func (t *Tuner) algorithmPlans(a *algo.Algorithm, m, k, n int) []Plan {
	var out []Plan
	ma := t.prof.Machine
	b := a.Base
	workers := t.opts.Workers
	// The fused engine is a candidate dimension only where the leaf backend
	// supports it; other backends enumerate explicit plans alone.
	fusedDims := []bool{false}
	if gemm.CanFuse(t.be) {
		fusedDims = []bool{false, true}
	}
	for steps := 1; steps <= DefaultMaxSteps; steps++ {
		dM, dK, dN := ipow(b.M, steps), ipow(b.K, steps), ipow(b.N, steps)
		if m < dM || k < dK || n < dN {
			break // deeper recursion no longer fits one base-case block
		}
		cm, ck, cn := m-m%dM, k-k%dK, n-n%dN
		fixup := ma.ClassicalTimeFor(m, k, n, workers) - ma.ClassicalTimeFor(cm, ck, cn, workers)
		if fixup < 0 {
			fixup = 0
		}
		bfsHybrid := ipow(a.Rank(), steps)%workers == 0
		for si, strat := range strategies {
			for _, fused := range fusedDims {
				if fused && steps == 1 && si > 0 {
					// A one-step fused plan has no explicit level for the
					// strategy to shape: every strategy builds the same
					// executor, so only the first is emitted (and probed).
					continue
				}
				model := t.model(a, strat, fused)
				cost, err := model.Evaluate(cm, ck, cn, steps)
				if err != nil {
					continue
				}
				for _, sc := range t.schedules() {
					if sc.par == core.Hybrid && (bfsHybrid || fused) {
						continue
					}
					if sc.par == core.BFS && fused && steps == 1 {
						continue
					}
					est, err := model.PredictTime(cm, ck, cn, steps, ma, sc.ex)
					if err != nil {
						continue
					}
					ws := modelWorkspaceBytes(cost, sc.par, workers, t.be)
					if cap := t.opts.Workspace; cap > 0 && ws > cap {
						continue
					}
					out = append(out, Plan{
						Algorithm:        a.Name,
						Backend:          t.be.Name(),
						Steps:            steps,
						Parallel:         sc.par.String(),
						Strategy:         strat.String(),
						Fused:            fused,
						Workers:          planWorkers(sc.par, workers),
						WorkspaceBytes:   ws,
						PredictedSeconds: est.Seconds + fixup,
					})
				}
			}
		}
	}
	return out
}

// modelWorkspaceBytes converts the cost model's float counts to the byte
// footprint the ranking filters on, matching core's convention of charging
// the backend's packing slabs per (parallel) worker.
func modelWorkspaceBytes(c costmodel.Cost, par core.Parallel, workers int, be gemm.Backend) int64 {
	floats := c.Workspace
	if par == core.BFS || par == core.Hybrid {
		floats = c.WorkspaceBFS
	}
	packWorkers := 1
	if par != core.Sequential {
		packWorkers = workers
	}
	return 8*int64(floats) + 8*int64(packWorkers)*be.PackFloatsPerWorker()
}

func planWorkers(par core.Parallel, workers int) int {
	if par == core.Sequential {
		return 1
	}
	return workers
}

// model returns the cached cost model for one (algorithm, strategy, fused)
// triple.
func (t *Tuner) model(a *algo.Algorithm, strat addchain.Strategy, fused bool) *costmodel.Model {
	key := modelKey{name: a.Name, strat: strat, fused: fused}
	t.modelMu.Lock()
	defer t.modelMu.Unlock()
	if m, ok := t.models[key]; ok {
		return m
	}
	m := costmodel.NewTrustedFused(a, strat, false, fused)
	t.models[key] = m
	return m
}

func ipow(base, exp int) int {
	out := 1
	for i := 0; i < exp; i++ {
		out *= base
	}
	return out
}

func maxInt3(a, b, c int) int {
	if b > a {
		a = b
	}
	if c > a {
		a = c
	}
	return a
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

// parseStrategy inverts addchain.Strategy.String for cache entries.
func parseStrategy(s string) (addchain.Strategy, error) {
	for _, st := range []addchain.Strategy{addchain.Pairwise, addchain.WriteOnce, addchain.Streaming} {
		if st.String() == s {
			return st, nil
		}
	}
	return 0, fmt.Errorf("tuner: unknown strategy %q", s)
}

// build turns a plan into a runnable decision for one plan-space op. Fast
// plans get a trusted executor (the catalog verified the algorithm once
// already); the workspace cap is threaded through so the executor's run-time
// degradation also holds. The plan's backend resolves here — an unknown name
// (edited cache file, a blas plan loaded into a non-blas build) fails and
// falls through to a fresh ranking, like an unknown algorithm or a fast plan
// for a symmetric op.
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
	a, err := catalog.GetVerified(p.Algorithm)
	if err != nil {
		return nil, err
	}
	par, err := parseParallel(p.Parallel)
	if err != nil {
		return nil, err
	}
	strat, err := parseStrategy(p.Strategy)
	if err != nil {
		return nil, err
	}
	exec, err := core.NewTrusted(a, core.Options{
		Resources: core.Resources{Workers: p.Workers, Workspace: t.opts.Workspace},
		Steps:     p.Steps,
		Strategy:  strat,
		CSE:       p.CSE,
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

// pick builds the winner from a ranked candidate list: the first candidate
// whose built executor honors the workspace cap wins the model round, then
// the configured number of probes decides among the leaders empirically. The
// best-predicted classical plan always joins the probed survivors, however
// the model ranked it — it is the reference probe holds every fast plan to.
func (t *Tuner) pick(o op.Op, ranked []Plan, m, k, n int) (*decision, error) {
	o = o.PlanOp()
	topK := t.opts.ProbeTopK
	survivors := make([]*decision, 0, len(ranked))
	haveClassical := false
	for _, p := range ranked {
		if len(survivors) >= topK && topK != NoProbes && !p.IsClassical() {
			continue // the pool is full; only the classical reference is still wanted
		}
		d, err := t.build(o, p)
		if err != nil {
			continue
		}
		if d.exec != nil {
			// Re-check with the executor's exact Table-3 model (the
			// ranking filtered on the cheaper analytic recurrence).
			ws := d.exec.WorkspaceBytes(m, k, n)
			if cap := t.opts.Workspace; cap > 0 && ws > cap {
				continue
			}
			d.plan.WorkspaceBytes = ws
		}
		survivors = append(survivors, d)
		haveClassical = haveClassical || p.IsClassical()
		if topK == NoProbes || (len(survivors) >= topK && haveClassical) {
			break
		}
	}
	if len(survivors) == 0 {
		// Nothing fits the cap: classical always runs.
		return t.build(o, t.classicalPlan(o, m, k, n))
	}
	if topK == NoProbes || len(survivors) == 1 {
		return survivors[0], nil
	}
	return t.probe(survivors, m, k, n)
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

// probeLimit is what one timed probe run is held to: the decision's arena
// pool, and for a fast probe a limit and the flop rate its remaining leaves
// are assumed to run at (leafRateSlack × classical's measured rate).
type probeLimit struct {
	limit  time.Duration // 0: run to completion
	rate   float64       // flops per second
	arenas *workspace.Pool
}

// budget is the core.Budget of one run started at start, with now reading
// the clock: Over(left) holds once now + left/rate is past
// start + limit — the run could not finish inside the limit even with every
// remaining leaf at rate and all its additions free, so it has lost. With
// no limit the budget only supplies the arenas.
func (l probeLimit) budget(start time.Time, now func() time.Time) core.Budget {
	b := core.Budget{Arenas: l.arenas}
	if l.limit <= 0 {
		return b
	}
	deadline := start.Add(l.limit)
	b.Over = func(left int64) bool {
		rest := time.Duration(float64(left) / l.rate * float64(time.Second))
		return now().Add(rest).After(deadline)
	}
	return b
}

// timeDecision is the production timeRun: one run under its budget (see
// probeLimit.budget), so a run that cannot finish inside a positive limit
// stops at the first check that proves it and reports the limit with
// core.ErrStopped.
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

// probe times each surviving multiply decision on deterministic random
// operands of the real shape and returns the fastest — with classical as the reference a
// fast plan has to beat. One short multiplication per candidate: the probes
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
// leafRateSlack × classical's flop rate (flops/T_c) and its additions free;
// it has lost whatever it would have measured, and never wins. While the
// slack holds, the decisions are those of timing every survivor to
// completion; only the losers' time is saved. The confirming pair runs
// without a limit.
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
func (t *Tuner) probe(survivors []*decision, m, k, n int) (*decision, error) {
	rng := rand.New(rand.NewSource(int64(m)*1_000_003 + int64(k)*1_009 + int64(n)))
	req := op.Request{Op: op.Multiply, C: mat.New(m, n), A: mat.New(m, k), B: mat.New(k, n)}
	req.B.FillRandom(rng)
	req.A.FillRandom(rng)
	// Fault C's pages in untimed: the first probe is classical's, and its
	// time sets every fast deadline.
	req.C.Zero()

	arenas := new(workspace.Pool)
	var best, classical *decision
	var firstErr error
	for _, fast := range []bool{false, true} {
		for _, d := range survivors {
			if d.plan.IsClassical() == fast {
				continue
			}
			lim := probeLimit{arenas: arenas}
			if fast && classical != nil {
				tc := classical.plan.MeasuredSeconds
				lim.limit = time.Duration((1 - probeMargin) * tc * float64(time.Second))
				lim.rate = leafRateSlack * 2 * float64(m) * float64(k) * float64(n) / tc
			}
			secs, err := t.timeRun(d, req, lim)
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
		return nil, firstErr
	}
	if classical == nil || best.plan.IsClassical() {
		// No measured reference (its probe failed), or classical won
		// outright.
		return best, nil
	}
	beats := func(fast, ref float64) bool { return fast < ref*(1-probeMargin) }
	if !beats(best.plan.MeasuredSeconds, classical.plan.MeasuredSeconds) {
		return classical, nil
	}
	fast, err := t.timeRun(best, req, probeLimit{arenas: arenas})
	if err != nil {
		return classical, nil
	}
	if ref, err := t.timeRun(classical, req, probeLimit{arenas: arenas}); err == nil && !beats(fast, ref) {
		return classical, nil
	}
	best.plan.MeasuredSeconds = min(best.plan.MeasuredSeconds, fast)
	return best, nil
}
