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
//  1. enumerate candidate plans — every catalog algorithm × steps ×
//     scheduler × addition strategy, plus the classical gemm baseline;
//  2. prune and rank them with the analytic cost recurrences of
//     internal/costmodel, turned into predicted seconds by a one-time
//     machine calibration (measured gemm GFLOPS at a few block sizes and
//     the measured STREAM-add bandwidth);
//  3. optionally refine the top-K survivors with short empirical probes —
//     the best-predicted classical plan always among them, and a fast plan
//     chosen only when it beats that measured classical time by a margin,
//     twice (see probe);
//  4. persist the winner in an on-disk tuning cache (JSON under
//     os.UserCacheDir, overridable via FASTMM_TUNE_CACHE) fronted by an
//     in-memory LRU, so repeated shapes dispatch in O(1).
//
// fastmm.Auto and fastmm.NewAutoExecutor are the public surface;
// cmd/fmmtune pre-warms, inspects, and clears the caches.
package tuner

import (
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
)

const (
	// DefaultProbeTopK is how many model-ranked survivors get empirical
	// probes when Options.ProbeTopK is zero.
	DefaultProbeTopK = 4
	// NoProbes disables empirical probing: decisions come from the model
	// ranking (and the cache) alone.
	NoProbes = -1
	// DefaultMinDim mirrors core.Options.MinDim: shapes whose largest
	// dimension is below it go straight to classical gemm (§3.4's cutoff).
	DefaultMinDim = 128
	// DefaultMaxSteps bounds the recursion depths enumerated; the paper
	// never profits from more than three steps at practical sizes.
	DefaultMaxSteps = 3

	lruSize = 128
)

// ClassicalAlgorithm is the Plan.Algorithm value for the gemm baseline.
const ClassicalAlgorithm = "classical"

// Resources is the shared resource budget (see internal/resources); it is
// embedded in Options so Workers/Workspace/Backends spell the same way — and
// hash into cache keys the same way — across every layer.
type Resources = resources.Resources

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
	// must remain possible); Backends restricts the leaf-kernel backends
	// enumerated as a candidate dimension (default: every registered gemm
	// backend) — each candidate is ranked once per backend against that
	// backend's calibrated gemm curve, and the classical baseline exists per
	// backend too, so the tuner picks the leaf kernel the same way it picks
	// everything else. Unknown backend names fail New.
	Resources
	// MinDim is the recursion cutoff (default 128): shapes with
	// max(m,k,n) < MinDim dispatch to classical gemm without ranking.
	MinDim int
	// MaxSteps bounds the recursion depths considered (default 3).
	MaxSteps int
	// ProbeTopK is how many top-ranked candidates to time empirically
	// before committing (0 → DefaultProbeTopK, NoProbes → model only).
	ProbeTopK int
	// ProbeTrials is the timing trials per probe (default 1; the probe
	// reports the fastest).
	ProbeTrials int
	// ProbeBudget, when positive, bounds the wall-clock time spent probing
	// one tuning decision: once the budget is exhausted no further survivor
	// is timed, and the winner is the best measured so far (or the model's
	// top pick when the budget ran out before the first probe); the two runs
	// that confirm a fast plan against classical are not cut short. The zero
	// value keeps the purely count-based ProbeTopK policy.
	ProbeBudget time.Duration
	// Algorithms restricts the candidate catalog entries. The default is
	// the catalog minus the classical decompositions (the direct gemm
	// baseline already covers them) and minus the Numeric and APA entries:
	// their product is off by the entry's ApproxTol, an accuracy loss a
	// caller takes on by naming the entry here, never by default.
	Algorithms []string
	// Strategies restricts the addition strategies considered (default
	// write-once and streaming — §3.2's two winners).
	Strategies []addchain.Strategy
	// CSE applies common-subexpression elimination to candidate plans.
	CSE bool
	// Profile supplies a calibration instead of loading or measuring one
	// (tests and reproducible benchmarks).
	Profile *Profile
	// NoDiskCache keeps the tuner purely in-memory: nothing is read from
	// or written to the cache directory.
	NoDiskCache bool
}

func (o Options) withDefaults() Options {
	o.Resources = o.Resources.NormalizedBackends()
	if o.MinDim <= 0 {
		o.MinDim = DefaultMinDim
	}
	if o.MaxSteps <= 0 {
		o.MaxSteps = DefaultMaxSteps
	}
	if o.ProbeTopK == 0 {
		o.ProbeTopK = DefaultProbeTopK
	}
	if o.ProbeTrials <= 0 {
		o.ProbeTrials = 1
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
	if len(o.Strategies) == 0 {
		o.Strategies = []addchain.Strategy{addchain.WriteOnce, addchain.Streaming}
	}
	return o
}

// Normalized returns the options with all defaults resolved — the form in
// which two option sets behave identically iff they are equal. fastmm's
// shared-dispatcher map keys on it so spelled-out defaults and the zero
// value land on the same tuner.
func (o Options) Normalized() Options { return o.withDefaults() }

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
	op   op.Op // the plan-space op (MultiplyAdd requests ride a Multiply decision)
	plan Plan
	be   gemm.Backend   // the plan's leaf backend, resolved at build time
	exec *core.Executor // nil for classical
	// failMul, when non-nil, makes multiply fail unconditionally — the
	// seam the probe-resilience regression test injects a runtime backend
	// failure through. Never set outside tests.
	failMul error
}

func (d *decision) multiply(C, A, B *mat.Dense) error {
	return d.run(op.Request{Op: op.Multiply, C: C, A: A, B: B})
}

// run executes one request — C = Alpha·op(A,B) + Beta·C — with the decision's
// plan. The overwrite paths (Beta == 0) are the hot, allocation-conscious
// ones; accumulating into a symmetric result allocates one temporary.
func (d *decision) run(r op.Request) error {
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
	switch r.Op {
	case op.Multiply, op.MultiplyAdd:
		if r.Beta == 0 {
			if err := d.exec.MultiplyTrace(r.C, r.A, r.B, r.Trace); err != nil {
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
		return d.exec.MultiplyAdd(r.C, r.A, r.B, r.Alpha)
	case op.ATA, op.Syrk:
		sym := d.exec.MultiplyATA
		if r.Op == op.Syrk {
			sym = d.exec.MultiplySyrk
		}
		if r.Beta == 0 {
			if err := sym(r.C, r.A); err != nil {
				return err
			}
			if r.Alpha != 1 {
				mat.Scale(r.C, r.Alpha, r.C)
			}
			return nil
		}
		// Accumulating a symmetric product: compute into a fresh temporary,
		// then one axpy. Allocates — acceptable for this rare path; exact
		// symmetry of the update is preserved (the temporary is exactly
		// symmetric and axpy is elementwise).
		T := mat.New(r.C.Rows(), r.C.Cols())
		if err := sym(T, r.A); err != nil {
			return err
		}
		if r.Beta != 1 {
			mat.Scale(r.C, r.Beta, r.C)
		}
		mat.Axpy(r.C, r.Alpha, T)
		return nil
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
	keySuffix string // options part of the cache key, precomputed in New

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
	// probe request. It is timeDecision everywhere but in the invariant
	// tests, which script the measured times through it.
	timeRun func(d *decision, req op.Request) (float64, error)
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
	cse   bool
	fused bool
}

// New builds a tuner. Calibration resolution order: Options.Profile, the
// persisted profile, a fresh quick calibration (persisted best-effort).
func New(opts Options) (*Tuner, error) {
	opts = opts.withDefaults()
	for _, name := range opts.Backends {
		if _, err := gemm.Get(name); err != nil {
			return nil, fmt.Errorf("tuner: %w", err)
		}
	}
	t := &Tuner{
		opts:   opts,
		lru:    newLRU(lruSize),
		disk:   map[string]Plan{},
		dirty:  map[string]Plan{},
		models: map[modelKey]*costmodel.Model{},
	}
	t.timeRun = t.timeDecision
	switch {
	case opts.Profile != nil:
		if !opts.Profile.Valid() {
			return nil, fmt.Errorf("tuner: supplied calibration profile is invalid")
		}
		t.prof = opts.Profile
	case opts.NoDiskCache:
		t.prof = Calibrate(opts.Workers, true)
	default:
		// A persisted profile calibrated at fewer workers than requested
		// cannot predict this tuner's parallel candidates (GemmRate clamps
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
	t.keySuffix = t.makeKeySuffix()
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
// per plan-space op: ATA and Syrk get their own cached plans (ranked at the
// symmetric recursion's reduced cost), while MultiplyAdd rides Multiply's.
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

// PlanFor returns the tuned multiply plan for a shape, tuning on first touch.
func (t *Tuner) PlanFor(m, k, n int) (Plan, error) { return t.PlanForOp(op.Multiply, m, k, n) }

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

// Warm pre-tunes a shape (probes included) so later Multiply calls dispatch
// from the cache. cmd/fmmtune uses it to pre-warm the disk cache.
func (t *Tuner) Warm(m, k, n int) (Plan, error) { return t.PlanFor(m, k, n) }

// Entry is one warm tuning decision: the chosen plan bound to its runnable
// trusted executor (nil executor for the classical baseline). Holding an
// Entry pins the executor and its retained workspace arenas independently of
// the tuner's internal LRU, which is exactly what a batched dispatcher wants:
// resolve once per shape class, then multiply through the entry with no
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

// Multiply computes C = A·B with the entry's plan. Safe for concurrent use.
func (e *Entry) Multiply(C, A, B *mat.Dense) error { return e.d.multiply(C, A, B) }

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

// Forget drops a multiply shape's decision from the tuner's in-memory
// cache; see ForgetOp.
func (t *Tuner) Forget(m, k, n int) { t.ForgetOp(op.Multiply, m, k, n) }

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

// makeKeySuffix encodes every option that changes a tuning answer. The
// resource budget renders through resources.Resources.Key — the same
// fragment fastmm's shared-dispatcher and shared-batcher maps embed — and
// the candidate set (algorithms × strategies) enters as a hash so
// differently restricted tuners never share entries; ProfileVersion (in
// key) retires cached plans when the model changes.
func (t *Tuner) makeKeySuffix() string {
	h := fnv.New64a()
	for _, name := range t.opts.Algorithms {
		h.Write([]byte(name))
		h.Write([]byte{0})
	}
	for _, s := range t.opts.Strategies {
		fmt.Fprintf(h, "%d,", int(s))
	}
	// ProbeBudget enters only when set, so default-policy tuners keep the
	// cache keys (and persisted entries) of earlier versions.
	budget := ""
	if t.opts.ProbeBudget > 0 {
		budget = fmt.Sprintf("/pb%d", t.opts.ProbeBudget)
	}
	return fmt.Sprintf("%s/min%d/s%d/k%d/t%d/cse%t/c%016x/p%s%s",
		t.opts.Resources.Key(),
		t.opts.MinDim, t.opts.MaxSteps, t.opts.ProbeTopK, t.opts.ProbeTrials,
		t.opts.CSE, h.Sum64(), t.prof.Fingerprint(), budget)
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

// Rank enumerates the candidate multiply plans for a shape; see RankOp.
func (t *Tuner) Rank(m, k, n int) ([]Plan, error) { return t.RankOp(op.Multiply, m, k, n) }

// RankOp enumerates the candidate plans for an (op, shape) — every leaf
// backend × (classical baseline + algorithm × steps × scheduler × strategy)
// — and sorts them by predicted time (fastest first), workspace-cap
// survivors only. The shape is the gemm-equivalent product triple; for the
// symmetric ops each plan is priced as the op runs it: the classical
// baseline as one lower-triangle pass (≈ ½ the flops) plus the mirror, fast
// plans as the symmetric recursion (fast off-diagonal products, classical
// diagonal leaves) plus the transpose and mirrors it pays. A classical
// baseline is always present, so the result is never empty.
func (t *Tuner) RankOp(o op.Op, m, k, n int) ([]Plan, error) {
	o = o.PlanOp()
	if m <= 0 || k <= 0 || n <= 0 {
		return nil, fmt.Errorf("tuner: invalid shape %d×%d×%d", m, k, n)
	}
	ma := t.prof.Machine
	var plans []Plan
	for _, backend := range t.opts.Backends {
		be, err := gemm.Get(backend)
		if err != nil {
			continue // validated in New; a racing re-Register never panics
		}
		plans = append(plans, t.classicalPlan(o, m, k, n, be))

		// Below the recursion cutoff no fast algorithm is worth its
		// additions; guarantee classical rather than trusting the model at
		// sizes the calibration barely covers.
		if maxInt3(m, k, n) < t.opts.MinDim {
			continue
		}
		for _, name := range t.opts.Algorithms {
			a, err := catalog.GetVerified(name)
			if err != nil {
				continue // unknown or unverifiable entries never panic the tuner
			}
			plans = append(plans, t.algorithmPlans(o, a, m, k, n, ma, be)...)
		}
	}

	if o.Symmetric() {
		// Both kinds of plan were priced as the op: the classical one as
		// gemm.ATA/Syrk's triangle pass, fast ones level by level inside
		// algorithmPlans (the symmetric recursion runs the candidate at
		// halved shapes, where fast rankings differ from the full-size one).
		for i := range plans {
			plans[i].Op = o.Key()
		}
	}

	sort.SliceStable(plans, func(i, j int) bool {
		return plans[i].PredictedSeconds < plans[j].PredictedSeconds
	})
	return plans, nil
}

// classicalPlan is the direct-gemm baseline of (o, shape) on one backend;
// for the symmetric ops that is gemm.ATA/Syrk, priced as its triangle pass.
func (t *Tuner) classicalPlan(o op.Op, m, k, n int, be gemm.Backend) Plan {
	workers := t.opts.Workers
	slab := 8 * be.PackFloatsPerWorker()
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
	secs := t.prof.Machine.ClassicalTimeFor(be.Name(), m, k, n, workers)
	if o.Symmetric() {
		secs = t.prof.Machine.SymmetricTime(be.Name(), m, k, triangleTile(be), workers)
	}
	return Plan{
		Algorithm:        ClassicalAlgorithm,
		Backend:          be.Name(),
		Parallel:         parallel,
		Workers:          workers,
		WorkspaceBytes:   int64(workers) * slab,
		PredictedSeconds: secs,
	}
}

// triangleTile is the micro-tile width to which gemm.ATA/Syrk's
// lower-triangle pass on be rounds the diagonal — 0 for a backend without
// the pass (see costmodel's SymmetricTime).
func triangleTile(be gemm.Backend) int {
	if t, ok := be.(interface{ Tile() (mr, nr int) }); ok {
		_, nr := t.Tile()
		return nr
	}
	return 0
}

// symPredictSeconds prices one fast candidate for the symmetric recursion
// T(p) = 2T(p/2) + M(p/2): walk the recursion tree the core executor will
// actually run (split while the block stays ≥ 2·MinDim), price every
// off-diagonal multiply with the candidate's own time model AT ITS OWN
// (halved) shape, and price the diagonal leaf blocks as the leaf backend's
// classical Syrk — the triangle pass core's symLeaf runs — plus the
// transpose and mirror sweeps the walk pays. A flat ×2/3 of the full-size
// estimate — the obvious shortcut — preserves the general-multiply
// ranking, but fast algorithms keep different fractions of their advantage
// as the shape halves (fewer recursion steps fit, peeling fractions grow),
// so the shortcut mispicks; probing only the top few of a mis-ranked list
// never sees the real winner.
// The recursion depth per sub-multiply is clamped to what the executor's
// MinDim cutoff will actually take at that shape; 0 steps means the
// sub-multiply runs classical.
func (t *Tuner) symPredictSeconds(a *algo.Algorithm, model *costmodel.Model, ma costmodel.Machine, ex costmodel.ExecShape, be gemm.Backend, maxSteps, p, q, w int) float64 {
	backend := be.Name()
	b := a.Base
	minDim := t.opts.MinDim
	total := 0.0
	cnt := 1.0
	s := p
	for s >= 2*minDim && s >= 2 {
		h := s / 2
		mm, kk, nn := s-h, q, h
		st := maxSteps
		for st > 0 {
			dM, dK, dN := ipow(b.M, st), ipow(b.K, st), ipow(b.N, st)
			if dM > 0 && dK > 0 && dN > 0 && mm/dM >= minDim && kk/dK >= minDim && nn/dN >= minDim {
				break
			}
			st--
		}
		sub := ma.ClassicalTimeFor(backend, mm, kk, nn, w)
		if st > 0 {
			dM, dK, dN := ipow(b.M, st), ipow(b.K, st), ipow(b.N, st)
			cm, ck, cn := mm-mm%dM, kk-kk%dK, nn-nn%dN
			fix := sub - ma.ClassicalTimeFor(backend, cm, ck, cn, w)
			if fix < 0 {
				fix = 0
			}
			if est, err := model.PredictTime(cm, ck, cn, st, ma, ex); err == nil {
				sub = est.Seconds + fix
			}
		}
		total += cnt * sub
		cnt *= 2
		s = s - h // the larger child; odd splits round the estimate up
	}
	// Diagonal leaves: cnt blocks, each one classical Syrk.
	total += cnt * ma.SymmetricTime(backend, s, q, triangleTile(be), w)
	return total + ma.StructuredOverheadSeconds(p, q, p, t.opts.Workers)
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
// one algorithm on one shape for one leaf backend, with predicted times and
// model workspaces. Shapes that don't divide the base case are handled the
// way the executor does — the recursion runs on the largest divisible core
// and the model charges the peeling borders as classical gemm work (on the
// same backend) on top.
func (t *Tuner) algorithmPlans(o op.Op, a *algo.Algorithm, m, k, n int, ma costmodel.Machine, be gemm.Backend) []Plan {
	var out []Plan
	b := a.Base
	workers := t.opts.Workers
	backend := be.Name()
	// The fused engine is a candidate dimension only where the leaf backend
	// supports it; other backends enumerate explicit plans alone.
	fusedDims := []bool{false}
	if gemm.CanFuse(be) {
		fusedDims = []bool{false, true}
	}
	if o.Symmetric() {
		// A candidate that cannot take even one fast step on the largest
		// off-diagonal multiply (⌈p/2⌉ × q × ⌊p/2⌋) degenerates to a
		// classical symmetric walk — the classical baseline already covers
		// that behavior, and a flood of identically-priced degenerates would
		// crowd the real fast walks out of the probe pool.
		h := m / 2
		if (m-h)/b.M < t.opts.MinDim || k/b.K < t.opts.MinDim || h/b.N < t.opts.MinDim {
			return nil
		}
	}
	for steps := 1; steps <= t.opts.MaxSteps; steps++ {
		dM, dK, dN := ipow(b.M, steps), ipow(b.K, steps), ipow(b.N, steps)
		if m < dM || k < dK || n < dN {
			break // deeper recursion no longer fits one base-case block
		}
		if o.Symmetric() && steps > 1 {
			// The MinDim cutoff clamps the recursion depth of every
			// sub-multiply; once the largest one clamps below `steps` this
			// plan executes identically to the shallower one already
			// emitted, and duplicates would crowd the probe pool.
			h := m / 2
			if (m-h)/ipow(b.M, steps) < t.opts.MinDim || k/ipow(b.K, steps) < t.opts.MinDim || h/ipow(b.N, steps) < t.opts.MinDim {
				break
			}
		}
		cm, ck, cn := m-m%dM, k-k%dK, n-n%dN
		fixup := ma.ClassicalTimeFor(backend, m, k, n, workers) - ma.ClassicalTimeFor(backend, cm, ck, cn, workers)
		if fixup < 0 {
			fixup = 0
		}
		for _, strat := range t.opts.Strategies {
			for _, fused := range fusedDims {
				model := t.model(a, strat, fused)
				cost, err := model.Evaluate(cm, ck, cn, steps)
				if err != nil {
					continue
				}
				for _, sc := range t.schedules() {
					ex := sc.ex
					ex.Backend = backend
					est, err := model.PredictTime(cm, ck, cn, steps, ma, ex)
					if err != nil {
						continue
					}
					fix := fixup
					if o.Symmetric() {
						est.Seconds = t.symPredictSeconds(a, model, ma, ex, be, steps, m, k, planWorkers(sc.par, workers))
						fix = 0 // peeling priced per level inside the walk
					}
					ws := modelWorkspaceBytes(cost, sc.par, workers, be)
					if cap := t.opts.Workspace; cap > 0 && ws > cap {
						continue
					}
					out = append(out, Plan{
						Algorithm:        a.Name,
						Backend:          backend,
						Steps:            steps,
						Parallel:         sc.par.String(),
						Strategy:         strat.String(),
						CSE:              t.opts.CSE,
						Fused:            fused,
						Workers:          planWorkers(sc.par, workers),
						WorkspaceBytes:   ws,
						PredictedSeconds: est.Seconds + fix,
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
	key := modelKey{name: a.Name, strat: strat, cse: t.opts.CSE, fused: fused}
	t.modelMu.Lock()
	defer t.modelMu.Unlock()
	if m, ok := t.models[key]; ok {
		return m
	}
	m := costmodel.NewTrustedFused(a, strat, t.opts.CSE, fused)
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
// falls through to a fresh ranking, like an unknown algorithm.
func (t *Tuner) build(o op.Op, p Plan) (*decision, error) {
	o = o.PlanOp()
	be, err := gemm.Resolve(p.Backend)
	if err != nil {
		return nil, err
	}
	if p.IsClassical() {
		return &decision{op: o, plan: p, be: be}, nil
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
		MinDim:    t.opts.MinDim,
		Strategy:  strat,
		CSE:       p.CSE,
		Fused:     p.Fused,
		Parallel:  par,
		Backend:   p.Backend,
	})
	if err != nil {
		return nil, err
	}
	return &decision{op: o, plan: p, be: be, exec: exec}, nil
}

// execWorkspace is the executor's exact footprint prediction for one (op,
// gemm-equivalent shape): the Table-3 model for multiplies, its structured
// counterpart for the symmetric recursion (triple convention of PlanForOp:
// the ATA operand is k×m, the Syrk operand m×k).
func execWorkspace(exec *core.Executor, o op.Op, m, k, n int) int64 {
	switch o {
	case op.ATA:
		return exec.WorkspaceBytesATA(k, m)
	case op.Syrk:
		return exec.WorkspaceBytesSyrk(m, k)
	default:
		return exec.WorkspaceBytes(m, k, n)
	}
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
	if o.Symmetric() && topK != NoProbes && topK < 2*DefaultProbeTopK {
		// The symmetric walk is priced by the general-multiply model at
		// halved shapes, where its discrimination is weakest — the ranked
		// leaders sit within a few percent of each other while their
		// measured walks differ by 2× (probes are cached per (op, shape),
		// so the deeper pool is a one-time cost).
		topK = 2 * DefaultProbeTopK
	}
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
		if cap := t.opts.Workspace; cap > 0 && d.exec != nil {
			// Re-check with the executor's exact Table-3 model (the
			// ranking filtered on the cheaper analytic recurrence).
			ws := execWorkspace(d.exec, o, m, k, n)
			if ws > cap {
				continue
			}
			d.plan.WorkspaceBytes = ws
		} else if d.exec != nil {
			d.plan.WorkspaceBytes = execWorkspace(d.exec, o, m, k, n)
		}
		survivors = append(survivors, d)
		haveClassical = haveClassical || p.IsClassical()
		if topK == NoProbes || (len(survivors) >= topK && haveClassical) {
			break
		}
	}
	if len(survivors) == 0 {
		// Nothing fits the cap: classical on the default backend always runs.
		p := t.classicalPlan(o, m, k, n, gemm.Default())
		if o.Symmetric() {
			p.Op = o.Key()
		}
		return t.build(o, p)
	}
	if topK == NoProbes || len(survivors) == 1 {
		return survivors[0], nil
	}
	return t.probe(o, survivors, m, k, n)
}

// timeDecision is the production timeRun: the fastest of ProbeTrials runs.
func (t *Tuner) timeDecision(d *decision, req op.Request) (float64, error) {
	var err error
	secs := bestTime(t.opts.ProbeTrials, func() {
		if e := d.run(req); e != nil && err == nil {
			err = e
		}
	})
	return secs, err
}

// probe times each surviving decision on deterministic random operands of
// the real shape and returns the fastest — with classical as the reference a
// fast plan has to beat. One short multiplication per candidate: the probes
// exist to catch what the model misranks, and their cost is amortized by the
// disk cache. The fastest survivor wins outright when it is classical; a
// fast plan wins only if it is more than probeMargin faster than the fastest
// classical survivor, and is so again on one more timing of the two, taken
// back to back so drift hits both. Anything else returns that classical
// plan: the tuner may fail to find a speedup, it must not pick a slowdown.
//
// A positive ProbeBudget additionally stops the sweep once the wall-clock
// budget is spent; with no probe completed the model's top pick
// (survivors[0]) wins by ranking.
//
// A survivor whose probe multiply fails at run time — a backend that built
// fine but misbehaves on this machine, e.g. a blas plan over a broken
// library — is skipped and its error recorded, never fatal (earlier code
// called this unreachable and panicked the process). The winner comes from
// the remaining survivors; only when every survivor failed does the first
// error surface to the caller.
func (t *Tuner) probe(o op.Op, survivors []*decision, m, k, n int) (*decision, error) {
	var deadline time.Time
	if t.opts.ProbeBudget > 0 {
		deadline = time.Now().Add(t.opts.ProbeBudget)
	}
	rng := rand.New(rand.NewSource(int64(m)*1_000_003 + int64(k)*1_009 + int64(n) + int64(o)*7919))
	// Operands follow the op's triple convention: the general multiply probes
	// m×k · k×n; ATA probes a k×m operand (C = AᵗA is m×m), Syrk an m×k one.
	req := op.Request{Op: o, C: mat.New(m, n)}
	switch o {
	case op.ATA:
		req.A = mat.New(k, m)
	case op.Syrk:
		req.A = mat.New(m, k)
	default:
		req.A, req.B = mat.New(m, k), mat.New(k, n)
		req.B.FillRandom(rng)
	}
	req.A.FillRandom(rng)

	var best, classical *decision
	var firstErr error
	failed := make([]bool, len(survivors))
	for i, d := range survivors {
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			break
		}
		secs, err := t.timeRun(d, req)
		if err != nil {
			failed[i] = true
			if firstErr == nil {
				firstErr = fmt.Errorf("tuner: probing %s: %w", d.plan, err)
			}
			continue
		}
		d.plan.MeasuredSeconds = secs
		if best == nil || secs < best.plan.MeasuredSeconds {
			best = d
		}
		if d.plan.IsClassical() && (classical == nil || secs < classical.plan.MeasuredSeconds) {
			classical = d
		}
	}
	if best == nil {
		// No successful probe: fall back to the model ranking among survivors
		// that did not fail (unprobed because the budget ran out first).
		for i, d := range survivors {
			if !failed[i] {
				return d, nil
			}
		}
		return nil, firstErr
	}
	if classical == nil || best.plan.IsClassical() {
		// No measured reference (its probe failed or the budget ran out
		// first), or classical won outright.
		return best, nil
	}
	beats := func(fast, ref float64) bool { return fast < ref*(1-probeMargin) }
	if !beats(best.plan.MeasuredSeconds, classical.plan.MeasuredSeconds) {
		return classical, nil
	}
	fast, err := t.timeRun(best, req)
	if err != nil {
		return classical, nil
	}
	if ref, err := t.timeRun(classical, req); err == nil && !beats(fast, ref) {
		return classical, nil
	}
	best.plan.MeasuredSeconds = min(best.plan.MeasuredSeconds, fast)
	return best, nil
}
