//fastmm:clocked — trace stores durations handed to it and never reads the
// clock itself; the directive is a tripwire against that changing.

// Package trace is the per-request execution-trace layer of the batched
// dispatcher: where the metrics surface answers "how is the batcher doing in
// aggregate", a trace record answers "why was THIS request slow" — which
// admission verdict it got, how long it waited behind which lane (and
// whether lane aging promoted it), which tuned plan the warm pool resolved
// (algorithm, steps, scheduler, backend, predicted vs measured time, warm
// hit or tuning miss), how the recursion scheduled itself, and which leaf
// gemm calls the time actually went to.
//
// The design budget is the batcher's: the record path must not allocate and
// must not take a blocking lock. Records live in a fixed ring of slots, each
// guarded by its own mutex claimed with TryLock — a writer that loses the
// race for a slot drops its sample (counted) instead of waiting, and a
// snapshot reader skips slots that are mid-flight instead of blocking the
// writer. Sampling is a single atomic tick, so at the default 1-in-N rate
// the untraced majority of requests pay one atomic add.
//
// The package imports only the standard library so every layer of the stack
// (gemm leaves, the recursive core, the tuner, the batcher) can thread a
// span sink through without an import cycle.
package trace

import (
	"encoding/json"
	"sort"
	"sync"
	"sync/atomic"
)

// DefaultRing is the ring capacity (records).
const DefaultRing = 128

// DefaultSample is the default sampling rate: one traced request in every
// DefaultSample submissions.
const DefaultSample = 64

// MaxSpans bounds the spans one record can hold; a deep recursion records
// its first MaxSpans spans and counts the rest as dropped.
const MaxSpans = 32

// Config configures a Ring (batch.Options.Trace). The zero value means
// tracing at the default rate into a DefaultRing-record ring.
type Config struct {
	// Sample traces one request in every Sample submissions (default
	// DefaultSample; 1 traces every request).
	Sample int
}

// Normalized resolves the config's defaults — two configs behave identically
// iff their normalized forms are equal.
func (c Config) Normalized() Config {
	if c.Sample <= 0 {
		c.Sample = DefaultSample
	}
	return c
}

// Span kinds. Static strings, so recording a span never allocates.
const (
	// KindSched is the per-call scheduling decision: the traversal mode
	// (sequential/DFS/BFS/hybrid) the executor ran, which is the one
	// core.Executor.RunsAs resolves for the call and may differ from the
	// one its options request, and at what width.
	KindSched = "sched"
	// KindStep is one recursion level: the sub-shape entering a fast step
	// and the workspace arena mark it ran at.
	KindStep = "step"
	// KindLeaf is one base-case gemm call: backend, dims, duration.
	KindLeaf = "leaf"
	// KindFusedLeaf is one fused base-case call (gemm.DispatchFused): the
	// S/T/M temporaries of the last recursion level folded into the packing
	// and scatter-add epilogue. Same payload as KindLeaf.
	KindFusedLeaf = "fused"
	// KindFixup is one dynamic-peeling fix-up gemm (§3.5): a border of a
	// recursion level's subproblem run as a classical product. KindLeaf's
	// payload plus the level.
	KindFixup = "fixup"
)

// Span is one timed or structural event inside a request's execution. The
// string fields must be static (enum names, backend names); writing a span
// copies string headers, never their bytes.
type Span struct {
	Kind    string `json:"kind"`
	Sched   string `json:"sched,omitempty"`   // KindSched: the traversal mode's name
	Backend string `json:"backend,omitempty"` // KindLeaf: the leaf kernel's name
	Level   int32  `json:"level,omitempty"`   // recursion level (KindStep/KindFixup)
	M       int32  `json:"m,omitempty"`
	K       int32  `json:"k,omitempty"`
	N       int32  `json:"n,omitempty"`
	Workers int32  `json:"workers,omitempty"` // KindSched: granted internal width
	Mark    int64  `json:"mark,omitempty"`    // KindStep: workspace arena mark (bytes)
	Nanos   int64  `json:"nanos,omitempty"`   // KindLeaf: call duration
}

// Spans is a fixed-capacity concurrent span sink. Writers claim indexes with
// one atomic add, so concurrent leaf goroutines (BFS fan-out) record safely;
// spans past MaxSpans are counted, not stored. The zero value is ready; a
// nil *Spans swallows every Add, so callers thread the sink unconditionally
// and untraced requests pay one nil check.
//
// Spans holds no mutexes or sync/atomic-typed fields — records containing it
// are copied wholesale by ring snapshots, and the counter is only mutated
// through the atomic function forms below.
type Spans struct {
	n int32 // claimed count; may exceed MaxSpans (the excess was dropped)
	s [MaxSpans]Span
}

// Add records one span, dropping (but counting) it when the buffer is full.
// It sits inside every traced multiply's leaf loop: one atomic add and a
// slot store, never an allocation.
//
//fastmm:zeroalloc
func (b *Spans) Add(sp Span) {
	if b == nil {
		return
	}
	i := atomic.AddInt32(&b.n, 1) - 1
	if int(i) < len(b.s) {
		b.s[i] = sp
	}
}

// Len reports how many spans are stored (≤ MaxSpans).
func (b *Spans) Len() int {
	n := int(atomic.LoadInt32(&b.n))
	if n > MaxSpans {
		return MaxSpans
	}
	return n
}

// Dropped reports how many spans did not fit.
func (b *Spans) Dropped() int {
	if n := int(atomic.LoadInt32(&b.n)); n > MaxSpans {
		return n - MaxSpans
	}
	return 0
}

// Slice returns the stored spans (a view into the buffer; valid while the
// owner — a snapshot copy, normally — is).
func (b *Spans) Slice() []Span { return b.s[:b.Len()] }

// MarshalJSON renders the buffer as {"dropped": d, "spans": [...]} so the
// fixed-capacity representation never leaks empty tail slots into exports.
func (b Spans) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Dropped int    `json:"dropped,omitempty"`
		Spans   []Span `json:"spans"`
	}{Dropped: b.Dropped(), Spans: b.Slice()})
}

// Record is one request's trace: the submission decision, queue wait, plan
// resolution, execution outcome, and the execution's spans. A Record is
// filled in place inside its ring slot between Sample and Publish; after
// Publish it is immutable until the slot is reclaimed.
type Record struct {
	// Seq is the publish order (1-based, monotonic per ring): snapshots sort
	// by it, so the view reads oldest-to-newest.
	Seq uint64 `json:"seq"`
	// Op is the operation name (op.Op.String) and M/K/N the request's
	// gemm-equivalent shape.
	Op string `json:"op"`
	M  int    `json:"m"`
	K  int    `json:"k"`
	N  int    `json:"n"`
	// Verdict is the submission outcome: "queued" (accepted on a lane),
	// "sync" (synchronous call), "rejected" (admission denied), or
	// "expired" (deadline passed before execution — at submit or in the
	// queue).
	Verdict string `json:"verdict"`
	Lane    string `json:"lane,omitempty"`
	// SubmitUnixNanos is the accept timestamp on the batcher's clock.
	SubmitUnixNanos int64 `json:"submit_unix_nanos"`
	// QueueWaitNanos is submit → execution start; Aged reports the item was
	// scheduled by a lane-aging promotion rather than strict priority.
	QueueWaitNanos int64 `json:"queue_wait_nanos,omitempty"`
	Aged           bool  `json:"aged,omitempty"`
	// Plan resolution: the shape class the request bucketed into, whether
	// the warm pool already held the entry, and the tuned plan's choices.
	ClassM           int     `json:"class_m,omitempty"`
	ClassK           int     `json:"class_k,omitempty"`
	ClassN           int     `json:"class_n,omitempty"`
	WarmHit          bool    `json:"warm_hit"`
	Algorithm        string  `json:"algorithm,omitempty"`
	Steps            int     `json:"steps,omitempty"`
	Scheduler        string  `json:"scheduler,omitempty"`
	Backend          string  `json:"backend,omitempty"`
	PlanWorkers      int     `json:"plan_workers,omitempty"`
	PredictedSeconds float64 `json:"predicted_seconds,omitempty"`
	MeasuredSeconds  float64 `json:"measured_seconds,omitempty"`
	// ServiceNanos is the execution duration; Err the execution error, if
	// any.
	ServiceNanos int64  `json:"service_nanos,omitempty"`
	Err          string `json:"error,omitempty"`
	// Spans are the execution's scheduler/step/leaf events.
	Spans Spans `json:"spans"`

	// slot is the ring slot the record occupies (set by Sample, used by
	// Publish). Unexported: it never serializes and survives snapshot
	// copies harmlessly.
	slot int32
}

// Ring is a fixed-size concurrent trace buffer. Writers claim a slot
// (Sample), fill the record in place, and release it (Publish); readers
// (Snapshot) copy published records without blocking writers.
type Ring struct {
	sample uint64 // 1-in-N rate, ≥1
	tick   atomic.Uint64
	pub    atomic.Uint64
	next   atomic.Uint64
	taken  atomic.Int64 // records claimed (sampled and slot won)
	lost   atomic.Int64 // sampled but dropped to slot contention
	slots  []slot
}

// slot is one ring cell. The mutex is held for the record's whole
// Sample→Publish flight — claimed with TryLock (never blocking a writer) and
// unlocked by Publish, possibly from a different goroutine, which Go's
// sync.Mutex permits.
type slot struct {
	mu  sync.Mutex
	rec Record
}

// New builds a DefaultRing-record ring for the config.
func New(cfg Config) *Ring {
	return newRing(DefaultRing, cfg.Normalized().Sample)
}

// newRing builds a ring of the given capacity and 1-in-sample rate.
func newRing(capacity, sample int) *Ring {
	r := &Ring{sample: uint64(sample), slots: make([]slot, capacity)}
	for i := range r.slots {
		r.slots[i].rec.slot = int32(i)
	}
	return r
}

// Sample decides whether this request is traced and, if so, claims a ring
// slot and returns its record, reset and ready to fill; the caller must
// eventually Publish it. Returns nil when the request is not sampled or the
// slot is contended (sample dropped, counted in Lost). Never blocks, never
// allocates.
//
//fastmm:zeroalloc
func (r *Ring) Sample() *Record {
	if t := r.tick.Add(1); r.sample > 1 && t%r.sample != 1 {
		return nil
	}
	s := &r.slots[r.next.Add(1)%uint64(len(r.slots))]
	if !s.mu.TryLock() {
		r.lost.Add(1)
		return nil
	}
	r.taken.Add(1)
	s.rec = Record{slot: s.rec.slot}
	return &s.rec
}

// Publish stamps the record's sequence number and releases its slot, making
// it visible to Snapshot. rec must have come from Sample; a nil rec is a
// no-op (the unsampled path).
//
//fastmm:zeroalloc
func (r *Ring) Publish(rec *Record) {
	if rec == nil {
		return
	}
	rec.Seq = r.pub.Add(1)
	r.slots[rec.slot].mu.Unlock()
}

// Snapshot copies every published record, oldest first. In-flight slots
// (claimed, not yet published) are skipped — the reader never blocks a
// writer. Safe for concurrent use; allocates (it is the cold path).
func (r *Ring) Snapshot() []Record {
	out := make([]Record, 0, len(r.slots))
	for i := range r.slots {
		s := &r.slots[i]
		if !s.mu.TryLock() {
			continue
		}
		if s.rec.Seq != 0 {
			out = append(out, s.rec)
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Sampled reports how many records have been claimed over the ring's
// lifetime; Lost how many sampling decisions were dropped to slot
// contention (a full ring of in-flight records).
func (r *Ring) Sampled() int64 {
	return r.taken.Load()
}

// Lost reports dropped samples; see Sampled.
func (r *Ring) Lost() int64 {
	return r.lost.Load()
}
