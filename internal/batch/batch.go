// Package batch is the batched dispatch layer: it amortizes one tuning
// decision — and one warm executor with its retained workspace arenas — over
// many requests, the serving regime the tuner alone cannot exploit. Where
// fastmm.Auto pays dispatch, workspace warm-up, and intra-multiply
// synchronization per call, a Batcher keys incoming work by shape class
// (tuner.ClassOf's geometric bucketing), resolves each request to its
// class's warm entry in its tuner's cache — the one warm pool, bounded by
// tuner.MaxEntries entries and the Workspace budget — and runs independent
// multiplications concurrently on a worker pool while splitting each one's
// internal parallelism so the total stays inside one Workers budget: a deep
// queue of small problems runs many sequential multiplies side by side
// (near-perfect scaling — no per-call barriers), while a lone large problem
// gets the full-width BFS/DFS treatment it gets today.
//
// Every request is an op.Request, run synchronously by Do or queued by
// SubmitRequest. The queued path is server-grade: work waits on priority
// lanes (High/Normal/Low, strict priority with FIFO within a lane), items
// may carry deadlines (an item that has not started executing by its
// deadline fails fast with ErrDeadlineExceeded instead of occupying a
// runner), and completion callbacks let a server resolve requests without
// ticket bookkeeping. A multiply's internal width is its fair share of the
// Workers budget among the multiplications actually executing — queued-but-
// idle items never dilute it.
//
// A class is tuned once per width, at its representative shape, when a
// request first misses it. The Batcher's one tuner makes, keeps warm and
// persists that decision, the width being an input of it
// (tuner.Tuner.EntryOp), and concurrent misses of one class share it. A
// missing request of exactly the representative shape lends the tuner its
// operands, so the probes build none; if it is an overwriting Multiply and
// classical wins, the classical reference probe has computed it, and the
// batcher accounts it with that run's time instead of running it again.
//
// This is the paper's §4.5 bandwidth-vs-compute lesson applied across calls
// instead of within one: the per-call overheads (operand packing, addition
// synchronization, goroutine fan-out) are fixed costs that only amortize when
// consecutive same-shape multiplications share an executor.
package batch

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"fastmm/internal/op"
	"fastmm/internal/resources"
	"fastmm/internal/trace"
	"fastmm/internal/tuner"
)

// ErrClosed is returned by Do, SubmitRequest and PlanForOp after Close.
var ErrClosed = errors.New("batch: batcher is closed")

// DefaultGrainFLOPs is the flop count that justifies one worker of internal
// parallelism: a multiply is granted at most flops/DefaultGrainFLOPs
// internal workers, so small problems run sequentially and rely on
// inter-multiply concurrency for throughput.
const DefaultGrainFLOPs = 64 << 20

// DefaultAgingWindow bounds lane starvation: a queued item whose wait
// exceeds it is served ahead of higher-priority lanes (oldest first), so a
// sustained High flood delays a Low item by at most the window plus the
// executions already in flight.
const DefaultAgingWindow = time.Second

// queuePerWorker sizes the asynchronous submission queue, shared across all
// priority lanes: 4×Workers items, beyond which SubmitRequest blocks
// (backpressure).
const queuePerWorker = 4

// Resources aliases the shared execution budget (internal/resources) so
// callers can write batch.Options{Resources: batch.Resources{...}} without
// importing the resources package themselves.
type Resources = resources.Resources

// Options configures a Batcher. The zero value is ready to use: GOMAXPROCS
// workers, no workspace budget, and default tuning.
type Options struct {
	// Resources is the shared execution budget (internal/resources). Workers
	// is the total goroutine budget across every multiplication in flight
	// (default GOMAXPROCS): a single large multiply may use all of it,
	// concurrent submissions split it between them, and the budget is
	// honored literally end to end — the semaphore grants tokens per plan
	// width and the gemm layer runs exactly the width it is handed (it no
	// longer silently clamps to GOMAXPROCS), so a Workers above the core
	// count oversubscribes rather than silently shrinking. Workspace, when
	// positive, is the one workspace budget, handed to the tuner: it ranks
	// no fast plan whose WorkspaceBytes exceeds it, and its cache — the
	// warm pool — evicts least-recently-used entries (executor, arenas and
	// all) while the bytes they retain across calls exceed it; the most
	// recently used entry always survives, so a budget below one entry's
	// retained arenas degrades to per-class-switch rebuilding, never to
	// failure.
	resources.Resources
	// Trace configures per-request execution tracing (internal/trace). The
	// zero value traces one request in trace.DefaultSample into a
	// trace.DefaultRing-record ring — the record path is allocation-free and
	// lock-light, cheap enough for production.
	Trace trace.Config
	// Tuning configures the Batcher's one tuner. Its Resources are the
	// Batcher's (values set here are ignored): each entry's width is an
	// input of its decision, and the Workspace budget bounds its cache.
	// ProbeTopK, Algorithms, Profile and NoDiskCache pass through to
	// internal/tuner.
	Tuning tuner.Options

	// clock is the time source for deadlines, admission, aging, and the
	// sweeper; nil means the wall clock. Only the package's tests set it,
	// to make every time-dependent behavior deterministic.
	clock Clock
}

func (o Options) withDefaults() Options {
	o.Resources = o.Resources.Normalized()
	o.Tuning.Resources = o.Resources
	o.Trace = o.Trace.Normalized()
	if o.clock == nil {
		o.clock = wallClock{}
	}
	return o
}

// Key renders the options' identity: option sets with equal keys build
// batchers that behave identically, and the zero value renders like its
// defaults spelled out. The tuning renders through tuner.Options.Key, the
// budget with it. fastmm's shared-batcher map keys on it.
func (o Options) Key() string {
	o = o.withDefaults()
	return fmt.Sprintf("tr%d | %s", o.Trace.Sample, o.Tuning.Key())
}

// entryKey identifies one warm entry: an operation's plan space (op.PlanOp —
// MultiplyAdd shares Multiply's entries) and shape class at one internal
// width. Per-op bucketing means AᵗA traffic and general-multiply traffic of
// the same class each keep their own tuned plan, warm executor, and
// service-time estimate.
type entryKey struct {
	op      op.Op
	class   tuner.ShapeClass
	workers int
}

// warmEntry is one request's resolved entry: its key and the tuner's warm
// entry for it, which the tuner's cache keeps.
type warmEntry struct {
	key entryKey
	te  *tuner.Entry
}

// laneLabels is one entry key's pprof label contexts, one per lane (op,
// lane, class, backend), built for the plan's backend so runner goroutines
// can SetGoroutineLabels without a per-execution allocation —
// pprof.WithLabels allocates, applying a cached context does not.
type laneLabels struct {
	backend string
	fused   bool
	ctx     [numLanes]context.Context
}

// Ticket tracks one asynchronous multiplication.
type Ticket struct {
	done chan struct{}
	err  error
}

// Wait blocks until the multiplication has resolved (run, failed, or expired
// past its deadline) and returns its error.
func (t *Ticket) Wait() error {
	<-t.done
	return t.err
}

// task is one queued submission; it embeds the Ticket so the async path
// costs one struct and one channel per item, not three structs.
type task struct {
	req      op.Request
	lane     Lane
	deadline time.Time
	callback func(error)
	ticket   Ticket
	// submitted is the accept timestamp (batcher clock): the origin of the
	// queue-wait histogram and the aging decision. est is the estimated
	// service nanoseconds the item contributes to its lane's backlog while
	// queued; class keys the service-time estimator feedback.
	submitted time.Time
	est       int64
	class     tuner.ShapeClass
	// rec is the item's trace record when the submission was sampled (nil
	// for the untraced majority); aged reports the dequeue was a lane-aging
	// promotion rather than strict priority.
	rec  *trace.Record
	aged bool
}

// expired reports whether the task's deadline (if any) has passed.
func (t *task) expired(now time.Time) bool {
	return !t.deadline.IsZero() && now.After(t.deadline)
}

// Batcher dispatches multiplications through a pool of warm per-shape-class
// executors. It is safe for concurrent use. Do is synchronous; SubmitRequest
// enqueues work for the batcher's runner pool. Close waits for outstanding
// work (asynchronous and synchronous) and stops the runners.
type Batcher struct {
	opts  Options
	tn    *tuner.Tuner
	clock Clock
	met   *metrics
	est   *svcEstimator

	labelMu sync.Mutex
	labels  map[entryKey]*laneLabels

	sem wsem

	// ring is the trace buffer.
	ring *trace.Ring

	// executing counts multiplications that are actually running (dequeued
	// by a runner, or a synchronous call past its entry resolution) — NOT
	// items sitting idle in the queue. The width policy divides Workers by
	// it: deriving width from enqueue-time counts starved every executing
	// multiply down to a fraction of its fair share whenever a burst sat
	// queued (the queue holds 4×Workers items, so ~1/4).
	executing atomic.Int64

	// outMu/outCond guard the outstanding count and the first error; Wait
	// blocks on the condition, which is safe against concurrent SubmitRequest
	// (unlike a WaitGroup). Synchronous calls register here too, so Close
	// never returns while any multiplication is still executing.
	outMu       sync.Mutex
	outCond     *sync.Cond
	outstanding int
	firstErr    error

	submitMu  sync.Mutex // serializes submission registration vs Close
	queueOnce sync.Once
	queue     *laneQueue
	// closed is guarded by submitMu — deliberately not an atomic: every
	// check must happen under the same lock Close takes to flip it, or a
	// submission could slip past Close's drain (the lifecycle race this
	// design exists to prevent).
	closed    bool
	closeOnce sync.Once
	closeDone chan struct{} // closed when the Close drain has completed
	closeErr  error
}

// New builds a Batcher. Its one tuner — the warm pool — and the machine
// calibration behind every entry are built here (the calibration taken from
// Options.Tuning.Profile when set), so the first construction per process
// may take ~100ms; actual shape classes are tuned lazily on first touch.
func New(opts Options) (*Batcher, error) {
	b := &Batcher{
		opts:      opts.withDefaults(),
		met:       newMetrics(),
		est:       newSvcEstimator(),
		labels:    map[entryKey]*laneLabels{},
		closeDone: make(chan struct{}),
	}
	b.ring = trace.New(b.opts.Trace)
	b.clock = b.opts.clock
	b.outCond = sync.NewCond(&b.outMu)
	b.sem.free = b.opts.Workers
	tn, err := tuner.New(b.opts.Tuning)
	if err != nil {
		return nil, err
	}
	b.tn = tn
	return b, nil
}

// Workers reports the batcher's total worker budget.
func (b *Batcher) Workers() int { return b.opts.Workers }

// Do executes one operation-typed request — C = Alpha·op(A,B) + Beta·C —
// synchronously through the warm entry for the request's (op, shape class),
// tuning the class on first touch. Concurrent callers share the Workers
// budget: each call's internal width shrinks as more multiplications are
// executing. The call registers in the batcher's outstanding accounting, so
// Close (and Wait) never return while it is still running; its error is
// returned here, not folded into Wait's.
func (b *Batcher) Do(req op.Request) error {
	req = req.Normalized()
	if err := req.Validate(); err != nil {
		return fmt.Errorf("batch: %w", err)
	}
	if err := b.beginSync(); err != nil {
		return err
	}
	defer b.doneOutstanding(nil) // sync errors belong to this caller alone
	load := b.executing.Add(1)
	defer b.executing.Add(-1)
	m, k, n := req.Shape()
	rec := b.sample(req.Op, m, k, n, "sync")
	if rec != nil {
		req.Trace = &rec.Spans // before the build: a served run's spans land here
	}
	e, hit, served, err := b.entryFor(req.Op, m, k, n, int(load), &req)
	if err != nil {
		if rec != nil {
			rec.Err = err.Error()
			b.ring.Publish(rec)
		}
		return err
	}
	if rec != nil {
		rec.WarmHit = hit
	}
	err = b.timedRun(e, req, rec, served)
	b.ring.Publish(rec)
	b.met.syncDone.Add(1)
	return err
}

// sample claims a trace record for one request (nil for the untraced
// majority) and stamps the fields every path shares. verdict must be a
// static string. The caller owns publishing the record.
func (b *Batcher) sample(o op.Op, m, k, n int, verdict string) *trace.Record {
	rec := b.ring.Sample()
	if rec == nil {
		return nil
	}
	rec.Op = o.String()
	rec.M, rec.K, rec.N = m, k, n
	rec.Verdict = verdict
	rec.SubmitUnixNanos = b.clock.Now().UnixNano()
	if o.Valid() {
		b.met.traceSamples[o].Add(1)
	}
	return rec
}

// timedRun is run with the shared per-execution metrics and service-time
// feedback folded in: op and backend mix, effective flops and busy time,
// and the (op, class) EWMA estimate (the admission currency). Both
// execution paths — sync and queued — funnel through it. rec, when
// non-nil, receives the resolved plan and the outcome; the execution's
// spans reach it through req.Trace, which the caller pointed at it before
// resolving the entry, and the caller publishes it. served reports that
// the entry's decision already ran the request (see entryFor): it is not
// run again, and is accounted with the time that run took.
func (b *Batcher) timedRun(e warmEntry, req op.Request, rec *trace.Record, served bool) error {
	plan := e.te.Plan()
	if rec != nil {
		cm, ck, cn := e.key.class.Dims()
		rec.ClassM, rec.ClassK, rec.ClassN = cm, ck, cn
		rec.Algorithm = plan.Algorithm
		rec.Steps = plan.Steps
		rec.Scheduler = plan.Parallel
		rec.Backend = plan.Backend
		rec.PlanWorkers = plan.Workers
		rec.PredictedSeconds = plan.PredictedSeconds
		rec.MeasuredSeconds = plan.MeasuredSeconds
	}
	var err error
	var d time.Duration
	if served {
		d = time.Duration(plan.MeasuredSeconds * float64(time.Second))
	} else {
		start := b.clock.Now()
		err = b.run(e, req)
		d = b.clock.Now().Sub(start)
	}
	if rec != nil {
		rec.ServiceNanos = int64(d)
		if err != nil {
			rec.Err = err.Error()
		}
	}
	m, k, n := req.Shape()
	b.met.recordExec(plan.Backend, req.Op, m, k, n, d)
	b.est.observe(e.key.op, e.key.class, d.Seconds())
	return err
}

// beginSync registers a synchronous multiplication in the outstanding
// accounting under the same lock discipline Close uses to flip closed:
// either the call registers before Close's drain starts (and Close waits for
// it), or it observes closed and runs nothing. Checking closed without the
// lock is not enough — a call could pass the check, lose the CPU, and still
// be executing after Close drained Wait and returned.
func (b *Batcher) beginSync() error {
	b.submitMu.Lock()
	defer b.submitMu.Unlock()
	if b.closed {
		return ErrClosed
	}
	b.addOutstanding()
	return nil
}

// SubmitRequest enqueues one operation-typed request with per-item
// scheduling options: a priority lane, an optional deadline (items not yet
// executing when it passes fail fast with ErrDeadlineExceeded, on the Ticket
// and Callback only — Wait does not aggregate expiries), and an optional
// completion callback. Request and lane errors surface immediately and the
// item is never queued; a full queue makes SubmitRequest block
// (backpressure, lanes share one capacity of 4×Workers items). Execution
// errors go to the Ticket, the Callback and, aggregated, Wait. The request's
// operands must stay untouched until the Ticket resolves; a caller that
// wants to reuse A or B sooner submits a copy.
//
// A future deadline is additionally screened by admission control: when the
// queued backlog ahead of the item (at calibrated per-class service-time
// estimates) already guarantees the deadline expires before a runner could
// reach it, SubmitRequest rejects immediately with ErrAdmissionDenied — no
// Ticket, no queue slot, no callback — so saturated servers shed dead work
// at the door instead of carrying it to expiry.
func (b *Batcher) SubmitRequest(req op.Request, opts SubmitOpts) (*Ticket, error) {
	req = req.Normalized()
	if err := req.Validate(); err != nil {
		return nil, fmt.Errorf("batch: %w", err)
	}
	if !opts.Lane.valid() {
		return nil, fmt.Errorf("batch: invalid lane %d", opts.Lane)
	}
	tk := &task{req: req, lane: opts.Lane, deadline: opts.Deadline,
		callback: opts.Callback, ticket: Ticket{done: make(chan struct{})}}
	m, k, n := req.Shape()
	tk.class, tk.est = b.estimateFor(req.Op, m, k, n)
	lc := &b.met.lanes[opts.Lane]
	b.submitMu.Lock()
	if b.closed {
		b.submitMu.Unlock()
		return nil, ErrClosed
	}
	b.startRunners()
	now := b.clock.Now()
	tk.submitted = now
	if rec := b.sample(req.Op, m, k, n, "queued"); rec != nil {
		rec.Lane = opts.Lane.String()
		rec.SubmitUnixNanos = now.UnixNano()
		tk.rec = rec
	}
	if tk.expired(now) {
		// Already past its deadline: resolve without ever touching the
		// queue or a runner. The resolution happens on its own goroutine so
		// the Callback contract holds — it never runs on the submitter,
		// whose locks or submit loop a server callback may depend on.
		lc.submitted.Add(1)
		b.addOutstanding()
		b.submitMu.Unlock()
		go b.finish(tk, ErrDeadlineExceeded)
		return &tk.ticket, nil
	}
	if !opts.Deadline.IsZero() {
		if err := b.admit(opts.Lane, opts.Deadline, now); err != nil {
			lc.submitted.Add(1)
			lc.rejected.Add(1)
			if tk.rec != nil {
				tk.rec.Verdict = "rejected"
				b.ring.Publish(tk.rec)
				tk.rec = nil
			}
			b.submitMu.Unlock()
			return nil, err
		}
	}
	lc.submitted.Add(1)
	b.addOutstanding()
	b.submitMu.Unlock()
	if err := b.queue.push(tk); err != nil {
		// Unreachable in practice: the queue only closes after Close
		// drained the outstanding count this item is registered in. Keep
		// the accounting (conservation counters included) straight
		// regardless.
		lc.queueWait.observe(0)
		lc.service.observe(0)
		b.finish(tk, err)
		return nil, err
	}
	return &tk.ticket, nil
}

// MultiplyAll runs every request on the Normal lane, independent items
// concurrently under the Workers budget, waits for all of them, and returns
// the first error. A request refused at submission does not stop the rest.
func (b *Batcher) MultiplyAll(reqs []op.Request) error {
	tickets := make([]*Ticket, len(reqs))
	var firstErr error
	for i, req := range reqs {
		t, err := b.SubmitRequest(req, SubmitOpts{})
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		tickets[i] = t
	}
	for _, t := range tickets {
		if t == nil {
			continue
		}
		if err := t.Wait(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Wait blocks until every multiplication submitted or started so far —
// asynchronous items and synchronous calls alike — has resolved, and
// returns the first asynchronous execution error since the last Wait
// (individual Tickets and Callbacks report the same errors per item).
// Deadline expiries and synchronous-call errors are not aggregated here:
// the former are expected per-item outcomes, the latter already went to
// their caller.
func (b *Batcher) Wait() error {
	b.outMu.Lock()
	for b.outstanding > 0 {
		b.outCond.Wait()
	}
	err := b.firstErr
	b.firstErr = nil
	b.outMu.Unlock()
	return err
}

// Close waits for outstanding work, stops the runner pool, and marks the
// batcher closed (further Do/SubmitRequest calls fail with ErrClosed). It
// returns Wait's error. Close is idempotent, and every caller — including
// concurrent ones racing the first — blocks until the drain has completed
// and observes the same error, so the lifecycle guarantee holds for each of
// them: once any Close call returns, no multiplication — asynchronous or
// synchronous — is still executing.
func (b *Batcher) Close() error {
	b.closeOnce.Do(func() {
		b.submitMu.Lock()
		b.closed = true
		b.submitMu.Unlock()
		b.closeErr = b.Wait()
		b.submitMu.Lock()
		if b.queue != nil {
			b.queue.close()
		}
		b.submitMu.Unlock()
		close(b.closeDone)
	})
	<-b.closeDone
	return b.closeErr
}

// WarmEntries reports how many warm entries the pool — the tuner's cache —
// currently holds.
func (b *Batcher) WarmEntries() int {
	n, _ := b.tn.Warm()
	return n
}

// WorkspaceRetained reports the bytes of executor workspace the warm pool
// currently retains (the LRU eviction currency; updated after each call).
func (b *Batcher) WorkspaceRetained() int64 {
	_, bytes := b.tn.Warm()
	return bytes
}

// QueueDepth reports how many submitted items are currently queued across
// all lanes (excluding items already executing).
func (b *Batcher) QueueDepth() int {
	b.submitMu.Lock()
	q := b.queue
	b.submitMu.Unlock()
	if q == nil {
		return 0
	}
	return q.depth()
}

// PlanForOp reports the plan the batcher would run an (op, shape) with when
// nothing else is in flight, warming its class entry on first touch; (m,k,n)
// is the op's gemm-equivalent product triple (op.Op.Shape). Like every
// entry-building path it registers in the outstanding accounting, so it
// cannot tune and install retained state after Close returned.
func (b *Batcher) PlanForOp(o op.Op, m, k, n int) (tuner.Plan, error) {
	if m <= 0 || k <= 0 || n <= 0 {
		return tuner.Plan{}, fmt.Errorf("batch: invalid shape %d×%d×%d", m, k, n)
	}
	if !o.Valid() {
		return tuner.Plan{}, fmt.Errorf("batch: invalid op %d", int(o))
	}
	if err := b.beginSync(); err != nil {
		return tuner.Plan{}, err
	}
	defer b.doneOutstanding(nil)
	e, _, _, err := b.entryFor(o, m, k, n, 1, nil)
	if err != nil {
		return tuner.Plan{}, err
	}
	return e.te.Plan(), nil
}

// Traces returns a snapshot of the published trace records, oldest first.
// Safe for concurrent use; the snapshot allocates, the record path it
// observes does not.
func (b *Batcher) Traces() []trace.Record { return b.ring.Snapshot() }

// startRunners spins up the runner pool on first async use (a batcher used
// only synchronously never spawns a goroutine). Callers hold submitMu.
func (b *Batcher) startRunners() {
	b.queueOnce.Do(func() {
		b.queue = newLaneQueue(queuePerWorker*b.opts.Workers, b.clock)
		for i := 0; i < b.opts.Workers; i++ {
			go b.runner(b.queue)
		}
		go b.sweeper(b.queue)
	})
}

// sweeper expires deadline'd items that are starving in the queue. The
// dequeue-time check alone cannot bound how long a starved item lingers:
// under sustained higher-priority traffic a Low-lane item might never be
// dequeued, leaving its Ticket and Callback hanging long past the deadline.
// The sweeper parks until the earliest queued deadline (or a push of a new
// deadline'd item), then removes and resolves everything expired — off the
// queue, without a runner. It costs nothing while no queued item carries a
// deadline, and exits when the queue closes.
func (b *Batcher) sweeper(queue *laneQueue) {
	for {
		expired, next, open := queue.sweepExpired(b.clock.Now())
		for _, tk := range expired {
			// Each expiry resolves on its own goroutine: a blocking
			// completion callback must stall neither the sweep loop (the
			// next starved item's expiry) nor, transitively, Close's drain
			// of the items it still has registered.
			tk := tk
			go b.finish(tk, ErrDeadlineExceeded)
		}
		if !open {
			return
		}
		wait := time.Hour // nothing deadline'd is queued: park until a push
		if !next.IsZero() {
			if wait = next.Sub(b.clock.Now()); wait < 0 {
				wait = 0
			}
		}
		timer := b.clock.NewTimer(wait)
		select {
		case <-queue.deadlineSig:
		case <-timer.C():
		case <-queue.done:
		}
		timer.Stop()
	}
}

func (b *Batcher) runner(queue *laneQueue) {
	for {
		tk, ok := queue.pop()
		if !ok {
			return
		}
		b.execute(tk)
	}
}

// execute runs one dequeued task. The deadline check happens here — after
// the queue wait, before any executor work — so an expired item resolves in
// microseconds instead of occupying the runner for a multiplication nobody
// wants anymore. The executing count (the width policy's denominator) is
// held only around actual execution.
func (b *Batcher) execute(tk *task) {
	start := b.clock.Now()
	if tk.expired(start) {
		// Like every expiry path, resolve on a dedicated goroutine: the
		// Callback contract says deadline expiries never run on a runner,
		// so a blocking callback cannot stall the pool.
		go b.finish(tk, ErrDeadlineExceeded)
		return
	}
	lc := &b.met.lanes[tk.lane]
	wait := start.Sub(tk.submitted)
	lc.queueWait.observe(wait)
	if tk.rec != nil {
		tk.rec.QueueWaitNanos = int64(wait)
		tk.rec.Aged = tk.aged
	}
	lc.executing.Add(1)
	load := int(b.executing.Add(1))
	m, k, n := tk.req.Shape()
	if tk.rec != nil {
		tk.req.Trace = &tk.rec.Spans // before the build, as in Do
	}
	e, hit, served, err := b.entryFor(tk.req.Op, m, k, n, load, &tk.req)
	if err == nil {
		if tk.rec != nil {
			tk.rec.WarmHit = hit
		}
		// Runner goroutines carry the execution's identity as pprof labels
		// (op, lane, class, backend) for the duration of the run, so CPU
		// profiles of a serving process split by what was being computed.
		// Both Set calls apply cached contexts — no allocation.
		pprof.SetGoroutineLabels(b.laneLabels(e, tk.lane))
		err = b.timedRun(e, tk.req, tk.rec, served)
		pprof.SetGoroutineLabels(context.Background())
	}
	b.executing.Add(-1)
	lc.service.observe(b.clock.Now().Sub(start))
	lc.executing.Add(-1)
	b.finish(tk, err)
}

// finish resolves a task everywhere it is observed: the Ticket, the
// completion callback, and the outstanding accounting. Deadline expiries are
// reported on the Ticket and Callback but never folded into Wait's first
// error — expiry is an expected per-item outcome for deadline'd traffic,
// not a batch failure.
func (b *Batcher) finish(tk *task, err error) {
	if tk.rec != nil {
		if errors.Is(err, ErrDeadlineExceeded) {
			tk.rec.Verdict = "expired"
		} else if err != nil && tk.rec.Err == "" {
			tk.rec.Err = err.Error()
		}
		b.ring.Publish(tk.rec)
		tk.rec = nil
	}
	lc := &b.met.lanes[tk.lane]
	if errors.Is(err, ErrDeadlineExceeded) {
		lc.expired.Add(1)
	} else {
		lc.done.Add(1)
		if err != nil {
			lc.failed.Add(1)
		}
	}
	tk.ticket.err = err
	close(tk.ticket.done)
	if tk.callback != nil {
		tk.callback(err)
	}
	waitErr := err
	if errors.Is(err, ErrDeadlineExceeded) {
		waitErr = nil
	}
	b.doneOutstanding(waitErr)
}

func (b *Batcher) addOutstanding() {
	b.outMu.Lock()
	b.outstanding++
	b.outMu.Unlock()
}

func (b *Batcher) doneOutstanding(err error) {
	b.outMu.Lock()
	b.outstanding--
	if err != nil && b.firstErr == nil {
		b.firstErr = err
	}
	if b.outstanding == 0 {
		b.outCond.Broadcast()
	}
	b.outMu.Unlock()
}

// run executes one request through a warm entry under the semaphore,
// holding as many tokens as the plan's width; the entry's run refreshes its
// byte accounting in the tuner's cache. The steady-state path allocates
// nothing beyond the executor's own per-call context.
func (b *Batcher) run(e warmEntry, req op.Request) error {
	tokens := min(max(e.te.Plan().Workers, 1), b.opts.Workers)
	b.sem.acquire(tokens)
	err := e.te.Run(req)
	b.sem.release(tokens)
	return err
}

// widthFor picks a multiply's internal parallelism: the fair share of the
// Workers budget among the load multiplications currently executing, capped
// by the work grain, rounded down to a power of two so classes collapse onto
// few tuned widths. load counts executing multiplies only — items idle in
// the submission queue consume no workers and must not dilute the share.
func (b *Batcher) widthFor(m, k, n, load int) int {
	if load < 1 {
		load = 1
	}
	w := b.opts.Workers / load
	if g := flopsFor(m, k, n) / DefaultGrainFLOPs; g < int64(w) {
		w = int(g)
	}
	if w < 1 {
		return 1
	}
	if w > b.opts.Workers {
		w = b.opts.Workers
	}
	return floorPow2(w)
}

// flopsFor is the classical flop count 2·m·k·n, saturating at MaxInt64: for
// absurd-but-representable shapes the product must read as "enormous", not
// wrap negative (which would starve the multiply to width 1).
func flopsFor(m, k, n int) int64 {
	f := satMul64(int64(m), int64(k))
	f = satMul64(f, int64(n))
	return satMul64(f, 2)
}

// satMul64 multiplies non-negative a and b, saturating at MaxInt64.
func satMul64(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > math.MaxInt64/b {
		return math.MaxInt64
	}
	return a * b
}

// entryFor resolves an (op, shape) at the current load to its class's warm
// entry in the tuner's cache, tuning the class at the entry's width on a
// miss; (m,k,n) is the op's gemm-equivalent triple. hit reports that the
// cache held the entry, or that a concurrent miss of the same key decided
// it: of N concurrent first touches, one counts a miss and the rest hits,
// and a failed decision counts a miss. req, when non-nil, is the caller's
// request: the tuner borrows it when its shape is the class representative
// and this miss decides (tuner.Tuner.EntryOp), and served reports that the
// classical reference probe ran it, so the caller accounts it with the
// entry plan's MeasuredSeconds and does not run it again.
func (b *Batcher) entryFor(o op.Op, m, k, n, load int, req *op.Request) (e warmEntry, hit, served bool, err error) {
	e.key = entryKey{op: o.PlanOp(), class: tuner.ClassOf(m, k, n), workers: b.widthFor(m, k, n, load)}
	cm, ck, cn := e.key.class.Dims()
	e.te, hit, served, err = b.tn.EntryOp(e.key.op, cm, ck, cn, e.key.workers, req)
	if hit {
		b.met.warmHits.Add(1)
	} else {
		b.met.warmMisses.Add(1)
	}
	return e, hit, served, err
}

// laneLabels returns the pprof label context of e's runs on lane l. An
// entry key's contexts are built on its first run, and again when a
// re-decided entry runs on another backend than the one they name. The map
// holds no more sets than the tuner's cache holds entries: once full, it is
// emptied and refills as entries run, so keys the cache evicted do not
// accumulate.
func (b *Batcher) laneLabels(e warmEntry, l Lane) context.Context {
	plan := e.te.Plan()
	b.labelMu.Lock()
	defer b.labelMu.Unlock()
	ls := b.labels[e.key]
	if ls == nil || ls.backend != plan.Backend || ls.fused != plan.Fused {
		if len(b.labels) >= tuner.MaxEntries {
			clear(b.labels)
		}
		ls = &laneLabels{backend: plan.Backend, fused: plan.Fused}
		backend := plan.Backend
		if plan.Fused {
			// Fused plans run a different leaf engine on the same backend; mark
			// them so profiles separate the two hot paths.
			backend += "+fused"
		}
		for lane := Lane(0); lane < numLanes; lane++ {
			ls.ctx[lane] = pprof.WithLabels(context.Background(), pprof.Labels(
				"op", e.key.op.String(), "lane", lane.String(),
				"class", e.key.class.String(), "backend", backend))
		}
		b.labels[e.key] = ls
	}
	return ls.ctx[l]
}

func floorPow2(v int) int {
	p := 1
	for p*2 <= v {
		p *= 2
	}
	return p
}

// wsem is a FIFO weighted semaphore over the Workers budget: a multiply
// acquires as many tokens as its plan's internal width, so the total
// goroutine fan-out across concurrent multiplications respects one budget.
// FIFO granting keeps wide (full-budget) acquisitions from starving behind a
// stream of narrow ones.
type wsem struct {
	mu      sync.Mutex
	free    int
	waiters list.List // of *semWaiter
}

type semWaiter struct {
	n     int
	ready chan struct{}
}

func (s *wsem) acquire(n int) {
	s.mu.Lock()
	if s.waiters.Len() == 0 && s.free >= n {
		s.free -= n
		s.mu.Unlock()
		return
	}
	w := &semWaiter{n: n, ready: make(chan struct{})}
	s.waiters.PushBack(w)
	s.mu.Unlock()
	<-w.ready
}

func (s *wsem) release(n int) {
	s.mu.Lock()
	s.free += n
	for {
		front := s.waiters.Front()
		if front == nil {
			break
		}
		w := front.Value.(*semWaiter)
		if w.n > s.free {
			break
		}
		s.free -= w.n
		s.waiters.Remove(front)
		close(w.ready)
	}
	s.mu.Unlock()
}
