package batch

import (
	"errors"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fastmm/internal/gemm"
	"fastmm/internal/op"
	"fastmm/internal/tuner"
)

// ErrAdmissionDenied rejects a deadline'd submission whose deadline is
// already guaranteed to pass before a runner could reach it: the queued
// backlog in its own and higher-priority lanes, valued at the calibrated
// per-shape-class service times, exceeds the time remaining even if every
// runner drained that backlog in parallel. The item is refused at SubmitRequest
// — no Ticket, no queue slot, no callback — so a saturated server sheds
// guaranteed-dead work at the door instead of carrying it to expiry.
var ErrAdmissionDenied = errors.New("batch: admission denied: deadline cannot be met")

// svcAlpha is the EWMA weight of each new service-time observation.
const svcAlpha = 0.2

// svcEstimator tracks one expected service time per (op, shape class):
// seeded from the calibrated cost model (the tuned plan's predicted seconds
// when a class has been tuned, the machine's classical gemm curve before
// that) and then pulled toward reality by an EWMA of observed execution
// times. The op is part of the key because the operations genuinely differ —
// an AᵗA of a class runs at about ½ the flops of its general multiply — and a
// shared estimate would mis-price admission for both. Reads and updates are
// lock-free after a key's first touch.
type svcEstimator struct {
	mu    sync.RWMutex
	byKey map[svcKey]*ewma
}

// svcKey buckets estimates by plan space and shape class, matching the warm
// pool's entryKey minus the width (service time is per problem, not per
// internal split).
type svcKey struct {
	op    op.Op
	class tuner.ShapeClass
}

// ewma holds a float64 in atomic bits so observe can CAS without a lock. It
// doubles as the drift detector's per-(op, class) state: the calibrated
// prediction the live EWMA is compared against, the streak of consecutive
// out-of-band observations, and the class's drift history.
type ewma struct {
	bits atomic.Uint64
	// predicted is the calibrated baseline (float64 bits): the tuned plan's
	// measured probe time when one ran, else its model prediction. Zero
	// until the class is seeded; drift detection is inert until then.
	predicted atomic.Uint64
	// streak counts consecutive out-of-band completions; drifts and
	// lastDrift (unix nanos) record declared drift events.
	streak    atomic.Int32
	drifts    atomic.Int64
	lastDrift atomic.Int64
}

func (e *ewma) load() float64 { return math.Float64frombits(e.bits.Load()) }

// observe folds one observation in: v ← α·x + (1−α)·v, first observation
// taken whole.
func (e *ewma) observe(x float64) {
	if x <= 0 {
		return
	}
	for {
		old := e.bits.Load()
		v := math.Float64frombits(old)
		next := x
		if v > 0 {
			next = svcAlpha*x + (1-svcAlpha)*v
		}
		if e.bits.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

func newSvcEstimator() *svcEstimator {
	return &svcEstimator{byKey: map[svcKey]*ewma{}}
}

// cell returns the key's estimate cell, creating it on first touch (the
// only allocation in the estimator's lifetime per key).
func (s *svcEstimator) cell(o op.Op, class tuner.ShapeClass) *ewma {
	key := svcKey{op: o.PlanOp(), class: class}
	s.mu.RLock()
	e := s.byKey[key]
	s.mu.RUnlock()
	if e != nil {
		return e
	}
	s.mu.Lock()
	if e = s.byKey[key]; e == nil {
		e = &ewma{}
		s.byKey[key] = e
	}
	s.mu.Unlock()
	return e
}

// estimate returns the key's expected service seconds (0 = no estimate).
func (s *svcEstimator) estimate(o op.Op, class tuner.ShapeClass) float64 {
	s.mu.RLock()
	e := s.byKey[svcKey{op: o.PlanOp(), class: class}]
	s.mu.RUnlock()
	if e == nil {
		return 0
	}
	return e.load()
}

// seed installs a model-derived estimate only while the key has no value
// yet — live observations always win over the model. The same value seeds
// the drift baseline (also first-touch-only: a re-ranked plan must not
// silently move the band a streak is being measured against).
func (s *svcEstimator) seed(o op.Op, class tuner.ShapeClass, secs float64) {
	if secs <= 0 {
		return
	}
	c := s.cell(o, class)
	c.bits.CompareAndSwap(0, math.Float64bits(secs))
	c.predicted.CompareAndSwap(0, math.Float64bits(secs))
}

// reseed unconditionally replaces the key's estimate and drift baseline with
// a fresh calibration — the re-probe path, where the whole point is that the
// old values no longer describe the machine. The streak restarts.
func (s *svcEstimator) reseed(o op.Op, class tuner.ShapeClass, secs float64) {
	if secs <= 0 {
		return
	}
	c := s.cell(o, class)
	c.bits.Store(math.Float64bits(secs))
	c.predicted.Store(math.Float64bits(secs))
	c.streak.Store(0)
}

// checkDrift folds one observed service time into the drift state: an
// observation outside the band [pred/(1+driftBand), pred·(1+driftBand)]
// extends the out-of-band streak, an in-band one resets it, and the
// driftK-th consecutive out-of-band observation declares a drift event
// (true), resetting the streak and stamping the history. Unseeded cells
// never drift.
func (e *ewma) checkDrift(secs float64, nowNanos int64) bool {
	pred := math.Float64frombits(e.predicted.Load())
	if pred <= 0 {
		return false
	}
	if secs <= pred*(1+driftBand) && secs >= pred/(1+driftBand) {
		e.streak.Store(0)
		return false
	}
	if e.streak.Add(1) < driftK {
		return false
	}
	e.streak.Store(0)
	e.drifts.Add(1)
	e.lastDrift.Store(nowNanos)
	return true
}

// healthEntries snapshots every key's calibration health (sorted for
// deterministic output) — the payload of tuner.SaveHealth.
func (s *svcEstimator) healthEntries() []tuner.HealthEntry {
	s.mu.RLock()
	out := make([]tuner.HealthEntry, 0, len(s.byKey))
	for key, c := range s.byKey {
		he := tuner.HealthEntry{
			Op:               key.op.String(),
			Class:            key.class,
			PredictedSeconds: math.Float64frombits(c.predicted.Load()),
			EWMASeconds:      c.load(),
			Drifts:           c.drifts.Load(),
		}
		if ld := c.lastDrift.Load(); ld != 0 {
			he.LastDrift = time.Unix(0, ld)
		}
		out = append(out, he)
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Op != out[j].Op {
			return out[i].Op < out[j].Op
		}
		ci, cj := out[i].Class, out[j].Class
		if ci.M != cj.M {
			return ci.M < cj.M
		}
		if ci.K != cj.K {
			return ci.K < cj.K
		}
		return ci.N < cj.N
	})
	return out
}

// observe folds a measured execution time into the key's EWMA.
func (s *svcEstimator) observe(o op.Op, class tuner.ShapeClass, secs float64) {
	if secs <= 0 {
		return
	}
	s.cell(o, class).observe(secs)
}

// estimateFor returns the shape's class and its expected service time in
// nanoseconds, seeding a fresh (op, class) from the calibrated machine's
// classical time of the gemm-equivalent triple (the optimistic floor — fast
// plans only beat it). Every async submission calls this: the estimate
// prices the item into the queue's backlog accounting, whether or not the
// item carries a deadline.
func (b *Batcher) estimateFor(o op.Op, m, k, n int) (tuner.ShapeClass, int64) {
	class := tuner.ClassOf(m, k, n)
	secs := b.est.estimate(o, class)
	if secs <= 0 && b.prof != nil {
		cm, ck, cn := class.Dims()
		if o.Symmetric() {
			// Classical symmetric ops run one triangle of the general
			// multiply (the default backend's lower-triangle pass) plus the
			// mirror; pricing them off the gemm curve would overstate their
			// backlog and mislead both admission and the drift baseline.
			secs = b.prof.Machine.SymmetricTime(cm, ck, gemm.TriangleTile(gemm.Default()), b.opts.Workers)
		} else {
			secs = b.prof.Machine.ClassicalTimeFor(cm, ck, cn, b.opts.Workers)
		}
		b.est.seed(o, class, secs)
	}
	if secs <= 0 {
		return class, 0
	}
	return class, int64(secs * 1e9)
}

// admit decides a deadline'd submission: it computes the earliest the item
// could start — now plus the queued backlog ahead of it (same and higher
// lanes, at estimated service times) drained by every runner in parallel —
// and rejects when even that optimistic bound misses the deadline. The
// optimism is deliberate: admission must only refuse items that are
// *guaranteed* dead (executing items, aging promotions, and model error all
// push the real start later, never earlier), so a mispredicting model
// degrades to admitting items that later expire via the sweeper, never to
// rejecting servable work. Callers hold submitMu (the queue is live).
func (b *Batcher) admit(lane Lane, deadline, now time.Time) error {
	ahead := b.queue.backlogAhead(lane)
	if ahead <= 0 {
		return nil
	}
	earliest := now.Add(time.Duration(ahead / int64(b.opts.Workers)))
	if earliest.After(deadline) {
		return ErrAdmissionDenied
	}
	return nil
}
