package batch

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"

	"fastmm/internal/gemm"
	"fastmm/internal/op"
)

// The metrics layer is the observability half of the serving-hardening
// story: every decision the batcher makes per item (lane scheduling,
// deadline expiry, admission, warm-entry reuse, backend choice) increments
// a preallocated atomic counter or a fixed-bucket histogram cell — never an
// allocation, never a lock on the hot path — and Batcher.Stats() assembles
// a consistent-enough snapshot on demand. The per-item cost is a handful of
// atomic adds, cheap enough to leave on unconditionally.

// NumLanes is the number of priority lanes (the length of Stats.Lanes).
const NumLanes = int(numLanes)

// histBuckets is the fixed bucket count of every latency histogram:
// power-of-two microsecond buckets, so bucket i holds durations in
// [2^(i-1)µs, 2^i µs) — sub-microsecond in bucket 0, everything beyond
// ~35 minutes in the last.
const histBuckets = 32

// hist is a lock-free fixed-bucket latency histogram. observe is the
// hot-path half (two atomic adds, no allocation); snapshot the cold half.
type hist struct {
	counts [histBuckets]atomic.Int64
	sum    atomic.Int64 // total observed nanoseconds
}

// histBucket maps a duration to its bucket: bits.Len of the microsecond
// count, clamped into range.
//
//fastmm:zeroalloc
func histBucket(d time.Duration) int {
	us := uint64(d / time.Microsecond)
	if us == 0 {
		return 0
	}
	i := bits.Len64(us)
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// observe is on every executed item's completion path: two atomic adds,
// no allocation.
//
//fastmm:zeroalloc
func (h *hist) observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[histBucket(d)].Add(1)
	h.sum.Add(int64(d))
}

func (h *hist) snapshot() Histogram {
	out := Histogram{Counts: make([]int64, histBuckets)}
	for i := range h.counts {
		c := h.counts[i].Load()
		out.Counts[i] = c
		out.Count += c
	}
	out.Sum = time.Duration(h.sum.Load())
	return out
}

// Histogram is a snapshot of one latency distribution: Counts[i] items fell
// in [HistogramBounds()[i-1], HistogramBounds()[i]).
type Histogram struct {
	// Counts has one cell per bucket; see HistogramBounds for the edges.
	Counts []int64
	// Count is the total number of observations (the sum over Counts).
	Count int64
	// Sum is the total of all observed durations.
	Sum time.Duration
}

// HistogramBounds returns the upper bound of each histogram bucket. The
// last bucket is unbounded; its entry is the largest representable duration.
func HistogramBounds() []time.Duration {
	b := make([]time.Duration, histBuckets)
	for i := 0; i < histBuckets-1; i++ {
		b[i] = time.Duration(uint64(1)<<uint(i)) * time.Microsecond
	}
	b[histBuckets-1] = time.Duration(1<<63 - 1)
	return b
}

// Quantile returns an upper bound for the q-quantile (0 < q ≤ 1) of the
// distribution: the upper edge of the bucket holding the nearest-rank
// sample, the ⌈q·Count⌉-th smallest. Zero when the histogram is empty.
func (h Histogram) Quantile(q float64) time.Duration {
	if h.Count == 0 || q <= 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.Count)))
	bounds := HistogramBounds()
	var cum int64
	for i, c := range h.Counts {
		cum += c
		if cum >= rank {
			return bounds[i]
		}
	}
	return bounds[len(bounds)-1]
}

// Mean returns the average observed duration (zero when empty).
func (h Histogram) Mean() time.Duration {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / time.Duration(h.Count)
}

// laneCounters is one lane's slice of the metrics: the conservation
// counters (every submitted item lands in exactly one of done, expired, or
// rejected once it is neither queued nor executing) and the two latency
// histograms. done counts every item that executed — including ones whose
// multiplication returned an error (the failed sub-count) — so the
// histogram counts sum to it exactly.
type laneCounters struct {
	submitted atomic.Int64
	done      atomic.Int64
	failed    atomic.Int64 // subset of done: executed, returned an error
	expired   atomic.Int64
	rejected  atomic.Int64
	executing atomic.Int64
	queueWait hist // submit → execution start
	service   hist // execution start → done
}

// metrics is the batcher's preallocated counter block.
type metrics struct {
	lanes      [numLanes]laneCounters
	syncDone   atomic.Int64 // synchronous Do executions
	warmHits   atomic.Int64
	warmMisses atomic.Int64
	effFlops   atomic.Int64 // paper Eq. (3) effective flops, accumulated
	busyNanos  atomic.Int64 // execution time accumulated across all paths
	// backends maps a plan's backend name to its execution counter. Built
	// once at New from the registry (plus the "" alias for the default), so
	// hot-path lookups are read-only and allocation-free.
	backends map[string]*atomic.Int64
	// ops counts executions per operation, indexed by op.Op — a fixed
	// array, so the hot path stays allocation- and lock-free.
	ops [op.NumOps]atomic.Int64
	// traceSamples counts claimed trace records per operation (same
	// indexing); their sum equals the ring's Sampled count.
	traceSamples [op.NumOps]atomic.Int64
}

func newMetrics() *metrics {
	m := &metrics{backends: map[string]*atomic.Int64{}}
	for _, name := range gemm.Names() {
		m.backends[name] = &atomic.Int64{}
	}
	if def, ok := m.backends[gemm.Default().Name()]; ok {
		m.backends[""] = def // plans with no explicit backend run the default
	}
	return m
}

// recordExec accumulates the shared per-execution metrics: the op and
// backend mix, the effective-flop throughput numerator/denominator, and
// nothing else — the lane histograms belong to the async path alone. The
// (mdim,kdim,ndim) triple is the op's gemm-equivalent shape, so effective
// flops stay the paper's classical-equivalent currency for every op (an AᵗA
// that beats the symmetric flop bound shows a rate above the gemm curve,
// exactly like a fast multiply does).
//
//fastmm:zeroalloc
func (m *metrics) recordExec(backend string, o op.Op, mdim, kdim, ndim int, d time.Duration) {
	if c := m.backends[backend]; c != nil {
		c.Add(1)
	}
	if o.Valid() {
		m.ops[o].Add(1)
	}
	// Effective flops, Eq. (3): 2·m·k·n − m·n, saturating like the width
	// policy's product so absurd shapes stay representable.
	f := flopsFor(mdim, kdim, ndim) - satMul64(int64(mdim), int64(ndim))
	if f > 0 {
		m.effFlops.Add(f)
	}
	if d > 0 {
		m.busyNanos.Add(int64(d))
	}
}

// LaneStats is one lane's snapshot. The conservation invariant holds at
// quiescence (and permanently after Close):
//
//	Submitted == Done + Expired + Rejected + Queued + Executing
//
// and QueueWait.Count == Service.Count == Done.
type LaneStats struct {
	Lane      Lane
	Queued    int64 // items currently sitting in this lane's queue
	Submitted int64 // accepted by SubmitRequest (including later-expired/rejected)
	Done      int64 // executed (Failed of them returned an error)
	Failed    int64
	Expired   int64 // resolved with ErrDeadlineExceeded, never executed
	Rejected  int64 // refused at submit with ErrAdmissionDenied
	Executing int64
	QueueWait Histogram // submit → execution start, executed items only
	Service   Histogram // execution start → completion
}

// Stats is a point-in-time snapshot of a Batcher's metrics. Counters are
// read individually (atomics, not one lock), so cross-counter relations can
// be transiently off by in-flight items; at quiescence they are exact.
// Assembling the snapshot allocates — the per-item update path does not.
type Stats struct {
	// Lanes indexes by Lane (LaneNormal, LaneHigh, LaneLow).
	Lanes [NumLanes]LaneStats
	// QueueDepth is the total queued across lanes; Executing the number of
	// multiplications currently running (queued and synchronous alike).
	QueueDepth int
	Executing  int64
	// SyncDone counts executions of the synchronous Do path, which carries
	// no lane accounting.
	SyncDone int64
	// Warm-entry pool (the tuner's cache): current size and retained bytes,
	// plus the cumulative hit/miss split of entry resolutions (a miss tunes
	// a class).
	WarmEntries       int
	WorkspaceRetained int64
	WarmHits          int64
	WarmMisses        int64
	// Backends counts executions per leaf-kernel backend.
	Backends map[string]int64
	// Ops counts executions per operation (op.Op.String names: "multiply",
	// "ata", "syrk", "multiply-add"), all paths combined.
	Ops map[string]int64
	// EffectiveGFLOPS is the paper's Eq. (3) rate over the batcher's
	// lifetime: accumulated effective flops divided by accumulated
	// execution (busy) time — aggregate throughput while multiplying.
	EffectiveGFLOPS float64
	// BusySeconds is the accumulated execution time behind that rate.
	BusySeconds float64
	// TraceSampled / TraceLost are the trace ring's lifetime claim and
	// contention-drop counts; TraceSamples splits the claims per operation
	// (op.Op.String names). Sum(TraceSamples) == TraceSampled.
	TraceSampled int64
	TraceLost    int64
	TraceSamples map[string]int64
}

// WarmHitRate is the fraction of entry resolutions served by a warm entry
// (zero when nothing has been resolved yet).
func (s Stats) WarmHitRate() float64 {
	total := s.WarmHits + s.WarmMisses
	if total == 0 {
		return 0
	}
	return float64(s.WarmHits) / float64(total)
}

// Stats assembles a snapshot of the batcher's metrics: per-lane queue
// depths, conservation counters and latency histograms, warm-pool state,
// backend mix, and the effective-GFLOPS rate. Safe for concurrent use; the
// snapshot itself allocates (the hot-path updates it reads never do).
func (b *Batcher) Stats() Stats {
	var s Stats
	var depths [numLanes]int
	b.submitMu.Lock()
	q := b.queue
	b.submitMu.Unlock()
	if q != nil {
		depths = q.laneDepths()
	}
	for l := Lane(0); l < numLanes; l++ {
		lc := &b.met.lanes[l]
		s.Lanes[l] = LaneStats{
			Lane:      l,
			Queued:    int64(depths[l]),
			Submitted: lc.submitted.Load(),
			Done:      lc.done.Load(),
			Failed:    lc.failed.Load(),
			Expired:   lc.expired.Load(),
			Rejected:  lc.rejected.Load(),
			Executing: lc.executing.Load(),
			QueueWait: lc.queueWait.snapshot(),
			Service:   lc.service.snapshot(),
		}
		s.QueueDepth += depths[l]
	}
	s.Executing = b.executing.Load()
	s.SyncDone = b.met.syncDone.Load()
	s.WarmHits = b.met.warmHits.Load()
	s.WarmMisses = b.met.warmMisses.Load()
	s.WarmEntries, s.WorkspaceRetained = b.tn.Warm()
	s.Backends = map[string]int64{}
	for name, c := range b.met.backends {
		if name == "" { // alias of the default backend's counter
			continue
		}
		if v := c.Load(); v > 0 {
			s.Backends[name] = v
		}
	}
	s.Ops = map[string]int64{}
	for i := range b.met.ops {
		if v := b.met.ops[i].Load(); v > 0 {
			s.Ops[op.Op(i).String()] = v
		}
	}
	s.TraceSampled = b.ring.Sampled()
	s.TraceLost = b.ring.Lost()
	s.TraceSamples = map[string]int64{}
	for i := range b.met.traceSamples {
		if v := b.met.traceSamples[i].Load(); v > 0 {
			s.TraceSamples[op.Op(i).String()] = v
		}
	}
	if busy := b.met.busyNanos.Load(); busy > 0 {
		s.BusySeconds = float64(busy) / 1e9
		s.EffectiveGFLOPS = float64(b.met.effFlops.Load()) / float64(busy)
	}
	return s
}
