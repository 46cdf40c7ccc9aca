// Metrics-surface tests: the fixed-bucket histograms, the allocation-free
// hot path (AllocsPerRun-enforced), the Stats snapshot, and the per-lane
// conservation invariant — at quiescence, after Close, and under the
// mixed-shape -race hammer.
package batch

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"fastmm/internal/gemm"
	"fastmm/internal/mat"
	"fastmm/internal/op"
	"fastmm/internal/tuner"
)

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{-time.Second, 0}, // clamped
		{0, 0},
		{500 * time.Nanosecond, 0}, // sub-microsecond
		{time.Microsecond, 1},      // [1µs, 2µs)
		{3 * time.Microsecond, 2},  // [2µs, 4µs)
		{time.Millisecond, 10},
		{time.Hour, histBuckets - 1}, // clamped into the last bucket
	}
	var h hist
	for _, c := range cases {
		d := c.d
		if d < 0 {
			d = 0 // observe clamps; histBucket takes non-negative input
		}
		if got := histBucket(d); got != c.want {
			t.Errorf("histBucket(%v) = %d, want %d", c.d, got, c.want)
		}
		h.observe(c.d)
	}
	snap := h.snapshot()
	if snap.Count != int64(len(cases)) {
		t.Fatalf("Count = %d, want %d", snap.Count, len(cases))
	}
	var sum int64
	for _, c := range snap.Counts {
		sum += c
	}
	if sum != snap.Count {
		t.Fatalf("bucket counts sum to %d, Count is %d", sum, snap.Count)
	}
	bounds := HistogramBounds()
	if len(bounds) != histBuckets {
		t.Fatalf("HistogramBounds has %d entries, want %d", len(bounds), histBuckets)
	}
	if bounds[0] != time.Microsecond || bounds[1] != 2*time.Microsecond {
		t.Fatalf("unexpected leading bounds %v %v", bounds[0], bounds[1])
	}
}

func TestHistogramQuantileMean(t *testing.T) {
	var h hist
	for i := 0; i < 90; i++ {
		h.observe(time.Microsecond) // bucket 1, upper edge 2µs
	}
	for i := 0; i < 10; i++ {
		h.observe(900 * time.Microsecond) // bucket 10, upper edge 1024µs
	}
	snap := h.snapshot()
	if got := snap.Quantile(0.5); got != 2*time.Microsecond {
		t.Fatalf("p50 = %v, want 2µs", got)
	}
	if got := snap.Quantile(0.95); got != 1024*time.Microsecond {
		t.Fatalf("p95 = %v, want 1.024ms", got)
	}
	wantMean := (90*time.Microsecond + 10*900*time.Microsecond) / 100
	if got := snap.Mean(); got != wantMean {
		t.Fatalf("mean = %v, want %v", got, wantMean)
	}
	var empty hist
	if got := empty.snapshot().Quantile(0.99); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
	if got := empty.snapshot().Mean(); got != 0 {
		t.Fatalf("empty mean = %v, want 0", got)
	}
}

// TestHistogramQuantileNearestRank: the q-quantile is the ⌈q·Count⌉-th
// smallest sample's bucket, so the median of three samples in distinct
// buckets is the middle one, and every q up to 1/3 reads the lowest.
func TestHistogramQuantileNearestRank(t *testing.T) {
	var h hist
	for _, d := range []time.Duration{time.Microsecond, 100 * time.Microsecond, 10 * time.Millisecond} {
		h.observe(d)
	}
	snap := h.snapshot()
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{
		{0.1, 2 * time.Microsecond},
		{1.0 / 3, 2 * time.Microsecond},
		{0.5, 128 * time.Microsecond},
		{2.0 / 3, 128 * time.Microsecond},
		{0.9, 16384 * time.Microsecond},
		{1, 16384 * time.Microsecond},
	} {
		if got := snap.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%.3g) of 3 samples = %v, want %v", c.q, got, c.want)
		}
	}
}

// TestMetricsHotPathAllocFree is the acceptance bar for the metrics surface:
// every per-item update — counters, histograms, backend mix, effective
// flops, the admission estimator's EWMA — must run without a single heap
// allocation. Only Stats() (the cold snapshot) may allocate.
func TestMetricsHotPathAllocFree(t *testing.T) {
	m := newMetrics()
	est := newSvcEstimator()
	class := tuner.ClassOf(64, 64, 64)
	est.seed(op.Multiply, class, 0.01) // first touch allocates the cell; steady state must not
	backend := gemm.Default().Name()
	lc := &m.lanes[LaneHigh]
	allocs := testing.AllocsPerRun(200, func() {
		lc.submitted.Add(1)
		lc.queueWait.observe(37 * time.Microsecond)
		lc.service.observe(2 * time.Millisecond)
		lc.done.Add(1)
		m.recordExec(backend, op.Multiply, 64, 64, 64, 2*time.Millisecond)
		m.warmHits.Add(1)
		est.observe(op.Multiply, class, 0.01)
	})
	if allocs != 0 {
		t.Fatalf("metrics hot path allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestRecordExecEffectiveFlops(t *testing.T) {
	m := newMetrics()
	name := gemm.Default().Name()
	m.recordExec(name, op.Multiply, 100, 100, 100, time.Second)
	// Paper Eq. (3): effective flops = 2·m·k·n − m·n.
	if got, want := m.effFlops.Load(), int64(2*100*100*100-100*100); got != want {
		t.Fatalf("effective flops = %d, want %d", got, want)
	}
	if got := m.busyNanos.Load(); got != int64(time.Second) {
		t.Fatalf("busy nanos = %d, want 1s", got)
	}
	if got := m.backends[name].Load(); got != 1 {
		t.Fatalf("backend %q count = %d, want 1", name, got)
	}
	// The "" alias counts onto the default backend, never its own bucket.
	m.recordExec("", op.Multiply, 10, 10, 10, time.Millisecond)
	if got := m.backends[name].Load(); got != 2 {
		t.Fatalf("default-alias execution not folded into %q (count %d)", name, got)
	}
}

// checkLaneInvariants asserts the conservation law on a snapshot:
//
//	submitted == done + expired + rejected + queued + executing  (per lane)
//
// and that the two histograms each saw exactly the done items.
func checkLaneInvariants(t *testing.T, s Stats) {
	t.Helper()
	for _, ls := range s.Lanes {
		if got := ls.Done + ls.Expired + ls.Rejected + ls.Queued + ls.Executing; ls.Submitted != got {
			t.Errorf("lane %v: submitted %d != done %d + expired %d + rejected %d + queued %d + executing %d",
				ls.Lane, ls.Submitted, ls.Done, ls.Expired, ls.Rejected, ls.Queued, ls.Executing)
		}
		if ls.QueueWait.Count != ls.Done {
			t.Errorf("lane %v: queue-wait histogram saw %d items, done is %d",
				ls.Lane, ls.QueueWait.Count, ls.Done)
		}
		if ls.Service.Count != ls.Done {
			t.Errorf("lane %v: service histogram saw %d items, done is %d",
				ls.Lane, ls.Service.Count, ls.Done)
		}
		if ls.Failed > ls.Done {
			t.Errorf("lane %v: failed %d exceeds done %d", ls.Lane, ls.Failed, ls.Done)
		}
	}
}

// TestStatsSnapshotCounts drives one deterministic scenario through every
// per-lane outcome — executed, expired at submit, admission-rejected — and
// checks the snapshot field by field.
func TestStatsSnapshotCounts(t *testing.T) {
	const n = 64
	h := newAdmissionHarness(t, 1) // 1 blocked runner, fake clock
	b, fc := h.b, h.fc

	A, B := randMat(n, n, 1), randMat(n, n, 2)
	// Executed: one High item (runs when the harness cleanup releases).
	if _, err := b.SubmitRequest(mulReq(mat.New(n, n), A, B), SubmitOpts{Lane: LaneHigh}); err != nil {
		t.Fatal(err)
	}
	// Expired at submit: one Low item with a past deadline.
	tkExp, err := b.SubmitRequest(mulReq(mat.New(n, n), A, B), SubmitOpts{
		Lane: LaneLow, Deadline: fc.Now().Add(-time.Minute)})
	if err != nil {
		t.Fatal(err)
	}
	if err := tkExp.Wait(); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("expired ticket err = %v", err)
	}
	// Rejected: saturate the Normal backlog, then submit a doomed deadline.
	h.setEstimate(n, n, n, 3600)
	h.fill(t, LaneNormal, 2, n)
	_, err = b.SubmitRequest(mulReq(mat.New(n, n), A, B), SubmitOpts{
		Lane: LaneNormal, Deadline: fc.Now().Add(time.Second)})
	if !errors.Is(err, ErrAdmissionDenied) {
		t.Fatalf("saturated submit err = %v, want ErrAdmissionDenied", err)
	}

	st := b.Stats()
	// Mid-flight: the backlog is queued, nothing executes (runner blocked).
	if st.Lanes[LaneHigh].Queued != 1 || st.Lanes[LaneNormal].Queued != 2 {
		t.Fatalf("queued = high %d normal %d, want 1 and 2",
			st.Lanes[LaneHigh].Queued, st.Lanes[LaneNormal].Queued)
	}
	if st.QueueDepth != 3 {
		t.Fatalf("QueueDepth = %d, want 3", st.QueueDepth)
	}
	checkLaneInvariants(t, st)

	// Drain and re-check at quiescence.
	h.release()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	st = b.Stats()
	checkLaneInvariants(t, st)
	// High: the one submitted item executed.
	if ls := st.Lanes[LaneHigh]; ls.Submitted != 1 || ls.Done != 1 || ls.Failed != 0 {
		t.Fatalf("High lane stats %+v, want 1 submitted / 1 done", ls)
	}
	// Low: the one submitted item expired.
	if ls := st.Lanes[LaneLow]; ls.Submitted != 1 || ls.Expired != 1 || ls.Done != 0 {
		t.Fatalf("Low lane stats %+v, want 1 submitted / 1 expired", ls)
	}
	// Normal: the harness blocker + 2 fillers executed, 1 rejected.
	if ls := st.Lanes[LaneNormal]; ls.Submitted != 4 || ls.Done != 3 || ls.Rejected != 1 {
		t.Fatalf("Normal lane stats %+v, want 4 submitted / 3 done / 1 rejected", ls)
	}
	if st.QueueDepth != 0 || st.Executing != 0 {
		t.Fatalf("post-Close depth %d executing %d, want 0/0", st.QueueDepth, st.Executing)
	}
	if st.SyncDone != 0 {
		t.Fatalf("sync done %d, want 0 (async-only scenario)", st.SyncDone)
	}
	if st.WarmMisses == 0 {
		t.Fatal("first-touch tunings must count as warm misses")
	}
	if rate := st.WarmHitRate(); rate < 0 || rate > 1 {
		t.Fatalf("warm hit rate %g out of range", rate)
	}
	var backendTotal int64
	for _, c := range st.Backends {
		backendTotal += c
	}
	if want := st.Lanes[LaneNormal].Done + st.Lanes[LaneHigh].Done; backendTotal != want {
		t.Fatalf("backend mix counts %d executions, want %d", backendTotal, want)
	}
}

// TestStatsSyncAndStreamCounters: the synchronous Do path carries no lane
// accounting — it lands in SyncDone and the shared execution metrics only.
func TestStatsSyncAndStreamCounters(t *testing.T) {
	b := newTestBatcher(t, testOptions(1))
	const n = 64
	A, B := randMat(n, n, 1), randMat(n, n, 2)
	C := mat.New(n, n)
	for i := 0; i < 3; i++ {
		if err := b.Do(mulReq(C, A, B)); err != nil {
			t.Fatal(err)
		}
	}
	st := b.Stats()
	if st.SyncDone != 3 {
		t.Fatalf("SyncDone = %d, want 3", st.SyncDone)
	}
	for _, ls := range st.Lanes {
		if ls.Submitted != 0 || ls.Done != 0 {
			t.Fatalf("lane %v counted sync work: %+v", ls.Lane, ls)
		}
	}
	checkLaneInvariants(t, st)
	if st.WarmEntries == 0 {
		t.Fatal("warm pool empty after executions")
	}
}

// TestLaneConservationInvariantHammer is the property test under -race: many
// goroutines hammer mixed shapes across all three lanes — plain items,
// already-expired deadlines, far-future deadlines, plus synchronous Do
// calls — and the conservation law must hold exactly at quiescence (after
// Wait) and after Close. Deadlines are either in the past (resolve at
// submit, deterministically) or an hour out (never expire), so the hammer
// has no wall-clock-sensitive window.
func TestLaneConservationInvariantHammer(t *testing.T) {
	b := newTestBatcher(t, testOptions(4))
	const goroutines = 4
	const perG = 30
	lanes := []Lane{LaneHigh, LaneNormal, LaneLow}
	var attempted [numLanes]int64
	var attemptedMu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			var local [numLanes]int64
			for i := 0; i < perG; i++ {
				n := 48 + 16*rng.Intn(4)
				A, B := randMat(n, n, int64(i)), randMat(n, n, int64(i+7))
				C := mat.New(n, n)
				switch rng.Intn(5) {
				case 0: // synchronous — no lane accounting
					if err := b.Do(mulReq(C, A, B)); err != nil {
						t.Errorf("multiply: %v", err)
					}
				case 1: // already expired at submit
					lane := lanes[rng.Intn(len(lanes))]
					_, err := b.SubmitRequest(mulReq(C, A, B), SubmitOpts{
						Lane: lane, Deadline: time.Now().Add(-time.Hour)})
					if err != nil {
						t.Errorf("expired submit: %v", err)
						continue
					}
					local[lane]++
				case 2: // far-future deadline — admission may reject under backlog
					lane := lanes[rng.Intn(len(lanes))]
					_, err := b.SubmitRequest(mulReq(C, A, B), SubmitOpts{
						Lane: lane, Deadline: time.Now().Add(time.Hour)})
					if err != nil && !errors.Is(err, ErrAdmissionDenied) {
						t.Errorf("deadline submit: %v", err)
						continue
					}
					local[lane]++ // rejected items still count as submitted
				default:
					lane := lanes[rng.Intn(len(lanes))]
					if _, err := b.SubmitRequest(mulReq(C, A, B), SubmitOpts{Lane: lane}); err != nil {
						t.Errorf("submit: %v", err)
						continue
					}
					local[lane]++
				}
			}
			attemptedMu.Lock()
			for l := range local {
				attempted[l] += local[l]
			}
			attemptedMu.Unlock()
		}()
	}
	wg.Wait()
	if err := b.Wait(); err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	checkLaneInvariants(t, st)
	for l, ls := range st.Lanes {
		if ls.Submitted != attempted[l] {
			t.Errorf("lane %v: submitted %d, test attempted %d", ls.Lane, ls.Submitted, attempted[l])
		}
		if ls.Queued != 0 || ls.Executing != 0 {
			t.Errorf("lane %v not quiescent after Wait: %+v", Lane(l), ls)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	st = b.Stats()
	checkLaneInvariants(t, st)
	if st.QueueDepth != 0 || st.Executing != 0 {
		t.Fatalf("post-Close depth %d executing %d", st.QueueDepth, st.Executing)
	}
	// Trace-sample conservation: every claimed record was counted against
	// exactly one op.
	var perOp int64
	for _, v := range st.TraceSamples {
		perOp += v
	}
	if perOp != st.TraceSampled {
		t.Errorf("per-op trace samples %d != TraceSampled %d", perOp, st.TraceSampled)
	}
	if st.TraceLost < 0 || st.TraceSampled < 0 {
		t.Errorf("negative trace counters: sampled=%d lost=%d", st.TraceSampled, st.TraceLost)
	}
}
