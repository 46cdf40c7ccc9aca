// Table-driven admission-control tests: SubmitRequest must reject — with
// ErrAdmissionDenied, before the item touches the queue, a runner, the
// semaphore, or the warm-entry pool — exactly those deadline'd items whose
// queued backlog already guarantees expiry, and admit everything else
// (admission is deliberately optimistic: a miscalibrated model degrades to
// admitting items that later expire, never to rejecting servable work).
// Everything runs on the fake clock.
package batch

import (
	"errors"
	"math"
	"testing"
	"time"

	"fastmm/internal/mat"
	"fastmm/internal/op"
	"fastmm/internal/tuner"
)

// admissionHarness is one isolated batcher whose runners are all blocked, so
// queued fillers stay queued and backlogs are exact. release (idempotent,
// also run in t.Cleanup) unblocks the runner and lets the backlog drain.
type admissionHarness struct {
	b       *Batcher
	fc      *fakeClock
	release func()
}

// The queue holds 4×workers items.
func newAdmissionHarness(t *testing.T, workers int) *admissionHarness {
	t.Helper()
	fc := newFakeClock()
	b := newClockedBatcher(t, testOptions(workers), fc)
	release := blockRunners(t, b, workers)
	return &admissionHarness{b: b, fc: fc, release: release}
}

// setEstimate pins the service-time estimate of the test shape class,
// overriding whatever the cost model seeded — backlogs become exact
// multiples of secs.
func (h *admissionHarness) setEstimate(m, k, n int, secs float64) {
	h.b.est.cell(op.Multiply, tuner.ClassOf(m, k, n)).bits.Store(math.Float64bits(secs))
}

// fill queues count no-deadline items on the lane (the backlog).
func (h *admissionHarness) fill(t *testing.T, lane Lane, count, n int) {
	t.Helper()
	A, B := randMat(n, n, 21), randMat(n, n, 22)
	for i := 0; i < count; i++ {
		if _, err := h.b.SubmitRequest(mulReq(mat.New(n, n), A, B), SubmitOpts{Lane: lane}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAdmissionTable(t *testing.T) {
	const n = 64
	const hugeSecs = 3600.0 // each queued filler "costs" an hour
	cases := []struct {
		name     string
		estSecs  float64 // estimate for the n-class before fillers queue
		fillLane Lane
		fillN    int
		lane     Lane
		deadline time.Duration // offset from now at submit time
		wantErr  error         // nil = admitted
	}{
		{
			name:     "empty queue admits",
			estSecs:  hugeSecs,
			fillN:    0,
			lane:     LaneHigh,
			deadline: time.Millisecond,
		},
		{
			name:     "saturated lane rejects a doomed deadline",
			estSecs:  hugeSecs,
			fillLane: LaneNormal,
			fillN:    2,
			lane:     LaneNormal,
			deadline: time.Second, // backlog ahead ≈ 2h ≫ 1s
			wantErr:  ErrAdmissionDenied,
		},
		{
			name:     "deadline beyond the backlog is admitted",
			estSecs:  hugeSecs,
			fillLane: LaneNormal,
			fillN:    2,
			lane:     LaneNormal,
			deadline: 3 * time.Hour,
		},
		{
			name:     "saturated High lane dooms Low submissions",
			estSecs:  hugeSecs,
			fillLane: LaneHigh,
			fillN:    2,
			lane:     LaneLow,
			deadline: time.Second,
			wantErr:  ErrAdmissionDenied,
		},
		{
			name:     "lower-lane backlog does not count against High",
			estSecs:  hugeSecs,
			fillLane: LaneLow,
			fillN:    2,
			lane:     LaneHigh,
			deadline: time.Second, // the Low backlog is behind a High item
		},
		{
			name:     "miscalibrated (tiny) model admits optimistically",
			estSecs:  1e-9,
			fillLane: LaneNormal,
			fillN:    10,
			lane:     LaneNormal,
			deadline: time.Millisecond,
		},
		{
			name:     "no deadline is never screened",
			estSecs:  hugeSecs,
			fillLane: LaneNormal,
			fillN:    4,
			lane:     LaneNormal,
			deadline: 0,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			h := newAdmissionHarness(t, 4) // room for 10 fillers and the probe item
			h.setEstimate(n, n, n, tc.estSecs)
			h.fill(t, tc.fillLane, tc.fillN, n)

			depthBefore := h.b.QueueDepth()
			warmBefore := h.b.WarmEntries()
			h.b.outMu.Lock()
			outBefore := h.b.outstanding
			h.b.outMu.Unlock()

			opts := SubmitOpts{Lane: tc.lane}
			if tc.deadline != 0 {
				opts.Deadline = h.fc.Now().Add(tc.deadline)
			}
			cbInvoked := false
			opts.Callback = func(error) { cbInvoked = true }
			A, B := randMat(n, n, 31), randMat(n, n, 32)
			tk, err := h.b.SubmitRequest(mulReq(mat.New(n, n), A, B), opts)

			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("SubmitRequest err = %v, want %v", err, tc.wantErr)
				}
				if tk != nil {
					t.Fatal("a rejected submission must not produce a Ticket")
				}
				// The rejected item left no trace: no queue slot, no
				// outstanding registration (Close would hang on one), no
				// warm-pool touch, every semaphore token home, callback
				// never invoked.
				if got := h.b.QueueDepth(); got != depthBefore {
					t.Fatalf("queue depth %d after rejection, want %d", got, depthBefore)
				}
				h.b.outMu.Lock()
				out := h.b.outstanding
				h.b.outMu.Unlock()
				if out != outBefore {
					t.Fatalf("outstanding %d after rejection, want %d", out, outBefore)
				}
				if got := h.b.WarmEntries(); got != warmBefore {
					t.Fatalf("warm entries %d after rejection, want %d", got, warmBefore)
				}
				h.b.sem.mu.Lock()
				free := h.b.sem.free
				h.b.sem.mu.Unlock()
				if free != h.b.opts.Workers {
					t.Fatalf("%d/%d semaphore tokens free after rejection", free, h.b.opts.Workers)
				}
				if cbInvoked {
					t.Fatal("a rejected submission must not invoke its callback")
				}
				st := h.b.Stats()
				if got := st.Lanes[tc.lane].Rejected; got != 1 {
					t.Fatalf("lane %v rejected counter = %d, want 1", tc.lane, got)
				}
				return
			}
			if err != nil {
				t.Fatalf("SubmitRequest err = %v, want admitted", err)
			}
			if tk == nil {
				t.Fatal("admitted submission must produce a Ticket")
			}
			if got := h.b.QueueDepth(); got != depthBefore+1 {
				t.Fatalf("queue depth %d after admission, want %d", got, depthBefore+1)
			}
			if got := h.b.Stats().Lanes[tc.lane].Rejected; got != 0 {
				t.Fatalf("lane %v rejected counter = %d, want 0", tc.lane, got)
			}
		})
	}
}

// TestAdmissionSkipsAlreadyExpired: a deadline already in the past keeps its
// PR 5 contract — a Ticket resolved with ErrDeadlineExceeded — even when the
// backlog would also have rejected it; admission only screens items that
// still have a future.
func TestAdmissionSkipsAlreadyExpired(t *testing.T) {
	const n = 64
	h := newAdmissionHarness(t, 1)
	h.setEstimate(n, n, n, 3600)
	h.fill(t, LaneNormal, 2, n)

	A, B := randMat(n, n, 41), randMat(n, n, 42)
	tk, err := h.b.SubmitRequest(mulReq(mat.New(n, n), A, B), SubmitOpts{
		Deadline: h.fc.Now().Add(-time.Second),
	})
	if err != nil {
		t.Fatalf("already-expired submission must not be admission-rejected: %v", err)
	}
	if err := tk.Wait(); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("ticket err = %v, want ErrDeadlineExceeded", err)
	}
	st := h.b.Stats()
	if got := st.Lanes[LaneNormal].Expired; got != 1 {
		t.Fatalf("expired counter = %d, want 1", got)
	}
	if got := st.Lanes[LaneNormal].Rejected; got != 0 {
		t.Fatalf("rejected counter = %d, want 0", got)
	}
}

// TestAdmissionEstimatorSeedsFromModel: the estimator must carry a positive
// estimate for a class the cost model has priced — the calibrated link that
// turns queue length into backlog seconds.
func TestAdmissionEstimatorSeedsFromModel(t *testing.T) {
	b := newTestBatcher(t, testOptions(1))
	class, est := b.estimateFor(op.Multiply, 256, 256, 256)
	if class != tuner.ClassOf(256, 256, 256) {
		t.Fatalf("estimateFor class = %v", class)
	}
	if est <= 0 {
		t.Fatal("estimateFor must seed a positive estimate from the calibrated model")
	}
	// The estimate is stable and cached until live observations move it.
	if _, again := b.estimateFor(op.Multiply, 256, 256, 256); again != est {
		t.Fatalf("estimate changed without observations: %d → %d", est, again)
	}
}

// TestEWMAObserve pins the estimator's blend: first observation taken whole,
// later ones folded at svcAlpha.
func TestEWMAObserve(t *testing.T) {
	var e ewma
	e.observe(1.0)
	if got := e.load(); got != 1.0 {
		t.Fatalf("first observation = %g, want 1", got)
	}
	e.observe(2.0)
	want := svcAlpha*2.0 + (1-svcAlpha)*1.0
	if got := e.load(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("blended estimate = %g, want %g", got, want)
	}
	e.observe(-5) // non-positive observations are ignored
	if got := e.load(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("estimate moved on a non-positive observation: %g", got)
	}
}

// stepClock wraps the fake clock and advances it a fixed step on every Now()
// call, so each timedRun observes a service time of at least one step: a
// machine whose executions run far slower than the seeded estimate.
type stepClock struct {
	fc   *fakeClock
	step time.Duration
}

func (s *stepClock) Now() time.Time {
	now := s.fc.Now()
	s.fc.Advance(s.step)
	return now
}

func (s *stepClock) NewTimer(d time.Duration) Timer { return s.fc.NewTimer(d) }

// TestOffEstimateExecutionKeepsWarmEntry: executions observed at a second
// each, against an estimate seeded at microseconds, only move the admission
// EWMA. The batcher never re-tunes while serving, so the warm entry stays
// the one built on first touch and WarmMisses stays flat; a real machine
// change is handled offline (fmmtune clear / calibrate).
func TestOffEstimateExecutionKeepsWarmEntry(t *testing.T) {
	const n = 64
	b := newClockedBatcher(t, testOptions(1), &stepClock{fc: newFakeClock(), step: time.Second})
	A, B := randMat(n, n, 1), randMat(n, n, 2)
	C := mat.New(n, n)

	before, _, _, err := b.entryFor(op.Multiply, n, n, n, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	class := tuner.ClassOf(n, n, n)
	seeded := b.est.estimate(op.Multiply, class)
	misses := b.Stats().WarmMisses
	for i := 0; i < 32; i++ {
		if err := b.Do(mulReq(C, A, B)); err != nil {
			t.Fatal(err)
		}
	}
	// Real time for any background rebuild to land before the checks.
	time.Sleep(20 * time.Millisecond)
	if got := b.est.estimate(op.Multiply, class); got < 100*seeded {
		t.Fatalf("estimate %g s after 1 s executions (seeded %g s): the workload is not off its estimate", got, seeded)
	}
	if got := b.Stats().WarmMisses; got != misses {
		t.Fatalf("WarmMisses %d → %d: an off-estimate execution rebuilt an entry", misses, got)
	}
	after, _, _, err := b.entryFor(op.Multiply, n, n, n, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Fatal("warm entry rebuilt after off-estimate executions")
	}
}
