package batch

import (
	"runtime"
	"testing"
	"time"

	"fastmm/internal/mat"
	"fastmm/internal/op"
)

// stepClock wraps the fake clock and advances it a fixed step on every Now()
// call, so each timedRun observes a service time of at least one step — the
// deterministic way to simulate a machine whose executions suddenly run far
// slower than the calibration predicted.
type stepClock struct {
	fc   *fakeClock
	step time.Duration
}

func (s *stepClock) Now() time.Time {
	now := s.fc.Now()
	s.fc.Advance(s.step)
	return now
}

func (s *stepClock) NewTimer(d time.Duration) Timer            { return s.fc.NewTimer(d) }
func (s *stepClock) AfterFunc(d time.Duration, f func()) Timer { return s.fc.AfterFunc(d, f) }

// waitForReprobes polls the batcher (the re-probe runs on its own goroutine)
// until Stats().Reprobes reaches want or the real-time deadline passes.
func waitForReprobes(t *testing.T, b *Batcher, want int64) Stats {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := b.Stats()
		if st.Reprobes >= want {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("Reprobes = %d, want %d (DriftEvents = %d)", st.Reprobes, want, st.DriftEvents)
		}
		runtime.Gosched()
	}
}

// TestDriftTriggersSingleReprobe is the drift loop end to end on the fake
// clock: executions observed at ~10ms against a calibration predicting
// microseconds build an out-of-band streak, the driftK-th completion
// declares a drift event, the event triggers exactly one rate-limited
// re-probe (the warm entry is rebuilt — fresh pointer — and the estimator
// reseeded), and further drift events inside minReprobeInterval count but
// do not re-probe. The step keeps the whole run well inside that interval.
func TestDriftTriggersSingleReprobe(t *testing.T) {
	const n = 64
	const k = driftK
	fc := newFakeClock()
	opts := testOptions(1)
	opts.Drift = DriftOptions{} // on: testOptions turns it off
	b := newClockedBatcher(t, opts, &stepClock{fc: fc, step: 10 * time.Millisecond})
	A, B := randMat(n, n, 1), randMat(n, n, 2)
	C := mat.New(n, n)

	before, _, err := b.entryFor(op.Multiply, n, n, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		if err := b.Do(mulReq(C, A, B)); err != nil {
			t.Fatal(err)
		}
	}
	st := waitForReprobes(t, b, 1)
	if st.DriftEvents < 1 {
		t.Fatalf("DriftEvents = %d after re-probe", st.DriftEvents)
	}
	after, _, err := b.entryFor(op.Multiply, n, n, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	if after == before {
		t.Fatal("re-probe did not rebuild the warm entry (same pointer)")
	}

	// Keep drifting: events accrue, but the rate limiter holds the re-probe
	// count at one inside minReprobeInterval of fake-clock time.
	for i := 0; i < 3*k; i++ {
		if err := b.Do(mulReq(C, A, B)); err != nil {
			t.Fatal(err)
		}
	}
	st = b.Stats()
	if st.DriftEvents < 2 {
		t.Fatalf("continued drift declared no further events: %d", st.DriftEvents)
	}
	if st.Reprobes != 1 {
		t.Fatalf("Reprobes = %d, want exactly 1 (rate-limited)", st.Reprobes)
	}
}

// TestNoDriftLoopWhenDisabled is the control: the identical drifting
// workload with Drift.Disable set declares nothing and re-probes nothing —
// the warm entry survives untouched. Failing this (or the rebuild assertion
// above) is how a regression in the drift loop surfaces.
func TestNoDriftLoopWhenDisabled(t *testing.T) {
	const n = 64
	fc := newFakeClock()
	opts := testOptions(1)
	opts.Drift = DriftOptions{Disable: true}
	b := newClockedBatcher(t, opts, &stepClock{fc: fc, step: time.Second})
	A, B := randMat(n, n, 1), randMat(n, n, 2)
	C := mat.New(n, n)

	before, _, err := b.entryFor(op.Multiply, n, n, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if err := b.Do(mulReq(C, A, B)); err != nil {
			t.Fatal(err)
		}
	}
	st := b.Stats()
	if st.DriftEvents != 0 || st.Reprobes != 0 {
		t.Fatalf("disabled drift loop ran: events=%d reprobes=%d", st.DriftEvents, st.Reprobes)
	}
	after, _, err := b.entryFor(op.Multiply, n, n, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Fatal("warm entry rebuilt without a drift loop")
	}
}
