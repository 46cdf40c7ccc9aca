package batch

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"fastmm/internal/mat"
	"fastmm/internal/op"
	"fastmm/internal/trace"
	"fastmm/internal/tuner"
)

// traceEverything turns the sampling rate up to 1-in-1 so every request in a
// test produces a record.
func traceEverything(opts Options) Options {
	opts.Trace = trace.Config{Sample: 1}
	return opts
}

// TestTraceSyncRecord pins the synchronous path's record end to end: verdict,
// shape, class, resolved plan fields, warm hit/miss, service time, and the
// execution spans threaded through the executor.
func TestTraceSyncRecord(t *testing.T) {
	b := newTestBatcher(t, traceEverything(testOptions(1)))
	const n = 64
	A, B := randMat(n, n, 1), randMat(n, n, 2)
	C := mat.New(n, n)
	for i := 0; i < 2; i++ {
		if err := b.Do(mulReq(C, A, B)); err != nil {
			t.Fatal(err)
		}
	}
	recs := b.Traces()
	if len(recs) != 2 {
		t.Fatalf("Traces() = %d records, want 2", len(recs))
	}
	plan, err := b.PlanForOp(op.Multiply, n, n, n)
	if err != nil {
		t.Fatal(err)
	}
	cm, ck, cn := tuner.ClassOf(n, n, n).Dims()
	for i, r := range recs {
		if r.Op != "multiply" || r.Verdict != "sync" {
			t.Errorf("record %d: op %q verdict %q, want multiply/sync", i, r.Op, r.Verdict)
		}
		if r.M != n || r.K != n || r.N != n {
			t.Errorf("record %d: shape %dx%dx%d, want %dx%dx%d", i, r.M, r.K, r.N, n, n, n)
		}
		if r.ClassM != cm || r.ClassK != ck || r.ClassN != cn {
			t.Errorf("record %d: class %dx%dx%d, want %dx%dx%d", i, r.ClassM, r.ClassK, r.ClassN, cm, ck, cn)
		}
		if r.Algorithm != plan.Algorithm || r.Steps != plan.Steps ||
			r.Scheduler != plan.Parallel || r.PlanWorkers != plan.Workers {
			t.Errorf("record %d: plan %q/s%d/%s/%dw, want %q/s%d/%s/%dw", i,
				r.Algorithm, r.Steps, r.Scheduler, r.PlanWorkers,
				plan.Algorithm, plan.Steps, plan.Parallel, plan.Workers)
		}
		if r.PredictedSeconds <= 0 {
			t.Errorf("record %d: PredictedSeconds = %v, want > 0", i, r.PredictedSeconds)
		}
		if r.ServiceNanos <= 0 {
			t.Errorf("record %d: ServiceNanos = %d, want > 0", i, r.ServiceNanos)
		}
		if r.Err != "" {
			t.Errorf("record %d: unexpected error %q", i, r.Err)
		}
		if r.Spans.Len() == 0 {
			t.Errorf("record %d: no execution spans", i)
		}
		leaves := 0
		for _, sp := range r.Spans.Slice() {
			if sp.Kind == trace.KindLeaf {
				leaves++
				if sp.Backend == "" {
					t.Errorf("record %d: leaf span without backend", i)
				}
			}
		}
		if leaves == 0 && r.Spans.Dropped() == 0 {
			t.Errorf("record %d: no leaf spans and none dropped", i)
		}
	}
	// First touch tuned the class; the second call hit the warm pool.
	if recs[0].WarmHit {
		t.Error("first record claims a warm hit on a cold pool")
	}
	if !recs[1].WarmHit {
		t.Error("second record missed the warm pool")
	}
	st := b.Stats()
	if st.TraceSamples["multiply"] != 2 || st.TraceSampled != 2 {
		t.Errorf("TraceSamples = %v, TraceSampled = %d, want 2 multiply samples",
			st.TraceSamples, st.TraceSampled)
	}
}

// TestTraceVerdicts pins the async verdicts: accepted items trace as
// "queued" with their lane and queue wait, already-expired submissions as
// "expired".
func TestTraceVerdicts(t *testing.T) {
	b := newTestBatcher(t, traceEverything(testOptions(1)))
	const n = 48
	A, B := randMat(n, n, 1), randMat(n, n, 2)
	C := mat.New(n, n)

	tk, err := b.SubmitRequest(mulReq(C, A, B), SubmitOpts{Lane: LaneHigh})
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
	tk, err = b.SubmitRequest(mulReq(mat.New(n, n), A, B), SubmitOpts{Deadline: time.Now().Add(-time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.Wait(); err != ErrDeadlineExceeded {
		t.Fatalf("expired ticket error = %v", err)
	}
	if err := b.Wait(); err != nil {
		t.Fatal(err)
	}

	want := map[string]int{"queued": 1, "expired": 1}
	got := map[string]int{}
	for _, r := range b.Traces() {
		got[r.Verdict]++
		switch r.Verdict {
		case "queued":
			if r.Lane != "high" {
				t.Errorf("queued record lane %q, want high", r.Lane)
			}
			if r.QueueWaitNanos < 0 {
				t.Errorf("queued record QueueWaitNanos = %d", r.QueueWaitNanos)
			}
			if r.ServiceNanos <= 0 {
				t.Errorf("queued record did not execute: ServiceNanos = %d", r.ServiceNanos)
			}
		case "expired":
			if r.ServiceNanos != 0 || r.Spans.Len() != 0 {
				t.Errorf("expired record carries execution state: %+v", r)
			}
		}
	}
	for v, n := range want {
		if got[v] != n {
			t.Errorf("verdict %q: %d records, want %d (all: %v)", v, got[v], n, got)
		}
	}
}

// TestTraceConcurrentWritersAndReaders is the batch-level -race hammer:
// concurrent submitters and sync callers write trace records at sample rate
// 1 while readers snapshot Traces() and Stats() throughout. Afterwards the
// sample accounting must be conserved: per-op sample counts sum to the
// ring's claim count, and claims plus contention drops cover every tick that
// passed the rate check.
func TestTraceConcurrentWritersAndReaders(t *testing.T) {
	b := newTestBatcher(t, traceEverything(testOptions(4)))
	const goroutines = 4
	const perG = 25
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				last := uint64(0)
				for _, rec := range b.Traces() {
					if rec.Seq <= last {
						t.Errorf("snapshot out of order: %d after %d", rec.Seq, last)
						return
					}
					last = rec.Seq
				}
				b.Stats()
				runtime.Gosched()
			}
		}()
	}
	var writers sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		writers.Add(1)
		go func() {
			defer writers.Done()
			n := 48 + 16*(g%2)
			A, B := randMat(n, n, int64(g)), randMat(n, n, int64(g+9))
			for i := 0; i < perG; i++ {
				C := mat.New(n, n)
				var err error
				if i%2 == 0 {
					err = b.Do(mulReq(C, A, B))
				} else {
					var tk *Ticket
					if tk, err = b.SubmitRequest(mulReq(C, A, B), SubmitOpts{}); err == nil {
						err = tk.Wait()
					}
				}
				if err != nil {
					t.Errorf("writer %d: %v", g, err)
					return
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	wg.Wait()
	if err := b.Wait(); err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	var perOp int64
	for _, v := range st.TraceSamples {
		perOp += v
	}
	if perOp != st.TraceSampled {
		t.Errorf("per-op samples %d != TraceSampled %d", perOp, st.TraceSampled)
	}
	if total := st.TraceSampled + st.TraceLost; total != int64(goroutines*perG) {
		t.Errorf("sampled %d + lost %d = %d, want %d requests",
			st.TraceSampled, st.TraceLost, total, goroutines*perG)
	}
}

// TestTracedSteadyStateAllocFree is the overhead gate: with tracing at
// sample rate 1 (every request traced), the steady-state synchronous path
// must allocate no more than the untraced path — the record is filled in
// place inside the ring slot, spans included.
func TestTracedSteadyStateAllocFree(t *testing.T) {
	const n = 96
	A, B := randMat(n, n, 1), randMat(n, n, 2)
	C := mat.New(n, n)
	measure := func(opts Options) float64 {
		b := newTestBatcher(t, opts)
		for i := 0; i < 3; i++ { // warm: tune the class, grow arenas
			if err := b.Do(mulReq(C, A, B)); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(30, func() {
			if err := b.Do(mulReq(C, A, B)); err != nil {
				t.Fatal(err)
			}
		})
	}
	// At the default 1-in-trace.DefaultSample rate only the first warm-up
	// call is sampled, so the measured runs are untraced.
	untraced := measure(testOptions(1))
	traced := measure(traceEverything(testOptions(1)))
	// Under -race sync.Pool drops a share of Puts, so either pass may
	// re-allocate a pooled buffer the other kept; the un-instrumented run is
	// the contract.
	if traced > untraced && !raceEnabled {
		t.Errorf("traced path allocates %.1f/run, untraced %.1f/run — tracing must add zero",
			traced, untraced)
	}
}
