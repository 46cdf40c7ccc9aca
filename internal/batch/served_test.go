package batch

import (
	"math"
	"testing"
	"time"

	"fastmm/internal/mat"
	"fastmm/internal/op"
	"fastmm/internal/trace"
	"fastmm/internal/tuner"
)

// TestColdOnGridRequestServedByBuild: a cold class's first request whose
// shape is the class's representative is run by the build's classical
// reference probe and not again, through Do and through SubmitRequest alike.
// The candidates are fast633 alone, a plan a 128³ classical gemm always
// beats, so the probe picks classical and serves the request. C is the
// product, Stats conserve and count the request once, its service and busy
// time are the served run's measured time, the admission estimate is
// positive, and the sampled record carries the served run's one leaf span.
func TestColdOnGridRequestServedByBuild(t *testing.T) {
	const n = 128
	if cm, ck, cn := tuner.ClassOf(n, n, n).Dims(); cm != n || ck != n || cn != n {
		t.Fatalf("%d³ is not its class's representative", n)
	}
	for _, async := range []bool{false, true} {
		opts := traceEverything(Options{
			Resources: Resources{Workers: 1},
			Tuning:    tuner.Options{Profile: testProfile(1), Algorithms: []string{"fast633"}, NoDiskCache: true},
		})
		b := newTestBatcher(t, opts)
		A, B := randMat(n, n, 1), randMat(n, n, 2)
		C := mat.New(n, n)
		C.Fill(math.NaN())
		if async {
			tk, err := b.SubmitRequest(mulReq(C, A, B), SubmitOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if err := tk.Wait(); err != nil {
				t.Fatal(err)
			}
		} else if err := b.Do(mulReq(C, A, B)); err != nil {
			t.Fatal(err)
		}
		checkProduct(t, C, A, B)

		st := b.Stats()
		for _, l := range st.Lanes {
			if l.Submitted != l.Done+l.Expired+l.Rejected+l.Queued+l.Executing ||
				l.QueueWait.Count != l.Done || l.Service.Count != l.Done {
				t.Fatalf("async=%v: lane %v does not conserve: %+v", async, l.Lane, l)
			}
		}
		if st.Ops["multiply"] != 1 || st.WarmMisses != 1 || st.BusySeconds <= 0 {
			t.Fatalf("async=%v: ops %v, misses %d, busy %gs; want one multiply, one miss, busy > 0",
				async, st.Ops, st.WarmMisses, st.BusySeconds)
		}
		recs := b.Traces()
		if len(recs) != 1 {
			t.Fatalf("async=%v: %d trace records, want 1", async, len(recs))
		}
		r := recs[0]
		leaves := 0
		for _, sp := range r.Spans.Slice() {
			if sp.Kind == trace.KindLeaf {
				leaves++
			}
		}
		if r.Algorithm != tuner.ClassicalAlgorithm || r.MeasuredSeconds <= 0 {
			t.Fatalf("async=%v: record plan %q measured %gs, want classical with the probe's time", async, r.Algorithm, r.MeasuredSeconds)
		}
		if leaves != 1 || r.ServiceNanos <= 0 || r.WarmHit || r.Err != "" {
			t.Fatalf("async=%v: record has %d leaf spans, service %dns, warm hit %v, err %q; want the served run's one leaf and its time",
				async, leaves, r.ServiceNanos, r.WarmHit, r.Err)
		}
		// Served, the request is accounted with the probe run that computed
		// C, not a second run's time.
		served := time.Duration(r.MeasuredSeconds * float64(time.Second))
		if r.ServiceNanos != int64(served) || math.Abs(st.BusySeconds-served.Seconds()) > 1e-9 {
			t.Fatalf("async=%v: service %dns, busy %gs; want the served run's %v", async, r.ServiceNanos, st.BusySeconds, served)
		}
		if got := b.est.estimate(op.Multiply, tuner.ClassOf(n, n, n)); got <= 0 {
			t.Fatalf("async=%v: admission estimate %g, want the served run's time", async, got)
		}
	}
}
