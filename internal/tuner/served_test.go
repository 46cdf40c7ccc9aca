package tuner

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"fastmm/internal/core"
	"fastmm/internal/gemm"
	"fastmm/internal/mat"
	"fastmm/internal/op"
	"fastmm/internal/trace"
)

// servedN is past core.MinDim, so a cold decision probes fast survivors.
const servedN = 256

// serveOperands returns random A and B of servedN² and a NaN-filled C: a
// C the call must overwrite without reading.
func serveOperands(seed int64) (C, A, B *mat.Dense) {
	rng := rand.New(rand.NewSource(seed))
	A, B, C = mat.New(servedN, servedN), mat.New(servedN, servedN), mat.New(servedN, servedN)
	A.FillRandom(rng)
	B.FillRandom(rng)
	C.Fill(math.NaN())
	return C, A, B
}

func bitwiseEqual(a, b *mat.Dense) bool {
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			if math.Float64bits(a.At(i, j)) != math.Float64bits(b.At(i, j)) {
				return false
			}
		}
	}
	return true
}

// timedRun is one call of a recording timer: the plan it timed and the
// request it was handed.
type timedRun struct {
	plan Plan
	req  op.Request
}

// recordingTimer wraps a timeRun: every call is recorded before f answers it.
func recordingTimer(runs *[]timedRun, f func(d *decision, req op.Request, lim probeLimit) (float64, error)) func(*decision, op.Request, probeLimit) (float64, error) {
	return func(d *decision, req op.Request, lim probeLimit) (float64, error) {
		*runs = append(*runs, timedRun{d.plan, req})
		return f(d, req, lim)
	}
}

// fastLoses runs classical for real and stops every fast probe at its limit
// (running nothing): classical wins every decision.
func fastLoses(d *decision, req op.Request, lim probeLimit) (float64, error) {
	if d.plan.IsClassical() {
		return timeDecision(d, req, lim)
	}
	return lim.limit.Seconds(), core.ErrStopped
}

// TestColdDoServedByReference: a cold overwriting Do that classical wins
// runs classical exactly once — the reference probe, on the caller's C,
// recorded in the caller's trace — and leaves C bitwise equal to
// gemm.Dispatch at the plan's width, with α ≠ 1 and C NaN-filled before the
// call. The fast probes read the caller's A and B into a C of their own.
func TestColdDoServedByReference(t *testing.T) {
	for _, w := range []int{1, 2} {
		tn := mustTuner(t, Options{Resources: Resources{Workers: w}, Profile: testProfile(w), NoDiskCache: true})
		var runs []timedRun
		tn.timeRun = recordingTimer(&runs, fastLoses)
		C, A, B := serveOperands(int64(w))
		tr := new(trace.Spans)
		if err := tn.Do(op.Request{Op: op.Multiply, C: C, A: A, B: B, Alpha: -2, Trace: tr}); err != nil {
			t.Fatal(err)
		}
		classical, fast := 0, 0
		for _, r := range runs {
			switch {
			case r.plan.IsClassical():
				classical++
				if r.req.C != C || r.req.A != A || r.req.B != B || r.req.Alpha != -2 || r.req.Trace != tr {
					t.Fatalf("w=%d: the reference probe ran on %+v, want the caller's request", w, r.req)
				}
			default:
				fast++
				if r.req.C == C || r.req.A != A || r.req.B != B {
					t.Fatalf("w=%d: fast probe %v: C is the caller's %v, A/B the caller's %v/%v; want the caller's A and B into a C of its own",
						w, r.plan, r.req.C == C, r.req.A == A, r.req.B == B)
				}
			}
		}
		if classical != 1 || fast == 0 {
			t.Fatalf("w=%d: %d classical and %d fast timings, want 1 and some", w, classical, fast)
		}
		leaves := 0
		for _, sp := range tr.Slice() {
			if sp.Kind == trace.KindLeaf {
				leaves++
			}
		}
		if leaves != 1 {
			t.Fatalf("w=%d: the call's trace holds %d leaf spans, want the reference's one (no second classical run)", w, leaves)
		}
		p, err := tn.PlanForOp(op.Multiply, servedN, servedN, servedN)
		if err != nil {
			t.Fatal(err)
		}
		if !p.IsClassical() {
			t.Fatalf("w=%d: decided %v, want classical", w, p)
		}
		want := mat.New(servedN, servedN)
		gemm.Dispatch(gemm.Default(), want, -2, A, B, false, p.Workers)
		if !bitwiseEqual(C, want) {
			t.Fatalf("w=%d: served C differs from gemm.Dispatch at %d workers (max diff %g)", w, p.Workers, mat.MaxAbsDiff(C, want))
		}
	}
}

// TestColdDoFastWinOverwrites: when a fast plan wins the probe (scripted),
// the call is not served by the reference: the winner runs the caller's
// request and C ends bitwise equal to the fast plan's own result.
func TestColdDoFastWinOverwrites(t *testing.T) {
	tn := mustTuner(t, Options{Resources: Resources{Workers: 1}, Profile: testProfile(1), NoDiskCache: true})
	var runs []timedRun
	tn.timeRun = recordingTimer(&runs, func(d *decision, req op.Request, lim probeLimit) (float64, error) {
		if d.plan.IsClassical() {
			if _, err := timeDecision(d, req, lim); err != nil {
				return 0, err
			}
			return 1, nil
		}
		return 0.5, nil
	})
	C, A, B := serveOperands(3)
	if err := tn.Do(op.Request{Op: op.Multiply, C: C, A: A, B: B, Alpha: -2}); err != nil {
		t.Fatal(err)
	}
	p, err := tn.PlanForOp(op.Multiply, servedN, servedN, servedN)
	if err != nil {
		t.Fatal(err)
	}
	if p.IsClassical() {
		t.Fatalf("decided %v, want the scripted fast win", p)
	}
	d, err := tn.build(op.Multiply, p)
	if err != nil {
		t.Fatal(err)
	}
	want := mat.New(servedN, servedN)
	if err := d.run(op.Request{Op: op.Multiply, C: want, A: A, B: B, Alpha: -2}); err != nil {
		t.Fatal(err)
	}
	if !bitwiseEqual(C, want) {
		t.Fatalf("C differs from %v's own result (max diff %g)", p, mat.MaxAbsDiff(C, want))
	}
	ref := mat.New(servedN, servedN)
	gemm.Mul(ref, A, B)
	mat.Scale(ref, -2, ref)
	if diff := mat.MaxAbsDiff(C, ref); diff > 1e-9*servedN {
		t.Fatalf("C is off the product by %g", diff)
	}
}

// TestFailedReferenceNeverServes: a reference run that fails — here after
// scribbling NaN over the caller's C — does not count as serving the call:
// the winner among the fast probes runs the request and overwrites C.
func TestFailedReferenceNeverServes(t *testing.T) {
	tn := mustTuner(t, Options{Resources: Resources{Workers: 1}, Profile: testProfile(1), NoDiskCache: true})
	var runs []timedRun
	fastTimes := []float64{0.9, 0.8, 0.7, 0.6}
	tn.timeRun = recordingTimer(&runs, func(d *decision, req op.Request, _ probeLimit) (float64, error) {
		if d.plan.IsClassical() {
			req.C.Fill(math.NaN())
			return 0, errors.New("scripted failure")
		}
		v := fastTimes[0]
		fastTimes = fastTimes[1:]
		return v, nil
	})
	C, A, B := serveOperands(4)
	C.Zero()
	if err := tn.Do(op.Request{Op: op.Multiply, C: C, A: A, B: B}); err != nil {
		t.Fatal(err)
	}
	if runs[0].req.C != C || !runs[0].plan.IsClassical() {
		t.Fatalf("first timing %v did not run the reference on the caller's C", runs[0].plan)
	}
	ref := mat.New(servedN, servedN)
	gemm.Mul(ref, A, B)
	if diff := mat.MaxAbsDiff(C, ref); diff > 1e-9*servedN {
		t.Fatalf("C is off the product by %g after a failed reference run", diff)
	}
}

// TestUnservedCallersLendOperands: a cold call the probe cannot serve still
// lends it A and B. MultiplyAdd and a Multiply with β ≠ 0 are probed on the
// caller's A and B into one C of the probe's own, never the caller's C;
// PlanForOp and EntryOp without a request probe on operands of their own,
// one request shared by every timing; AᵗA and Syrk probe nothing. Every
// call still computes its op.
func TestUnservedCallersLendOperands(t *testing.T) {
	tn := mustTuner(t, Options{Resources: Resources{Workers: 2}, Profile: testProfile(2), NoDiskCache: true})
	var runs []timedRun
	tn.timeRun = recordingTimer(&runs, fastLoses)
	// probed checks that every timing ran on one request with a C of the
	// probe's own and, for a caller, on the caller's A and B.
	probed := func(name string, callerC, callerA, callerB *mat.Dense) {
		t.Helper()
		if len(runs) == 0 {
			t.Fatalf("%s: nothing was probed", name)
		}
		first := runs[0].req
		for _, r := range runs {
			if r.req.C != first.C || r.req.A != first.A || r.req.B != first.B {
				t.Fatalf("%s: %v timed on a request of its own, want the one probe request", name, r.plan)
			}
			if r.req.C == callerC {
				t.Fatalf("%s: %v timed on the caller's C", name, r.plan)
			}
			if callerA != nil && (r.req.A != callerA || r.req.B != callerB) {
				t.Fatalf("%s: %v timed on A/B of its own, want the caller's", name, r.plan)
			}
		}
		runs = runs[:0]
	}
	if _, err := tn.PlanForOp(op.Multiply, 288, 288, 288); err != nil {
		t.Fatal(err)
	}
	probed("PlanForOp", nil, nil, nil)
	if _, _, served, err := tn.EntryOp(op.Multiply, 352, 352, 352, tn.opts.Workers, nil); err != nil || served {
		t.Fatalf("EntryOp: served %v, err %v", served, err)
	}
	probed("EntryOp", nil, nil, nil)

	for i, tc := range []struct {
		name string
		req  op.Request
	}{
		{"MultiplyAdd", op.Request{Op: op.MultiplyAdd, Alpha: -1}},
		{"Multiply with β = 0.5", op.Request{Op: op.Multiply, Alpha: 2, Beta: 0.5}},
	} {
		n := servedN + 64*i // a cold shape each
		rng := rand.New(rand.NewSource(int64(10 + i)))
		A, B, C := mat.New(n, n), mat.New(n, n), mat.New(n, n)
		A.FillRandom(rng)
		B.FillRandom(rng)
		C.FillRandom(rng)
		want := mat.New(n, n)
		gemm.Mul(want, A, B)
		req := tc.req.Normalized()
		for r := 0; r < n; r++ {
			for c := 0; c < n; c++ {
				want.Set(r, c, req.Alpha*want.At(r, c)+req.Beta*C.At(r, c))
			}
		}
		tc.req.C, tc.req.A, tc.req.B = C, A, B
		if err := tn.Do(tc.req); err != nil {
			t.Fatal(err)
		}
		probed(tc.name, C, A, B)
		if diff := mat.MaxAbsDiff(C, want); diff > 1e-9*float64(n) {
			t.Fatalf("%s: off by %g", tc.name, diff)
		}
	}

	for _, o := range []op.Op{op.ATA, op.Syrk} {
		rng := rand.New(rand.NewSource(20))
		A := mat.New(2*servedN, servedN)
		A.FillRandom(rng)
		n := servedN
		if o == op.Syrk {
			n = 2 * servedN
		}
		C := mat.New(n, n)
		if err := tn.Do(op.Request{Op: o, C: C, A: A}); err != nil {
			t.Fatal(err)
		}
		if len(runs) != 0 {
			t.Fatalf("%v: %d probe timings, want none", o, len(runs))
		}
	}
}

// TestEntryOpServesOnGridRequest: the batched dispatcher's entry for a class
// borrows the request that missed when its shape is the class's
// representative. On grid, the classical reference probe is the only
// classical timing and runs on the caller's C, the entry reports the
// request served, and C is the classical product at the plan's width; the
// fast probes read the caller's A and B into a C of their own. Off grid —
// 200³ in the class of 224³ — the probes run on operands of their own,
// nothing is served, and the caller's C is never touched.
func TestEntryOpServesOnGridRequest(t *testing.T) {
	for _, w := range []int{1, 2} {
		tn := mustTuner(t, Options{Resources: Resources{Workers: w}, Profile: testProfile(w), NoDiskCache: true})
		var runs []timedRun
		tn.timeRun = recordingTimer(&runs, fastLoses)

		C, A, B := serveOperands(int64(40 + w))
		req := op.Request{Op: op.Multiply, C: C, A: A, B: B}
		e, _, served, err := tn.EntryOp(op.Multiply, servedN, servedN, servedN, w, &req)
		if err != nil {
			t.Fatal(err)
		}
		classical, fast := 0, 0
		for _, r := range runs {
			if r.plan.IsClassical() {
				classical++
				if r.req.C != C || r.req.A != A || r.req.B != B {
					t.Fatalf("w=%d: the reference probe ran on %+v, want the caller's request", w, r.req)
				}
				continue
			}
			fast++
			if r.req.C == C || r.req.A != A || r.req.B != B {
				t.Fatalf("w=%d: fast probe %v did not read the caller's A and B into a C of its own", w, r.plan)
			}
		}
		if classical != 1 || fast == 0 || !served {
			t.Fatalf("w=%d: %d classical and %d fast timings, served %v; want 1, some and true", w, classical, fast, served)
		}
		p := e.Plan()
		if !p.IsClassical() || p.MeasuredSeconds <= 0 {
			t.Fatalf("w=%d: entry plan %v measured %gs, want classical with the served run's time", w, p, p.MeasuredSeconds)
		}
		want := mat.New(servedN, servedN)
		gemm.Dispatch(gemm.Default(), want, 1, A, B, false, p.Workers)
		if !bitwiseEqual(C, want) {
			t.Fatalf("w=%d: served C differs from gemm.Dispatch at %d workers (max diff %g)", w, p.Workers, mat.MaxAbsDiff(C, want))
		}

		runs = runs[:0]
		const off = 200
		cm, ck, cn := ClassOf(off, off, off).Dims()
		if cm == off && ck == off && cn == off {
			t.Fatalf("%d³ is its own class representative", off)
		}
		rng := rand.New(rand.NewSource(50))
		A, B, C = mat.New(off, off), mat.New(off, off), mat.New(off, off)
		A.FillRandom(rng)
		B.FillRandom(rng)
		C.Fill(math.NaN())
		req = op.Request{Op: op.Multiply, C: C, A: A, B: B}
		if _, _, served, err = tn.EntryOp(op.Multiply, cm, ck, cn, w, &req); err != nil || served {
			t.Fatalf("w=%d: off grid: served %v, err %v", w, served, err)
		}
		if len(runs) == 0 {
			t.Fatalf("w=%d: off grid: nothing was probed", w)
		}
		for _, r := range runs {
			if r.req.C == C || r.req.A == A || r.req.B == B || r.req.C != runs[0].req.C {
				t.Fatalf("w=%d: off grid: %v timed on the caller's operands or a request of its own", w, r.plan)
			}
		}
		for i := 0; i < off; i++ {
			for j := 0; j < off; j++ {
				if !math.IsNaN(C.At(i, j)) {
					t.Fatalf("w=%d: off grid: the probes wrote the caller's C[%d][%d]", w, i, j)
				}
			}
		}
	}
}

// TestConcurrentColdDo: concurrent cold calls of one shape, each with its
// own C and all sharing A and B, share one decision on the production
// stopwatch; every call computes its product. Run under -race this checks
// that a served probe shares nothing between callers but the read-only
// operands.
func TestConcurrentColdDo(t *testing.T) {
	const n, callers = 192, 4
	tn := mustTuner(t, Options{Resources: Resources{Workers: 2}, Profile: testProfile(2), NoDiskCache: true})
	rng := rand.New(rand.NewSource(30))
	A, B := mat.New(n, n), mat.New(n, n)
	A.FillRandom(rng)
	B.FillRandom(rng)
	want := mat.New(n, n)
	gemm.Mul(want, A, B)
	Cs := make([]*mat.Dense, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := range Cs {
		Cs[i] = mat.New(n, n)
		Cs[i].Fill(math.NaN())
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = tn.Do(op.Request{Op: op.Multiply, C: Cs[i], A: A, B: B})
		}(i)
	}
	wg.Wait()
	for i, C := range Cs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if diff := mat.MaxAbsDiff(C, want); diff > 1e-9*n {
			t.Fatalf("caller %d: off by %g", i, diff)
		}
	}
}

// TestConcurrentColdDoTunesOnce: concurrent cold Do calls on one shape make
// one decision — the classical reference is timed once — and every caller's
// C is the product: the deciding call's served by the reference probe, the
// others' run by the decision it kept.
func TestConcurrentColdDoTunesOnce(t *testing.T) {
	tn := mustTuner(t, Options{Resources: Resources{Workers: 2}, Profile: testProfile(2), NoDiskCache: true})
	var mu sync.Mutex
	var runs []timedRun
	record := recordingTimer(&runs, fastLoses)
	tn.timeRun = func(d *decision, req op.Request, lim probeLimit) (float64, error) {
		mu.Lock()
		defer mu.Unlock()
		return record(d, req, lim)
	}
	const callers = 4
	_, A, B := serveOperands(60)
	Cs := make([]*mat.Dense, callers)
	errs := make([]error, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range Cs {
		Cs[i] = mat.New(servedN, servedN)
		Cs[i].Fill(math.NaN())
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			errs[i] = tn.Do(op.Request{Op: op.Multiply, C: Cs[i], A: A, B: B})
		}(i)
	}
	close(start)
	wg.Wait()
	classical := 0
	for _, r := range runs {
		if r.plan.IsClassical() {
			classical++
		}
	}
	if classical != 1 {
		t.Fatalf("%d concurrent cold calls timed the classical reference %d times, want once", callers, classical)
	}
	p, err := tn.PlanForOp(op.Multiply, servedN, servedN, servedN)
	if err != nil {
		t.Fatal(err)
	}
	want := mat.New(servedN, servedN)
	gemm.Dispatch(gemm.Default(), want, 1, A, B, false, p.Workers)
	for i, C := range Cs {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if !bitwiseEqual(C, want) {
			t.Fatalf("caller %d: C differs from gemm.Dispatch at %d workers (max diff %g)", i, p.Workers, mat.MaxAbsDiff(C, want))
		}
	}
}
