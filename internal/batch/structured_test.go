package batch

import (
	"testing"

	"fastmm/internal/gemm"
	"fastmm/internal/mat"
	"fastmm/internal/op"
	"fastmm/internal/tuner"
)

// refGram computes the Aᵗ·A oracle for batch-level checks.
func refGram(A *mat.Dense) *mat.Dense {
	T := mat.New(A.Cols(), A.Rows())
	mat.Transpose(T, A)
	want := mat.New(A.Cols(), A.Cols())
	gemm.Mul(want, T, A)
	return want
}

// TestDoStructuredSync drives ATA and Syrk through the synchronous Do path
// and checks results, exact symmetry, and the Stats op mix.
func TestDoStructuredSync(t *testing.T) {
	b, err := New(testOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	A := randMat(96, 64, 1)

	C := mat.New(64, 64)
	if err := b.Do(op.Request{Op: op.ATA, C: C, A: A}); err != nil {
		t.Fatal(err)
	}
	if d := mat.MaxAbsDiff(C, refGram(A)); d > 1e-9 {
		t.Fatalf("ATA via Do: diff %g", d)
	}
	for i := 0; i < 64; i++ {
		for j := 0; j < i; j++ {
			if C.At(i, j) != C.At(j, i) {
				t.Fatalf("ATA via Do not exactly symmetric at (%d,%d)", i, j)
			}
		}
	}

	S := mat.New(96, 96)
	if err := b.Do(op.Request{Op: op.Syrk, C: S, A: A}); err != nil {
		t.Fatal(err)
	}

	st := b.Stats()
	if st.Ops["ata"] != 1 || st.Ops["syrk"] != 1 {
		t.Fatalf("Stats.Ops = %v, want one ata and one syrk", st.Ops)
	}
	if st.SyncDone != 2 {
		t.Fatalf("SyncDone = %d, want 2", st.SyncDone)
	}
}

// TestSubmitRequestStructured pushes structured requests through the async
// lanes and checks completion, correctness, and op accounting.
func TestSubmitRequestStructured(t *testing.T) {
	b, err := New(testOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	const jobs = 6
	as := make([]*mat.Dense, jobs)
	cs := make([]*mat.Dense, jobs)
	tks := make([]*Ticket, jobs)
	for i := range as {
		as[i] = randMat(80, 48, int64(i+1))
		cs[i] = mat.New(48, 48)
		tk, err := b.SubmitRequest(op.Request{Op: op.ATA, C: cs[i], A: as[i]}, SubmitOpts{})
		if err != nil {
			t.Fatal(err)
		}
		tks[i] = tk
	}
	for i, tk := range tks {
		if err := tk.Wait(); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if d := mat.MaxAbsDiff(cs[i], refGram(as[i])); d > 1e-9 {
			t.Fatalf("job %d: diff %g", i, d)
		}
	}
	if got := b.Stats().Ops["ata"]; got != jobs {
		t.Fatalf("Stats.Ops[ata] = %d, want %d", got, jobs)
	}

	// An invalid request is refused at the door, not enqueued.
	if _, err := b.SubmitRequest(op.Request{Op: op.ATA, C: mat.New(3, 3), A: as[0]}, SubmitOpts{}); err == nil {
		t.Fatal("mis-shaped ATA submit must fail")
	}
}

// TestOpBucketingSeparatesEntries pins the warm-pool key: the same class
// tuned as a multiply and as an ATA must produce two distinct warm entries
// (their plan spaces differ), while MultiplyAdd shares the multiply entry.
func TestOpBucketingSeparatesEntries(t *testing.T) {
	b, err := New(testOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	m, k, n := 128, 128, 128
	e1, _, err := b.entryFor(op.Multiply, m, k, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	e2, _, err := b.entryFor(op.ATA, m, k, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	if e1 == e2 {
		t.Fatal("multiply and ATA share a warm entry")
	}
	if e1.key.op != op.Multiply || e2.key.op != op.ATA {
		t.Fatalf("entry keys carry ops %v and %v", e1.key.op, e2.key.op)
	}
	e3, _, err := b.entryFor(op.MultiplyAdd, m, k, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	if e3 != e1 {
		t.Fatal("MultiplyAdd must ride the multiply plan space (PlanOp)")
	}
	if b.WarmEntries() != 2 {
		t.Fatalf("WarmEntries = %d, want 2", b.WarmEntries())
	}

	// PlanForOp surfaces the op-tagged plan.
	p, err := b.PlanForOp(op.ATA, m, k, n)
	if err != nil {
		t.Fatal(err)
	}
	if p.Op != "ata" {
		t.Fatalf("PlanForOp(ATA) plan op token = %q", p.Op)
	}
}

// TestSvcEstimatorSeparatesOps checks admission's service-time table keys by
// (op, class): observations for ATA must not contaminate the multiply cell.
func TestSvcEstimatorSeparatesOps(t *testing.T) {
	est := newSvcEstimator()
	class := tuner.ClassOf(256, 256, 256)
	est.observe(op.Multiply, class, 1.0)
	est.observe(op.ATA, class, 0.5)
	if got := est.estimate(op.Multiply, class); got != 1.0 {
		t.Fatalf("multiply estimate = %g, want 1.0", got)
	}
	if got := est.estimate(op.ATA, class); got != 0.5 {
		t.Fatalf("ATA estimate = %g, want 0.5", got)
	}
	// MultiplyAdd folds into the multiply cell (same plan space, same cost).
	if got := est.estimate(op.MultiplyAdd, class); got != 1.0 {
		t.Fatalf("muladd estimate = %g, want multiply's 1.0", got)
	}
}

// TestAliasedRequestRefused: a request whose C shares storage with an
// operand is refused on both the sync and async paths — operands untouched,
// nothing enqueued — and the requests around it complete normally.
func TestAliasedRequestRefused(t *testing.T) {
	b, err := New(testOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	P := randMat(160, 160, 5)
	before := P.Clone()
	A, B := P.View(0, 0, 80, 80), P.View(80, 0, 80, 80)
	good := op.Request{Op: op.Multiply, C: mat.New(80, 80), A: A, B: B}
	want := mat.New(80, 80)
	gemm.Mul(want, A, B)

	tk, err := b.SubmitRequest(good, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Do(op.Request{Op: op.Multiply, C: A, A: A, B: B}); err == nil {
		t.Error("Do with C = A must fail")
	}
	if _, err := b.SubmitRequest(op.Request{Op: op.MultiplyAdd, C: P.View(40, 40, 80, 80), A: A, B: B}, SubmitOpts{}); err == nil {
		t.Error("SubmitRequest with C overlapping A and B must fail")
	}
	if err := b.Do(op.Request{Op: op.ATA, C: A, A: A}); err == nil {
		t.Error("ATA onto its own input must fail")
	}
	if err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
	if d := mat.MaxAbsDiff(good.C, want); d > 1e-9 {
		t.Fatalf("request submitted before the refusals: diff %g", d)
	}
	if d := mat.MaxAbsDiff(P, before); d != 0 {
		t.Fatalf("a refused request modified its operands (max diff %g)", d)
	}
	// A sibling block of the operands' parent is a legal destination.
	sib := op.Request{Op: op.Multiply, C: P.View(0, 80, 80, 80), A: A, B: B}
	if err := b.Do(sib); err != nil {
		t.Fatal(err)
	}
	if d := mat.MaxAbsDiff(sib.C, want); d > 1e-9 {
		t.Fatalf("product into a sibling view: diff %g", d)
	}
	if st := b.Stats(); st.SyncDone != 1 || st.Ops["multiply"] != 2 {
		t.Fatalf("refused requests were counted: SyncDone=%d Ops=%v", st.SyncDone, st.Ops)
	}
}
