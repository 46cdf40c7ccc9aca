package tuner

import (
	"math/rand"
	"testing"
	"time"

	"fastmm/internal/gemm"
	"fastmm/internal/mat"
	"fastmm/internal/op"
)

func randOperand(r, c int, seed int64) *mat.Dense {
	m := mat.New(r, c)
	m.FillRandom(rand.New(rand.NewSource(seed)))
	return m
}

// refFor computes the classical reference for a normalized request:
// C = Alpha·op(A,B) + Beta·C.
func refFor(req op.Request) *mat.Dense {
	m, _, n := req.Shape()
	prod := mat.New(m, n)
	switch req.Op {
	case op.ATA:
		T := mat.New(req.A.Cols(), req.A.Rows())
		mat.Transpose(T, req.A)
		gemm.Mul(prod, T, req.A)
	case op.Syrk:
		T := mat.New(req.A.Cols(), req.A.Rows())
		mat.Transpose(T, req.A)
		gemm.Mul(prod, req.A, T)
	default:
		gemm.Mul(prod, req.A, req.B)
	}
	want := mat.New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			want.Set(i, j, req.Alpha*prod.At(i, j)+req.Beta*req.C.At(i, j))
		}
	}
	return want
}

// TestDoMatchesReference drives every operation through Do with scaling and
// accumulation combinations, on a shape small enough to take the classical
// plan and one large enough for a fast plan, checking the full
// C = Alpha·op(A,B) + Beta·C semantics against the gemm oracle.
func TestDoMatchesReference(t *testing.T) {
	tn := mustTuner(t, modelOnlyOpts(2))
	sizes := [][2]int{{96, 64}, {384, 256}} // (rows, cols) of the unary operand
	combos := []struct{ alpha, beta float64 }{{1, 0}, {2, 0}, {1, 1}, {0.5, -2}}
	for _, s := range sizes {
		m, n := s[0], s[1]
		for _, co := range combos {
			for _, o := range []op.Op{op.ATA, op.Syrk} {
				A := randOperand(m, n, int64(m+n)+int64(o))
				dim := n
				if o == op.Syrk {
					dim = m
				}
				C := randOperand(dim, dim, 7)
				req := op.Request{Op: o, C: C, A: A, Alpha: co.alpha, Beta: co.beta}
				want := refFor(req.Normalized())
				if err := tn.Do(req); err != nil {
					t.Fatal(err)
				}
				if d := mat.MaxAbsDiff(C, want); d > 1e-9*float64(m+1) {
					t.Fatalf("%v %dx%d alpha=%g beta=%g: diff %g", o, m, n, co.alpha, co.beta, d)
				}
				if co.beta == 0 {
					for i := 0; i < dim; i++ {
						for j := 0; j < i; j++ {
							if C.At(i, j) != C.At(j, i) {
								t.Fatalf("%v overwrite result not exactly symmetric at (%d,%d)", o, i, j)
							}
						}
					}
				}
			}

			// MultiplyAdd: C = Alpha·A·B + C (Beta forced to 1 by Normalized).
			A, B := randOperand(m, n, 11), randOperand(n, m, 12)
			C := randOperand(m, m, 13)
			req := op.Request{Op: op.MultiplyAdd, C: C, A: A, B: B, Alpha: co.alpha}
			want := refFor(req.Normalized())
			if err := tn.Do(req); err != nil {
				t.Fatal(err)
			}
			if d := mat.MaxAbsDiff(C, want); d > 1e-9*float64(n+1) {
				t.Fatalf("muladd %dx%d alpha=%g: diff %g", m, n, co.alpha, d)
			}
		}
	}
}

// TestPerOpPlansAreDistinct pins the cache-key separation: the same shape
// tuned as a multiply and as an AᵗA must produce distinct keys and plans
// tagged with their op token, and ForgetOp must evict only its own op.
func TestPerOpPlansAreDistinct(t *testing.T) {
	tn := mustTuner(t, modelOnlyOpts(1))
	m, k, n := 512, 512, 512
	if tn.key(op.Multiply, m, k, n) == tn.key(op.ATA, m, k, n) {
		t.Fatal("multiply and ATA must not share a cache key")
	}
	mul, err := tn.PlanForOp(op.Multiply, m, k, n)
	if err != nil {
		t.Fatal(err)
	}
	ata, err := tn.PlanForOp(op.ATA, m, k, n)
	if err != nil {
		t.Fatal(err)
	}
	if mul.Op != "" {
		t.Fatalf("multiply plan carries op token %q, want empty", mul.Op)
	}
	if ata.Op != "ata" {
		t.Fatalf("ATA plan op token = %q, want %q", ata.Op, "ata")
	}
	// MultiplyAdd rides the multiply plan space: same decision, no new key.
	muladd, err := tn.PlanForOp(op.MultiplyAdd, m, k, n)
	if err != nil {
		t.Fatal(err)
	}
	if muladd != mul {
		t.Fatalf("muladd plan %v differs from multiply plan %v", muladd, mul)
	}

	tn.ForgetOp(op.ATA, m, k, n)
	if _, ok := tn.lru.get(tn.key(op.ATA, m, k, n)); ok {
		t.Fatal("ForgetOp(ATA) left the ATA entry")
	}
	if _, ok := tn.lru.get(tn.key(op.Multiply, m, k, n)); !ok {
		t.Fatal("ForgetOp(ATA) evicted the multiply entry")
	}
}

// TestRankOpPricesSymmetry checks the cost model's structured pricing: an
// AᵗA plan is estimated below the same shape's general multiply (its flop
// saving dominates the transpose and mirror sweeps at this size), and every
// ranked structured plan carries the op token.
func TestRankOpPricesSymmetry(t *testing.T) {
	tn := mustTuner(t, modelOnlyOpts(1))
	m := 512
	mul, err := tn.RankOp(op.Multiply, m, m, m)
	if err != nil {
		t.Fatal(err)
	}
	ata, err := tn.RankOp(op.ATA, m, m, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(mul) == 0 || len(ata) == 0 {
		t.Fatal("empty rankings")
	}
	for _, p := range ata {
		if p.Op != "ata" {
			t.Fatalf("ranked ATA plan %v missing op token", p)
		}
	}
	if ata[0].PredictedSeconds >= mul[0].PredictedSeconds {
		t.Fatalf("best ATA estimate %g not below best multiply estimate %g",
			ata[0].PredictedSeconds, mul[0].PredictedSeconds)
	}
}

// TestClassicalSymmetricIsTrianglePriced: the classical ATA and Syrk plans
// are gemm.ATA/Syrk's lower-triangle pass, so at 1024 each is ranked at no
// more than 0.6× the classical multiply of the same triple — half the flops,
// the diagonal tiles and the mirror — on every backend.
func TestClassicalSymmetricIsTrianglePriced(t *testing.T) {
	for _, w := range []int{1, 2} {
		tn := mustTuner(t, modelOnlyOpts(w))
		const n = 1024
		classical := func(o op.Op) map[string]float64 {
			plans, err := tn.RankOp(o, n, n, n)
			if err != nil {
				t.Fatal(err)
			}
			out := map[string]float64{}
			for _, p := range plans {
				if p.IsClassical() {
					out[p.Backend] = p.PredictedSeconds
				}
			}
			return out
		}
		mul := classical(op.Multiply)
		for _, o := range []op.Op{op.ATA, op.Syrk} {
			sym := classical(o)
			if len(sym) == 0 || len(sym) != len(mul) {
				t.Fatalf("w=%d %v: classical plans on %d backends, multiply on %d", w, o, len(sym), len(mul))
			}
			for be, secs := range sym {
				if secs > 0.6*mul[be] {
					t.Errorf("w=%d %v on %s: classical predicted %.4gs, multiply %.4gs (ratio %.2f > 0.6)",
						w, o, be, secs, mul[be], secs/mul[be])
				}
			}
		}
	}
}

// TestPerOpCacheRoundTrip is the acceptance check for plan persistence: an
// ATA plan decided by one tuner lands in the on-disk cache under its per-op
// key, a fresh tuner with the same options serves it without re-deciding,
// and the warm in-memory lookup is sub-microsecond.
func TestPerOpCacheRoundTrip(t *testing.T) {
	t.Setenv(EnvCacheDir, t.TempDir())
	opts := Options{Resources: Resources{Workers: 1}, Profile: testProfile(1), ProbeTopK: NoProbes}
	ta := mustTuner(t, opts)
	m := 512
	want, err := ta.PlanForOp(op.ATA, m, m, m)
	if err != nil {
		t.Fatal(err)
	}
	key := ta.key(op.ATA, m, m, m)
	persisted := Entries()
	if got, ok := persisted[key]; !ok {
		t.Fatalf("ATA plan not persisted under %s (cache holds %d entries)", key, len(persisted))
	} else if got.Op != "ata" {
		t.Fatalf("persisted plan op token = %q, want %q", got.Op, "ata")
	}

	tb := mustTuner(t, opts)
	got, err := tb.PlanForOp(op.ATA, m, m, m)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("round-tripped plan %v != original %v", got, want)
	}

	// Warm dispatch: the second lookup on a live tuner is an LRU hit. Take
	// the best of a burst to shed scheduler noise; the budget is generous
	// next to the <1µs steady state but far below any re-decide.
	best := time.Duration(1 << 62)
	for i := 0; i < 100; i++ {
		start := time.Now()
		if _, err := tb.PlanForOp(op.ATA, m, m, m); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	if best > 50*time.Microsecond {
		t.Errorf("warm per-op plan lookup took %v, want ≤ 50µs", best)
	}
}

// TestDoRejectsAliasedResult: a C that shares storage with an operand fails
// that request — no panic, operands untouched — and the tuner keeps serving.
func TestDoRejectsAliasedResult(t *testing.T) {
	tn := mustTuner(t, modelOnlyOpts(2))
	P := randOperand(192, 192, 3)
	before := P.Clone()
	A, B := P.View(0, 0, 96, 96), P.View(96, 0, 96, 96)
	for name, req := range map[string]op.Request{
		"C is A":             {Op: op.Multiply, C: A, A: A, B: B},
		"C overlaps B":       {Op: op.MultiplyAdd, C: P.View(64, 64, 96, 96), A: A, B: B},
		"ATA onto its input": {Op: op.ATA, C: A, A: A},
		"Syrk onto its rows": {Op: op.Syrk, C: P.View(0, 32, 96, 96), A: A},
	} {
		if err := tn.Do(req); err == nil {
			t.Errorf("%s: Do must fail", name)
		}
	}
	if d := mat.MaxAbsDiff(P, before); d != 0 {
		t.Fatalf("a refused request modified its operands (max diff %g)", d)
	}
	// A disjoint block of the same parent is a legal destination.
	req := op.Request{Op: op.Multiply, C: P.View(0, 96, 96, 96), A: A, B: B}.Normalized()
	want := refFor(req)
	if err := tn.Do(req); err != nil {
		t.Fatal(err)
	}
	if d := mat.MaxAbsDiff(req.C, want); d > 1e-9 {
		t.Fatalf("product into a sibling view: diff %g", d)
	}
}
