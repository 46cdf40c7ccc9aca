package addchain

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fastmm/internal/catalog"
	"fastmm/internal/mat"
)

func TestFromColumnsStrassen(t *testing.T) {
	s := catalog.Strassen()
	p := FromColumns(s.U)
	if p.NumSources != 4 || len(p.Outputs) != 7 {
		t.Fatalf("sources=%d outputs=%d", p.NumSources, len(p.Outputs))
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// S3 = A11: a copy; S1 = A11 + A22: two terms.
	if ch := p.Outputs[2]; len(ch.Terms) != 1 || ch.Terms[0].Coeff != 1 {
		t.Fatalf("S3 should be a copy: %+v", p.Outputs[2])
	}
	if len(p.Outputs[0].Terms) != 2 {
		t.Fatalf("S1 terms: %+v", p.Outputs[0])
	}
	// Strassen's S-side has 5 additions (18 total = 5 U + 5 V + 8 W).
	if p.Additions() != 5 {
		t.Fatalf("U additions=%d want 5", p.Additions())
	}
}

func TestFromRowsStrassen(t *testing.T) {
	s := catalog.Strassen()
	p := FromRows(s.W)
	if p.NumSources != 7 || len(p.Outputs) != 4 {
		t.Fatalf("sources=%d outputs=%d", p.NumSources, len(p.Outputs))
	}
	if p.Additions() != 8 {
		t.Fatalf("W additions=%d want 8", p.Additions())
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEvaluateMatchesFactorAlgebra(t *testing.T) {
	s := catalog.Strassen()
	p := FromColumns(s.U)
	src := []float64{1, 2, 3, 4} // a11..a22
	got := p.Evaluate(src)
	// S1=a11+a22=5, S2=a21+a22=7, S3=a11=1, S4=a22=4, S5=a11+a12=3,
	// S6=a21-a11=2, S7=a12-a22=-2.
	want := []float64{5, 7, 1, 4, 3, 2, -2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("S%d=%v want %v", i+1, got[i], want[i])
		}
	}
}

// The paper's §3.3 worked example: T11 = B24 − B12 − B22 and
// T25 = B23 + B12 + B22 share B12+B22 up to sign; CSE should hoist it.
func TestCSEPaperExample(t *testing.T) {
	// Sources: 0=B12, 1=B22, 2=B24, 3=B23.
	p := &Plan{
		NumSources: 4,
		Outputs: []Chain{
			{Dst: 0, Terms: []Term{{2, 1}, {0, -1}, {1, -1}}},
			{Dst: 1, Terms: []Term{{3, 1}, {0, 1}, {1, 1}}},
		},
	}
	before := p.Additions()
	src := []float64{3, 5, 7, 11}
	wantVals := p.Evaluate(src)
	stats := p.ApplyCSE()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if stats.Eliminated != 1 {
		t.Fatalf("eliminated=%d want 1", stats.Eliminated)
	}
	if p.Additions() != before-1 {
		t.Fatalf("adds %d→%d, want 1 saved", before, p.Additions())
	}
	gotVals := p.Evaluate(src)
	for i := range wantVals {
		if gotVals[i] != wantVals[i] {
			t.Fatalf("CSE changed semantics: out %d %v→%v", i, wantVals[i], gotVals[i])
		}
	}
	if len(p.Aux) != 1 || len(p.Aux[0].Terms) != 2 {
		t.Fatalf("aux=%+v", p.Aux)
	}
}

func TestCSERepeatedPairSavesMore(t *testing.T) {
	// The same pair in k=3 chains: saves k−1=2 additions with 1 temp.
	p := &Plan{
		NumSources: 3,
		Outputs: []Chain{
			{Dst: 0, Terms: []Term{{0, 1}, {1, 1}}},
			{Dst: 1, Terms: []Term{{0, 2}, {1, 2}, {2, 1}}},
			{Dst: 2, Terms: []Term{{0, -1}, {1, -1}, {2, 5}}},
		},
	}
	src := []float64{2, 3, 4}
	want := p.Evaluate(src)
	stats := p.ApplyCSE()
	if stats.Eliminated != 1 || stats.AdditionsSaved != 2 {
		t.Fatalf("stats=%+v", stats)
	}
	got := p.Evaluate(src)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("semantics changed at %d", i)
		}
	}
}

func TestCSEOnWinogradUChains(t *testing.T) {
	// Winograd's structure has shared subexpressions in U (e.g. A21+A22);
	// greedy CSE must find at least one and preserve semantics.
	w := catalog.Winograd()
	p := FromColumns(w.U)
	src := []float64{1.5, -2, 3.25, 0.5}
	want := p.Evaluate(src)
	stats := p.ApplyCSE()
	if stats.Eliminated == 0 {
		t.Fatal("expected at least one elimination in Winograd U")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	got := p.Evaluate(src)
	for i := range want {
		d := got[i] - want[i]
		if d > 1e-12 || d < -1e-12 {
			t.Fatalf("semantics changed at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

// Property: ApplyCSE never changes the evaluated outputs, for random plans.
func TestCSESemanticsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ns := r.Intn(6) + 2
		nout := r.Intn(8) + 2
		p := &Plan{NumSources: ns}
		for o := 0; o < nout; o++ {
			ch := Chain{Dst: o}
			perm := r.Perm(ns)
			nt := r.Intn(ns) + 1
			for _, s := range perm[:nt] {
				coef := []float64{1, -1, 2, -2, 0.5}[r.Intn(5)]
				ch.Terms = append(ch.Terms, Term{Src: s, Coeff: coef})
			}
			p.Outputs = append(p.Outputs, ch)
		}
		src := make([]float64, ns)
		for i := range src {
			src[i] = 2*rng.Float64() - 1
		}
		want := p.Evaluate(src)
		p.ApplyCSE()
		if p.Validate() != nil {
			return false
		}
		got := p.Evaluate(src)
		for i := range want {
			d := got[i] - want[i]
			if d > 1e-9 || d < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestCostModelStrassenU(t *testing.T) {
	s := catalog.Strassen()
	p := FromColumns(s.U)
	// 5 multi-term chains, each with 2 terms (S1,S2,S5,S6,S7); copies free.
	pw := p.Cost(Pairwise)
	if pw.Reads != 5*3 || pw.Writes != 5*2 {
		t.Fatalf("pairwise=%+v", pw)
	}
	wo := p.Cost(WriteOnce)
	if wo.Reads != 10 || wo.Writes != 5 {
		t.Fatalf("write-once=%+v", wo)
	}
	st := p.Cost(Streaming)
	if st.Writes != 5 || st.Reads != 4 {
		t.Fatalf("streaming=%+v", st)
	}
	// Paper's ordering: streaming reads ≤ write-once reads ≤ pairwise reads.
	if !(st.Reads <= wo.Reads && wo.Reads <= pw.Reads) {
		t.Fatal("read-count ordering violated")
	}
}

func TestCSEReadWriteTradeoff(t *testing.T) {
	// §3.3: a length-2 subexpression used k times changes write-once
	// reads+writes by 3−k, so k=2 must make write-once cost worse or equal,
	// while k=4 must strictly improve it.
	mk := func(k int) *Plan {
		p := &Plan{NumSources: 3}
		for o := 0; o < k; o++ {
			p.Outputs = append(p.Outputs, Chain{Dst: o,
				Terms: []Term{{0, 1}, {1, 1}, {2, float64(o + 1)}}})
		}
		return p
	}
	p2 := mk(2)
	before2 := p2.Cost(WriteOnce)
	p2.ApplyCSE()
	after2 := p2.Cost(WriteOnce)
	if after2.Reads+after2.Writes < before2.Reads+before2.Writes {
		t.Fatalf("k=2 should not improve write-once: %+v → %+v", before2, after2)
	}
	p4 := mk(4)
	before4 := p4.Cost(WriteOnce)
	p4.ApplyCSE()
	after4 := p4.Cost(WriteOnce)
	if after4.Reads+after4.Writes >= before4.Reads+before4.Writes {
		t.Fatalf("k=4 should improve write-once: %+v → %+v", before4, after4)
	}
}

func TestStrategyString(t *testing.T) {
	if Pairwise.String() != "pairwise" || WriteOnce.String() != "write-once" || Streaming.String() != "streaming" {
		t.Fatal("strategy names")
	}
	if Strategy(9).String() == "" {
		t.Fatal("unknown strategy should still print")
	}
}

func TestValidateCatchesBadPlans(t *testing.T) {
	p := &Plan{NumSources: 2, Outputs: []Chain{{Dst: 0, Terms: []Term{{Src: 5, Coeff: 1}}}}}
	if p.Validate() == nil {
		t.Fatal("out-of-range source must fail")
	}
	p2 := &Plan{NumSources: 2, Aux: []Chain{{Dst: 2, Terms: []Term{{Src: 3, Coeff: 1}}}}}
	if p2.Validate() == nil {
		t.Fatal("forward aux reference must fail")
	}
	p3 := &Plan{NumSources: 1, Outputs: []Chain{{Dst: 0, Terms: []Term{{Src: 0, Coeff: 0}}}}}
	if p3.Validate() == nil {
		t.Fatal("zero coefficient must fail")
	}
}

// Cross-check the plan against real matrix arithmetic through mat.Combine.
func TestPlanAgainstMatrixOps(t *testing.T) {
	s := catalog.Strassen()
	p := FromColumns(s.V)
	rng := rand.New(rand.NewSource(4))
	blocks := make([]*mat.Dense, 4)
	for i := range blocks {
		blocks[i] = mat.New(3, 3)
		blocks[i].FillRandom(rng)
	}
	for r, ch := range p.Outputs {
		want := mat.New(3, 3)
		for _, term := range ch.Terms {
			mat.Axpy(want, term.Coeff, blocks[term.Src])
		}
		// Scalar shadow at each matrix position must agree.
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				src := make([]float64, 4)
				for b := range blocks {
					src[b] = blocks[b].At(i, j)
				}
				if got := p.Evaluate(src)[r]; got != want.At(i, j) {
					t.Fatalf("T%d mismatch at (%d,%d)", r+1, i, j)
				}
			}
		}
	}
}
