package algo

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"fastmm/internal/mat"
)

// strassen returns Strassen's ⟨2,2,2⟩ algorithm built from the S/T/C
// formulas in §2.1 of the paper (equivalently, the U,V,W of §2.2.2).
func strassen() *Algorithm {
	U := mat.FromRows([][]float64{
		{1, 0, 1, 0, 1, -1, 0},
		{0, 0, 0, 0, 1, 0, 1},
		{0, 1, 0, 0, 0, 1, 0},
		{1, 1, 0, 1, 0, 0, -1},
	})
	V := mat.FromRows([][]float64{
		{1, 1, 0, -1, 0, 1, 0},
		{0, 0, 1, 0, 0, 1, 0},
		{0, 0, 0, 1, 0, 0, 1},
		{1, 0, -1, 0, 1, 0, 1},
	})
	W := mat.FromRows([][]float64{
		{1, 0, 0, 1, -1, 0, 1},
		{0, 0, 1, 0, 1, 0, 0},
		{0, 1, 0, 1, 0, 0, 0},
		{1, -1, 1, 0, 0, 1, 0},
	})
	return &Algorithm{Name: "strassen", Base: BaseCase{2, 2, 2}, U: U, V: V, W: W}
}

func mustVerify(t *testing.T, a *Algorithm) {
	t.Helper()
	if err := a.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestStrassenVerifies(t *testing.T) { mustVerify(t, strassen()) }

func TestStrassenCosts(t *testing.T) {
	s := strassen()
	if s.Rank() != 7 {
		t.Fatalf("rank=%d", s.Rank())
	}
	if s.ClassicalMults() != 8 {
		t.Fatalf("classical mults=%d", s.ClassicalMults())
	}
	if math.Abs(s.SpeedupPerStep()-8.0/7.0) > 1e-15 {
		t.Fatalf("speedup=%v", s.SpeedupPerStep())
	}
	if math.Abs(s.Exponent()-math.Log2(7)) > 1e-12 {
		t.Fatalf("exponent=%v want log2(7)=%v", s.Exponent(), math.Log2(7))
	}
	// The paper: "Strassen's algorithm uses 7 matrix multiplications and
	// 18 matrix additions."
	if adds := s.Additions(); adds != 18 {
		t.Fatalf("additions=%d want 18", adds)
	}
	u, v, w := s.NNZ()
	if u != 12 || v != 12 || w != 12 {
		t.Fatalf("nnz=(%d,%d,%d) want (12,12,12)", u, v, w)
	}
}

func TestClassicalVerifies(t *testing.T) {
	for _, b := range []BaseCase{{1, 1, 1}, {2, 2, 2}, {2, 3, 4}, {3, 1, 2}, {4, 4, 4}} {
		c := Classical(b.M, b.K, b.N)
		mustVerify(t, c)
		if c.Rank() != b.M*b.K*b.N {
			t.Errorf("%v rank=%d", b, c.Rank())
		}
		if c.Additions() != b.M*b.N*(b.K-1) {
			t.Errorf("%v additions=%d want %d", b, c.Additions(), b.M*b.N*(b.K-1))
		}
	}
}

func TestCorruptedAlgorithmFailsVerify(t *testing.T) {
	s := strassen()
	s.U.Set(0, 0, 2) // break it
	if err := s.Verify(); err == nil {
		t.Fatal("corrupted algorithm must fail verification")
	}
}

// TestNaNAlgorithmFailsVerify: a NaN coefficient makes the reconstruction
// NaN where the tensor is a number, which must fail, never pass as 0.
func TestNaNAlgorithmFailsVerify(t *testing.T) {
	s := strassen()
	s.U.Set(0, 0, math.NaN())
	if err := s.Verify(); err == nil {
		t.Fatal("an algorithm with a NaN coefficient must fail verification")
	}
}

func TestShapeErrors(t *testing.T) {
	s := strassen()
	s.Base = BaseCase{2, 2, 3}
	if err := s.Verify(); err == nil || !strings.Contains(err.Error(), "V has") {
		t.Fatalf("want shape error, got %v", err)
	}
	s2 := strassen()
	s2.V = mat.New(4, 6)
	if err := s2.Verify(); err == nil || !strings.Contains(err.Error(), "rank mismatch") {
		t.Fatalf("want rank error, got %v", err)
	}
}

func TestTransposeProducesValidAlgorithm(t *testing.T) {
	// ⟨2,3,4⟩ classical → ⟨4,3,2⟩ (Prop 2.1).
	a := Classical(2, 3, 4)
	tr := Transpose(a)
	if tr.Base != (BaseCase{4, 3, 2}) {
		t.Fatalf("base=%v", tr.Base)
	}
	mustVerify(t, tr)
	// Involution up to naming.
	back := Transpose(tr)
	if back.Base != a.Base {
		t.Fatalf("transpose² base=%v", back.Base)
	}
	mustVerify(t, back)
}

func TestRotateProducesValidAlgorithm(t *testing.T) {
	// ⟨2,3,4⟩ → ⟨4,2,3⟩ (Prop 2.2).
	a := Classical(2, 3, 4)
	r := Rotate(a)
	if r.Base != (BaseCase{4, 2, 3}) {
		t.Fatalf("base=%v", r.Base)
	}
	mustVerify(t, r)
	// Rotate three times returns to the original base case.
	r3 := Rotate(Rotate(r))
	if r3.Base != a.Base {
		t.Fatalf("rotate³ base=%v", r3.Base)
	}
	mustVerify(t, r3)
}

func TestPermuteReachesAllSixPermutations(t *testing.T) {
	a := Classical(2, 3, 4)
	targets := []BaseCase{
		{2, 3, 4}, {2, 4, 3}, {3, 2, 4}, {3, 4, 2}, {4, 2, 3}, {4, 3, 2},
	}
	for _, b := range targets {
		p, err := Permute(a, b, "p")
		if err != nil {
			t.Fatalf("%v: %v", b, err)
		}
		if p.Base != b {
			t.Fatalf("got base %v want %v", p.Base, b)
		}
		mustVerify(t, p)
		if p.Rank() != a.Rank() {
			t.Fatalf("%v: rank changed %d→%d", b, a.Rank(), p.Rank())
		}
	}
}

func TestPermuteStrassenStaysRankSeven(t *testing.T) {
	s := strassen()
	p, err := Permute(s, BaseCase{2, 2, 2}, "same")
	if err != nil || p.Rank() != 7 {
		t.Fatalf("err=%v rank=%d", err, p.Rank())
	}
}

func TestPermuteRejectsNonPermutation(t *testing.T) {
	if _, err := Permute(strassen(), BaseCase{2, 2, 3}, "x"); err == nil {
		t.Fatal("expected error")
	}
}

func TestComposeStrassenSquared(t *testing.T) {
	s := strassen()
	c := Compose(s, s, "strassen2")
	if c.Base != (BaseCase{4, 4, 4}) || c.Rank() != 49 {
		t.Fatalf("base=%v rank=%d", c.Base, c.Rank())
	}
	mustVerify(t, c)
}

func TestComposeWithTrivial(t *testing.T) {
	// ⟨2,2,2⟩ ∘ ⟨1,1,2⟩ = ⟨2,2,4⟩ with rank 14 (Table 2's ⟨2,2,4⟩).
	s := strassen()
	c := Compose(s, Classical(1, 1, 2), "fast224")
	if c.Base != (BaseCase{2, 2, 4}) || c.Rank() != 14 {
		t.Fatalf("base=%v rank=%d", c.Base, c.Rank())
	}
	mustVerify(t, c)
	// And the other order: ⟨1,1,2⟩ ∘ ⟨2,2,2⟩ = ⟨2,2,4⟩ as well.
	c2 := Compose(Classical(1, 1, 2), s, "fast224b")
	if c2.Base != (BaseCase{2, 2, 4}) || c2.Rank() != 14 {
		t.Fatalf("base=%v rank=%d", c2.Base, c2.Rank())
	}
	mustVerify(t, c2)
}

func TestComposeRectangular(t *testing.T) {
	a := Classical(2, 1, 3)
	b := Classical(1, 2, 1)
	c := Compose(a, b, "rect")
	if c.Base != (BaseCase{2, 2, 3}) || c.Rank() != a.Rank()*b.Rank() {
		t.Fatalf("base=%v rank=%d", c.Base, c.Rank())
	}
	mustVerify(t, c)
}

func TestSplitN(t *testing.T) {
	// Strassen ⊕ classical ⟨2,2,1⟩ = rank-11 ⟨2,2,3⟩ (Hopcroft-Kerr rank).
	s, err := SplitN(strassen(), Classical(2, 2, 1), "fast223")
	if err != nil {
		t.Fatal(err)
	}
	if s.Base != (BaseCase{2, 2, 3}) || s.Rank() != 11 {
		t.Fatalf("base=%v rank=%d", s.Base, s.Rank())
	}
	mustVerify(t, s)
}

func TestSplitM(t *testing.T) {
	s, err := SplitM(strassen(), Classical(1, 2, 2), "fast322")
	if err != nil {
		t.Fatal(err)
	}
	if s.Base != (BaseCase{3, 2, 2}) || s.Rank() != 11 {
		t.Fatalf("base=%v rank=%d", s.Base, s.Rank())
	}
	mustVerify(t, s)
}

func TestSplitK(t *testing.T) {
	s, err := SplitK(strassen(), Classical(2, 1, 2), "fast232")
	if err != nil {
		t.Fatal(err)
	}
	if s.Base != (BaseCase{2, 3, 2}) || s.Rank() != 11 {
		t.Fatalf("base=%v rank=%d", s.Base, s.Rank())
	}
	mustVerify(t, s)
}

func TestSplitDimensionMismatch(t *testing.T) {
	if _, err := SplitN(strassen(), Classical(3, 2, 1), "x"); err == nil {
		t.Fatal("SplitN must reject mismatched M,K")
	}
	if _, err := SplitM(strassen(), Classical(1, 3, 2), "x"); err == nil {
		t.Fatal("SplitM must reject mismatched K,N")
	}
	if _, err := SplitK(strassen(), Classical(3, 1, 2), "x"); err == nil {
		t.Fatal("SplitK must reject mismatched M,N")
	}
}

func TestScaleColumnsEquivalence(t *testing.T) {
	s := strassen()
	dx := []float64{1, 2, -1, 0.5, 1, 4, -2}
	dy := []float64{1, 0.5, 2, 1, -1, 0.25, 1}
	sc, err := ScaleColumns(s, dx, dy)
	if err != nil {
		t.Fatal(err)
	}
	mustVerify(t, sc) // Prop 2.3: still an exact algorithm
	if _, err := ScaleColumns(s, dx[:3], dy); err == nil {
		t.Fatal("length mismatch must error")
	}
	dx[0] = 0
	if _, err := ScaleColumns(s, dx, dy); err == nil {
		t.Fatal("zero scaling must error")
	}
}

func TestPermuteColumnsEquivalence(t *testing.T) {
	s := strassen()
	p, err := PermuteColumns(s, []int{6, 5, 4, 3, 2, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	mustVerify(t, p)
	if _, err := PermuteColumns(s, []int{0, 0, 1, 2, 3, 4, 5}); err == nil {
		t.Fatal("duplicate column must error")
	}
	if _, err := PermuteColumns(s, []int{0, 1}); err == nil {
		t.Fatal("wrong length must error")
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	s := strassen()
	var buf bytes.Buffer
	if err := Format(&buf, s); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(&buf, "strassen-rt")
	if err != nil {
		t.Fatal(err)
	}
	if back.Base != s.Base || back.Rank() != s.Rank() {
		t.Fatalf("round trip changed shape: %v rank %d", back.Base, back.Rank())
	}
	mustVerify(t, back)
	if mat.MaxAbsDiff(back.U, s.U) != 0 || mat.MaxAbsDiff(back.V, s.V) != 0 || mat.MaxAbsDiff(back.W, s.W) != 0 {
		t.Fatal("round trip changed coefficients")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",                      // empty
		"2 2\n",                 // short header
		"2 2 2 7\n1 2 3\n",      // wrong row width
		"1 1 1 1\n1\n1\n1\nx\n", // extra garbage row
		"a b c d\n",             // non-numeric header
	}
	for i, c := range cases {
		if _, err := Parse(strings.NewReader(c), "bad"); err == nil {
			t.Errorf("case %d: expected parse error", i)
		}
	}
}

func TestParseIgnoresCommentsAndBlanks(t *testing.T) {
	src := "# hello\n\n1 1 1 1\n# U\n1\n\n1\n# W\n1\n"
	a, err := Parse(strings.NewReader(src), "one")
	if err != nil {
		t.Fatal(err)
	}
	mustVerify(t, a)
}

func TestCompositionAssociativityOfBase(t *testing.T) {
	// (a∘b)∘c and a∘(b∘c) must solve the same base case with the same rank
	// and both verify.
	a, b, c := strassen(), Classical(1, 2, 1), Classical(2, 1, 1)
	left := Compose(Compose(a, b, "ab"), c, "ab_c")
	right := Compose(a, Compose(b, c, "bc"), "a_bc")
	if left.Base != right.Base || left.Rank() != right.Rank() {
		t.Fatalf("assoc mismatch: %v/%d vs %v/%d", left.Base, left.Rank(), right.Base, right.Rank())
	}
	mustVerify(t, left)
	mustVerify(t, right)
}
