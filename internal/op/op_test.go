package op

import (
	"math/rand"
	"strings"
	"testing"

	"fastmm/internal/mat"
)

func TestOpVocabulary(t *testing.T) {
	keys := map[string]bool{}
	for o := Multiply; int(o) < NumOps; o++ {
		if !o.Valid() {
			t.Errorf("%s must be valid", o)
		}
		if keys[o.Key()] {
			t.Errorf("duplicate cache-key token %q", o.Key())
		}
		keys[o.Key()] = true
		unary := o == ATA || o == Syrk
		if o.Symmetric() != unary || o.UnaryOperand() != unary {
			t.Errorf("%s: Symmetric=%v UnaryOperand=%v, want both %v", o, o.Symmetric(), o.UnaryOperand(), unary)
		}
	}
	if Op(-1).Valid() || Op(NumOps).Valid() {
		t.Error("out-of-range ops must be invalid")
	}
	if MultiplyAdd.PlanOp() != Multiply || ATA.PlanOp() != ATA {
		t.Error("only MultiplyAdd shares another op's plan space")
	}
}

func TestShape(t *testing.T) {
	A, B := mat.New(5, 3), mat.New(3, 7)
	for _, tc := range []struct {
		req     Request
		m, k, n int
	}{
		{Request{Op: Multiply, A: A, B: B}, 5, 3, 7},
		{Request{Op: MultiplyAdd, A: A, B: B}, 5, 3, 7},
		{Request{Op: ATA, A: A}, 3, 5, 3},
		{Request{Op: Syrk, A: A}, 5, 3, 5},
	} {
		if m, k, n := tc.req.Shape(); m != tc.m || k != tc.k || n != tc.n {
			t.Errorf("%s shape ⟨%d,%d,%d⟩, want ⟨%d,%d,%d⟩", tc.req.Op, m, k, n, tc.m, tc.k, tc.n)
		}
	}
}

func TestNormalized(t *testing.T) {
	if r := (Request{Op: Multiply}).Normalized(); r.Alpha != 1 || r.Beta != 0 {
		t.Errorf("zero Multiply normalizes to alpha=%g beta=%g, want 1, 0", r.Alpha, r.Beta)
	}
	if r := (Request{Op: Syrk, Alpha: -2, Beta: 0.5}).Normalized(); r.Alpha != -2 || r.Beta != 0.5 {
		t.Errorf("explicit alpha/beta changed to %g, %g", r.Alpha, r.Beta)
	}
	if r := (Request{Op: MultiplyAdd, Beta: 3}).Normalized(); r.Alpha != 1 || r.Beta != 1 {
		t.Errorf("MultiplyAdd normalizes to alpha=%g beta=%g, want 1, 1", r.Alpha, r.Beta)
	}
}

func TestValidateDimensions(t *testing.T) {
	A, B := mat.New(5, 3), mat.New(3, 7)
	for _, tc := range []struct {
		name string
		req  Request
		want string // substring of the error; "" means valid
	}{
		{"multiply", Request{Op: Multiply, C: mat.New(5, 7), A: A, B: B}, ""},
		{"multiply-add", Request{Op: MultiplyAdd, C: mat.New(5, 7), A: A, B: B}, ""},
		{"ata", Request{Op: ATA, C: mat.New(3, 3), A: A}, ""},
		{"syrk", Request{Op: Syrk, C: mat.New(5, 5), A: A}, ""},
		{"empty", Request{Op: Multiply, C: mat.New(0, 7), A: mat.New(0, 3), B: B}, ""},
		{"invalid op", Request{Op: Op(NumOps), C: mat.New(5, 7), A: A, B: B}, "invalid op"},
		{"nil C", Request{Op: Multiply, A: A, B: B}, "nil operand"},
		{"nil A", Request{Op: ATA, C: mat.New(3, 3)}, "nil operand"},
		{"nil B", Request{Op: Multiply, C: mat.New(5, 7), A: A}, "nil B"},
		{"inner mismatch", Request{Op: Multiply, C: mat.New(5, 7), A: A, B: mat.New(4, 7)}, "dimension mismatch"},
		{"C rows", Request{Op: MultiplyAdd, C: mat.New(4, 7), A: A, B: B}, "dimension mismatch"},
		{"C cols", Request{Op: Multiply, C: mat.New(5, 6), A: A, B: B}, "dimension mismatch"},
		{"ata with B", Request{Op: ATA, C: mat.New(3, 3), A: A, B: B}, "takes no B"},
		{"ata C is A-shaped", Request{Op: ATA, C: mat.New(5, 5), A: A}, "C must be 3×3"},
		{"syrk with B", Request{Op: Syrk, C: mat.New(5, 5), A: A, B: B}, "takes no B"},
		{"syrk C is ata-shaped", Request{Op: Syrk, C: mat.New(3, 3), A: A}, "C must be 5×5"},
	} {
		err := tc.req.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// C may share a parent with A or B as long as no element is shared; any
// shared element is an error, whichever operand it is shared with.
func TestValidateAliasing(t *testing.T) {
	P := mat.New(12, 12)
	sq := func(i, j int) *mat.Dense { return P.View(i, j, 4, 4) }
	for _, tc := range []struct {
		name    string
		c, a, b *mat.Dense
		want    string
	}{
		{"separate allocations", mat.New(4, 4), sq(0, 0), sq(0, 4), ""},
		{"side by side", sq(0, 8), sq(0, 0), sq(0, 4), ""},
		{"stacked", sq(8, 0), sq(0, 0), sq(4, 0), ""},
		{"diagonal neighbours", sq(4, 4), sq(0, 0), sq(8, 8), ""},
		{"corner touching", sq(4, 4), sq(0, 8), sq(8, 0), ""},
		{"C is A", sq(0, 0), sq(0, 0), sq(0, 4), "C aliases A"},
		{"C is B", sq(0, 4), sq(0, 0), sq(0, 4), "C aliases B"},
		{"one shared column", sq(0, 3), sq(0, 0), sq(4, 8), "C aliases A"},
		{"one shared row", sq(3, 4), sq(8, 0), sq(0, 4), "C aliases B"},
		{"one shared element", sq(3, 3), sq(0, 0), sq(8, 8), "C aliases A"},
		{"C below and left of A", sq(3, 0), sq(0, 3), sq(8, 8), "C aliases A"},
		{"C across B's edge", sq(8, 2), P.View(0, 0, 4, 8), P.View(4, 0, 8, 4), "C aliases B"},
	} {
		err := Request{Op: Multiply, C: tc.c, A: tc.a, B: tc.b}.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}

	// Unary ops: the result must not share storage with the one operand.
	A := P.View(0, 0, 6, 4)
	if err := (Request{Op: ATA, C: P.View(6, 0, 4, 4), A: A}).Validate(); err != nil {
		t.Errorf("ATA into a disjoint block: %v", err)
	}
	if err := (Request{Op: ATA, C: P.View(5, 0, 4, 4), A: A}).Validate(); err == nil {
		t.Error("ATA into a block overlapping A must fail")
	}
	if err := (Request{Op: Syrk, C: P.View(0, 0, 6, 6), A: A}).Validate(); err == nil {
		t.Error("Syrk into a block containing A must fail")
	}

	// Different strides over one buffer cannot be compared block by block;
	// the address ranges decide, on the safe side.
	buf := make([]float64, 64)
	wide, narrow := mat.FromSlice(4, 8, buf[:32]), mat.FromSlice(4, 4, buf[16:32])
	if err := (Request{Op: Multiply, C: narrow, A: wide.View(0, 0, 4, 4), B: mat.New(4, 4)}).Validate(); err == nil {
		t.Error("views with different strides over overlapping ranges must fail")
	}
	if err := (Request{Op: Multiply, C: mat.FromSlice(4, 4, buf[32:48]), A: wide.View(0, 0, 4, 4), B: mat.New(4, 4)}).Validate(); err != nil {
		t.Errorf("views over disjoint ranges of one buffer: %v", err)
	}

	// Empty operands own no storage and alias nothing.
	if err := (Request{Op: Multiply, C: P.View(0, 0, 0, 4), A: P.View(0, 0, 0, 4), B: sq(0, 0)}).Validate(); err != nil {
		t.Errorf("empty views: %v", err)
	}
}

// The O(1) overlap rule agrees with marking every element, over random pairs
// of views of one parent (1-wide, 1-high and full-width views included).
func TestOverlapsMatchesElementwise(t *testing.T) {
	const rows, cols = 9, 7
	P := mat.New(rows, cols)
	rng := rand.New(rand.NewSource(1))
	view := func() (*mat.Dense, [4]int) {
		i, j := rng.Intn(rows), rng.Intn(cols)
		r, c := 1+rng.Intn(rows-i), 1+rng.Intn(cols-j)
		return P.View(i, j, r, c), [4]int{i, j, r, c}
	}
	for trial := 0; trial < 20000; trial++ {
		x, xb := view()
		y, yb := view()
		want := xb[0] < yb[0]+yb[2] && yb[0] < xb[0]+xb[2] && xb[1] < yb[1]+yb[3] && yb[1] < xb[1]+xb[3]
		if got := overlaps(x, y); got != want {
			t.Fatalf("overlaps(%v, %v) = %v, want %v", xb, yb, got, want)
		}
	}
}

// Validate sits on the batcher's zero-allocation submit path.
func TestValidateDoesNotAllocate(t *testing.T) {
	P := mat.New(8, 8)
	req := Request{Op: Multiply, C: P.View(0, 4, 4, 4), A: P.View(0, 0, 4, 4), B: P.View(4, 0, 4, 4)}
	if avg := testing.AllocsPerRun(100, func() {
		if err := req.Validate(); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("Validate allocates %.1f times per call", avg)
	}
}
