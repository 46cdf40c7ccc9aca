// Package op defines the operation vocabulary of the framework: the Op enum
// naming each structured product the stack can plan (general multiply,
// Gram/AᵗA, SYRK, accumulate fusion) and the Request struct that carries one
// operation through the operation-typed dispatch paths (fastmm.Do,
// tuner.Tuner.Do, batch.Batcher.SubmitRequest).
//
// Every layer that used to hard-code "C = A·B" keys on an Op instead: the
// tuner caches plans per (op, shape), the batcher buckets warm entries per
// (op, shape class), and the cost model prices the symmetric operations at
// their reduced flop count: AᵗA and A·Aᵗ run only as one classical
// lower-triangle pass at about ½ the flops of a general multiply.
package op

import (
	"fmt"
	"unsafe"

	"fastmm/internal/mat"
	"fastmm/internal/trace"
)

// Op identifies a structured multiplication operation.
type Op int

const (
	// Multiply is the general product C = A·B.
	Multiply Op = iota
	// ATA is the Gram product C = Aᵗ·A (C is symmetric n×n for A m×n).
	ATA
	// Syrk is the symmetric rank-k update C = A·Aᵗ (C is m×m for A m×n).
	Syrk
	// MultiplyAdd is the accumulate fusion C += A·B — a Multiply with
	// Beta = 1. It shares Multiply's plan space (the tuned algorithm choice
	// is identical; only the epilogue differs).
	MultiplyAdd

	numOps
)

// NumOps is the number of defined operations.
const NumOps = int(numOps)

// Valid reports whether the op is one of the defined operations.
func (o Op) Valid() bool { return o >= Multiply && o < numOps }

func (o Op) String() string {
	switch o {
	case Multiply:
		return "multiply"
	case ATA:
		return "ata"
	case Syrk:
		return "syrk"
	case MultiplyAdd:
		return "multiply-add"
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Key is the op's short cache-key token — stable across releases because
// persisted tuning entries embed it.
func (o Op) Key() string {
	switch o {
	case Multiply:
		return "mul"
	case ATA:
		return "ata"
	case Syrk:
		return "syrk"
	case MultiplyAdd:
		return "muladd"
	}
	return fmt.Sprintf("op%d", int(o))
}

// PlanOp maps the op onto the operation whose tuned plans it shares:
// MultiplyAdd rides Multiply's plan space (same candidates, same cache
// entries — only the run-time epilogue accumulates); every other op plans as
// itself.
func (o Op) PlanOp() Op {
	if o == MultiplyAdd {
		return Multiply
	}
	return o
}

// Symmetric reports whether the op's result is symmetric by construction
// (the structured executors enforce C[i][j] == C[j][i] exactly).
func (o Op) Symmetric() bool { return o == ATA || o == Syrk }

// UnaryOperand reports whether the op takes only the A operand (B must be
// nil or is ignored).
func (o Op) UnaryOperand() bool { return o == ATA || o == Syrk }

// Shape returns the gemm-equivalent product triple ⟨m,k,n⟩ of the op on an
// ar×ac operand A (and, for binary ops, bc = B.Cols()): C is m×n with inner
// dimension k. This triple is the tuning and shape-class currency — ATA on an
// m×n matrix prices and buckets as ⟨n,m,n⟩, Syrk as ⟨m,n,m⟩.
func (o Op) Shape(ar, ac, bc int) (m, k, n int) {
	switch o {
	case ATA:
		return ac, ar, ac
	case Syrk:
		return ar, ac, ar
	default:
		return ar, ac, bc
	}
}

// Request is one operation-typed work item: C = Alpha·op(A,B) + Beta·C.
//
// Semantics per op:
//
//	Multiply:    C = Alpha·A·B  + Beta·C
//	MultiplyAdd: C = Alpha·A·B  + C        (Beta forced to 1)
//	ATA:         C = Alpha·AᵗA  + Beta·C   (B must be nil)
//	Syrk:        C = Alpha·A·Aᵗ + Beta·C   (B must be nil)
//
// The zero Alpha means 1 (so the zero Request value of an op is the plain
// product); Beta zero means overwrite. C must not share storage with A or B
// (disjoint views of one parent are fine); Validate rejects a request whose
// C does.
type Request struct {
	Op          Op
	C           *mat.Dense
	A           *mat.Dense
	B           *mat.Dense // nil for ATA/Syrk
	Alpha, Beta float64
	// Trace, when non-nil, receives execution spans (scheduler choice,
	// recursion steps, leaf gemm calls) from the layers the request passes
	// through. The sink is fixed-capacity and allocation-free; a nil Trace
	// (the common case) costs each layer one pointer check.
	Trace *trace.Spans
}

// Normalized resolves the request's defaults: Alpha 0 → 1, and MultiplyAdd
// canonicalizes to Beta = 1 (its defining property).
func (r Request) Normalized() Request {
	if r.Alpha == 0 {
		r.Alpha = 1
	}
	if r.Op == MultiplyAdd {
		r.Beta = 1
	}
	return r
}

// Shape returns the request's gemm-equivalent product triple ⟨m,k,n⟩.
func (r Request) Shape() (m, k, n int) {
	bc := 0
	if r.B != nil {
		bc = r.B.Cols()
	}
	return r.Op.Shape(r.A.Rows(), r.A.Cols(), bc)
}

// Validate checks the request's operands against its op's dimension rules
// and rejects a C that shares storage with A or B: every executor reads the
// operands while it writes the result, so an aliased call would return
// garbage rather than fail.
func (r Request) Validate() error {
	if !r.Op.Valid() {
		return fmt.Errorf("op: invalid op %d", int(r.Op))
	}
	if r.C == nil || r.A == nil {
		return fmt.Errorf("op: %s: nil operand", r.Op)
	}
	switch r.Op {
	case ATA:
		if r.B != nil {
			return fmt.Errorf("op: %s takes no B operand", r.Op)
		}
		if n := r.A.Cols(); r.C.Rows() != n || r.C.Cols() != n {
			return fmt.Errorf("op: %s: C must be %d×%d for A %d×%d, got %d×%d",
				r.Op, n, n, r.A.Rows(), r.A.Cols(), r.C.Rows(), r.C.Cols())
		}
	case Syrk:
		if r.B != nil {
			return fmt.Errorf("op: %s takes no B operand", r.Op)
		}
		if m := r.A.Rows(); r.C.Rows() != m || r.C.Cols() != m {
			return fmt.Errorf("op: %s: C must be %d×%d for A %d×%d, got %d×%d",
				r.Op, m, m, r.A.Rows(), r.A.Cols(), r.C.Rows(), r.C.Cols())
		}
	default: // Multiply, MultiplyAdd
		if r.B == nil {
			return fmt.Errorf("op: %s: nil B operand", r.Op)
		}
		if r.A.Cols() != r.B.Rows() || r.C.Rows() != r.A.Rows() || r.C.Cols() != r.B.Cols() {
			return fmt.Errorf("op: %s: dimension mismatch C %d×%d = A %d×%d · B %d×%d",
				r.Op, r.C.Rows(), r.C.Cols(), r.A.Rows(), r.A.Cols(), r.B.Rows(), r.B.Cols())
		}
	}
	if overlaps(r.C, r.A) {
		return fmt.Errorf("op: %s: C aliases A", r.Op)
	}
	if r.B != nil && overlaps(r.C, r.B) {
		return fmt.Errorf("op: %s: C aliases B", r.Op)
	}
	return nil
}

// overlaps reports whether two matrices share any element of storage, in
// O(1). Views with one row stride — in practice views of one parent — are
// compared exactly, so disjoint blocks of a parent (side by side, or
// interleaved row by row) do not overlap. Views with different strides are
// compared by their address ranges alone, which can only err towards
// reporting an overlap.
func overlaps(x, y *mat.Dense) bool {
	xd, yd := x.Data(), y.Data()
	if len(xd) == 0 || len(yd) == 0 {
		return false
	}
	const word = unsafe.Sizeof(float64(0))
	x0, y0 := uintptr(unsafe.Pointer(&xd[0])), uintptr(unsafe.Pointer(&yd[0]))
	if x0+uintptr(len(xd))*word <= y0 || y0+uintptr(len(yd))*word <= x0 {
		return false
	}
	s := x.Stride()
	if s != y.Stride() || x.Cols() > s || y.Cols() > s {
		return true
	}
	// Row i of x covers elements [i·s, i·s+x.Cols) and row j of y covers
	// [d+j·s, d+j·s+y.Cols), d being y's offset from x. The two meet iff
	// -y.Cols < d+t·s < x.Cols for some row difference t = j-i the shapes
	// allow; as both widths are at most s, only the two smallest t with
	// d+t·s > -y.Cols can satisfy it.
	d := (int(y0) - int(x0)) / int(word)
	t := floorDiv(-y.Cols()-d, s) + 1
	for ; t*s+d < x.Cols(); t++ {
		if t > -x.Rows() && t < y.Rows() {
			return true
		}
	}
	return false
}

// floorDiv is a/b rounded towards negative infinity, for b > 0.
func floorDiv(a, b int) int {
	q := a / b
	if a%b < 0 {
		q--
	}
	return q
}
