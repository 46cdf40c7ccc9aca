// Package mat provides dense, row-major, float64 matrices with cheap
// rectangular views. It is the storage substrate for the fast
// matrix-multiplication framework: recursive algorithms operate on views of
// the original operands, so a view must alias its parent without copying.
//
// The package is deliberately minimal: matrices, views, element access, and
// the linear-combination kernels (axpy, n-ary combinations) that the
// addition-chain strategies of Benson & Ballard §3.2 are built from.
// Multiplication lives in package gemm and package core.
package mat

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"unsafe"
)

// Dense is a dense row-major matrix, possibly a view into a larger matrix.
// The zero value is an empty (0×0) matrix ready to use.
type Dense struct {
	rows, cols int
	stride     int
	data       []float64
}

// New returns a freshly allocated, zeroed r×c matrix.
func New(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimensions %d×%d", r, c))
	}
	return &Dense{rows: r, cols: c, stride: c, data: make([]float64, r*c)}
}

// Scaled pairs a matrix with a scalar coefficient. It is the operand unit of
// the fused blocked engine (gemm.GemmFused): a linear combination Σ c_t·M_t is
// expressed as a []Scaled, and the packing/epilogue layers apply the
// coefficients in place instead of materializing the sum. It lives here (not
// in gemm) so arena allocators can hand out []Scaled scratch without an
// import cycle.
type Scaled struct {
	M     *Dense
	Coeff float64
	// Overwrite marks a fused-engine destination whose prior contents are
	// ignored: the first panel writes Coeff·P over the block instead of
	// accumulating, saving the zero-then-read-modify-write round trip the
	// executor would otherwise pay on every first-touch block.
	Overwrite bool
}

// FromRows builds a matrix from a slice of equal-length rows. It copies the
// data.
func FromRows(rows [][]float64) *Dense {
	r := len(rows)
	if r == 0 {
		return New(0, 0)
	}
	c := len(rows[0])
	m := New(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("mat: ragged rows: row 0 has %d cols, row %d has %d", c, i, len(row)))
		}
		copy(m.Row(i), row)
	}
	return m
}

// FromSlice wraps data (row-major, length r*c) without copying.
func FromSlice(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: FromSlice length %d != %d×%d", len(data), r, c))
	}
	return &Dense{rows: r, cols: c, stride: c, data: data}
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// Stride returns the row stride of the underlying storage.
func (m *Dense) Stride() int { return m.stride }

// Data exposes the underlying storage (including any view gap). Intended for
// kernels; most callers should use Row or At.
func (m *Dense) Data() []float64 { return m.data }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 { return m.data[i*m.stride+j] }

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.stride+j] = v }

// Row returns row i as a slice of length Cols aliasing the matrix storage.
func (m *Dense) Row(i int) []float64 {
	off := i * m.stride
	return m.data[off : off+m.cols : off+m.cols]
}

// View returns an r×c view with upper-left corner at (i, j), sharing storage
// with m. Mutations through the view are visible in m and vice versa.
func (m *Dense) View(i, j, r, c int) *Dense {
	v := &Dense{}
	m.ViewInto(v, i, j, r, c)
	return v
}

// Reset reinitializes m in place as an r×c matrix (stride c) over data,
// which must have length r*c and is aliased, not copied. It is the
// allocation-free counterpart of FromSlice used by arena allocators
// (internal/workspace) to stamp matrices onto preallocated headers.
func (m *Dense) Reset(r, c int, data []float64) {
	if r < 0 || c < 0 || len(data) != r*c {
		//fastmm:allow panic-path message construction
		panic(fmt.Sprintf("mat: Reset length %d != %d×%d", len(data), r, c))
	}
	m.rows, m.cols, m.stride, m.data = r, c, c, data
}

// ViewInto initializes dst as the r×c view of m with upper-left corner at
// (i, j) — View's aliasing semantics without allocating the header. dst's
// previous contents are overwritten.
func (m *Dense) ViewInto(dst *Dense, i, j, r, c int) {
	if i < 0 || j < 0 || r < 0 || c < 0 || i+r > m.rows || j+c > m.cols {
		//fastmm:allow panic-path message construction
		panic(fmt.Sprintf("mat: view [%d:%d, %d:%d] out of bounds of %d×%d", i, i+r, j, j+c, m.rows, m.cols))
	}
	if r == 0 || c == 0 {
		dst.rows, dst.cols, dst.stride, dst.data = r, c, m.stride, nil
		return
	}
	off := i*m.stride + j
	end := off + (r-1)*m.stride + c
	dst.rows, dst.cols, dst.stride, dst.data = r, c, m.stride, m.data[off:end]
}

// Overlaps reports whether x and y share any element of storage, in O(1).
// Views with one row stride — in practice views of one parent — are
// compared exactly, so disjoint blocks of a parent (side by side, or
// interleaved row by row) do not overlap. Views with different strides are
// compared by their address ranges alone, which can only err towards
// reporting an overlap. Every product entry point refuses a C that overlaps
// an operand: it reads the operands while it writes the result.
func Overlaps(x, y *Dense) bool {
	xd, yd := x.data, y.data
	if len(xd) == 0 || len(yd) == 0 {
		return false
	}
	const word = unsafe.Sizeof(float64(0))
	x0, y0 := uintptr(unsafe.Pointer(&xd[0])), uintptr(unsafe.Pointer(&yd[0]))
	if x0+uintptr(len(xd))*word <= y0 || y0+uintptr(len(yd))*word <= x0 {
		return false
	}
	s := x.stride
	if s != y.stride || x.cols > s || y.cols > s {
		return true
	}
	// Row i of x covers elements [i·s, i·s+x.cols) and row j of y covers
	// [d+j·s, d+j·s+y.cols), d being y's offset from x. The two meet iff
	// -y.cols < d+t·s < x.cols for some row difference t = j-i the shapes
	// allow; as both widths are at most s, only the two smallest t with
	// d+t·s > -y.cols can satisfy it.
	d := (int(y0) - int(x0)) / int(word)
	t := floorDiv(-y.cols-d, s) + 1
	for ; t*s+d < x.cols; t++ {
		if t > -x.rows && t < y.rows {
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

// Clone returns a compact (stride == cols) deep copy of m.
func (m *Dense) Clone() *Dense {
	out := New(m.rows, m.cols)
	out.CopyFrom(m)
	return out
}

// CopyFrom copies src into m. Dimensions must match.
func (m *Dense) CopyFrom(src *Dense) {
	m.mustSameDims(src, "CopyFrom")
	for i := 0; i < m.rows; i++ {
		copy(m.Row(i), src.Row(i))
	}
}

// Zero sets every element to 0.
func (m *Dense) Zero() {
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = 0
		}
	}
}

// Fill sets every element to v.
func (m *Dense) Fill(v float64) {
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = v
		}
	}
}

// FillRandom fills m with uniform random values in [-1, 1).
func (m *Dense) FillRandom(rng *rand.Rand) {
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = 2*rng.Float64() - 1
		}
	}
}

// Eye returns the n×n identity matrix.
func Eye(n int) *Dense {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// MaxAbs returns max |m_ij|, 0 for an empty matrix.
func (m *Dense) MaxAbs() float64 {
	var v float64
	for i := 0; i < m.rows; i++ {
		for _, x := range m.Row(i) {
			if a := math.Abs(x); a > v {
				v = a
			}
		}
	}
	return v
}

// FrobNorm returns the Frobenius norm of m.
func (m *Dense) FrobNorm() float64 {
	var s float64
	for i := 0; i < m.rows; i++ {
		for _, x := range m.Row(i) {
			s += x * x
		}
	}
	return math.Sqrt(s)
}

// AbsDiff is |x − y| for a correctness oracle: equal values differ by 0,
// equal infinities and two NaNs included, and a NaN against a number differs
// by +Inf, so a NaN on one side can never pass a tolerance.
func AbsDiff(x, y float64) float64 {
	switch xn, yn := math.IsNaN(x), math.IsNaN(y); {
	case x == y || xn && yn:
		return 0
	case xn || yn:
		return math.Inf(1)
	}
	return math.Abs(x - y)
}

// MaxAbsDiff returns max |a_ij − b_ij| under AbsDiff's rules. Dimensions
// must match.
func MaxAbsDiff(a, b *Dense) float64 {
	a.mustSameDims(b, "MaxAbsDiff")
	var v float64
	for i := 0; i < a.rows; i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			v = max(v, AbsDiff(ra[j], rb[j]))
		}
	}
	return v
}

// EqualApprox reports whether a and b have the same shape and agree
// elementwise within tol.
func EqualApprox(a, b *Dense, tol float64) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	if a.rows == 0 || a.cols == 0 {
		return true
	}
	return MaxAbsDiff(a, b) <= tol
}

// transposeTile is the edge of the square blocks Transpose and MirrorLower
// copy through, and transposeRows how many source rows transposeBlock reads
// side by side. Each pass over a block stores a run of eight contiguous
// values — a cache line's worth — into each of its 64 destination rows
// (4 KiB, held in L1 while the source rows stream by), where one scalar
// store per row and pass would take eight passes to fill the same lines.
const (
	transposeTile = 64
	transposeRows = 8
)

// Transpose writes srcᵀ into dst. dst must be Cols(src)×Rows(src).
func Transpose(dst, src *Dense) {
	if dst.rows != src.cols || dst.cols != src.rows {
		//fastmm:allow panic-path message construction
		panic(fmt.Sprintf("mat: Transpose dims %d×%d vs %d×%d", dst.rows, dst.cols, src.rows, src.cols))
	}
	for i0 := 0; i0 < src.rows; i0 += transposeTile {
		i1 := min(i0+transposeTile, src.rows)
		for j0 := 0; j0 < src.cols; j0 += transposeTile {
			transposeBlock(dst, src, i0, i1, j0, min(j0+transposeTile, src.cols))
		}
	}
}

// MirrorLower copies the strict lower triangle of the square matrix C onto
// its strict upper one, C[j][i] = C[i][j] for i > j, in Transpose's blocks.
// The upper triangle becomes a copy, so the two agree bit for bit.
func MirrorLower(C *Dense) {
	n := C.rows
	if C.cols != n {
		//fastmm:allow panic-path message construction
		panic(fmt.Sprintf("mat: MirrorLower of non-square %d×%d", C.rows, C.cols))
	}
	for i0 := 0; i0 < n; i0 += transposeTile {
		i1 := min(i0+transposeTile, n)
		for j0 := 0; j0 < i0; j0 += transposeTile {
			transposeBlock(C, C, i0, i1, j0, j0+transposeTile)
		}
		// The diagonal block, transposeRows rows at a time: the rows'
		// columns left of the group go through transposeBlock, the small
		// triangle on the diagonal element by element.
		for i := i0; i < i1; i += transposeRows {
			r := min(transposeRows, i1-i)
			transposeBlock(C, C, i, i+r, i0, i)
			for a := 1; a < r; a++ {
				for b := 0; b < a; b++ {
					C.data[(i+b)*C.stride+i+a] = C.data[(i+a)*C.stride+i+b]
				}
			}
		}
	}
}

// transposeBlock writes src[i0:i1, j0:j1]ᵀ into dst[j0:j1, i0:i1],
// gathering transposeRows source rows per pass so each destination row
// takes their values as one contiguous run; the last (i1−i0) mod
// transposeRows rows go one value at a time. dst may be src when the two
// regions do not overlap.
func transposeBlock(dst, src *Dense, i0, i1, j0, j1 int) {
	i := i0
	for ; i+transposeRows <= i1; i += transposeRows {
		r0 := src.Row(i)[j0:j1:j1]
		// Same length as r0: no bounds checks in the loop.
		r1 := src.Row(i + 1)[j0:j1][:len(r0)]
		r2 := src.Row(i + 2)[j0:j1][:len(r0)]
		r3 := src.Row(i + 3)[j0:j1][:len(r0)]
		r4 := src.Row(i + 4)[j0:j1][:len(r0)]
		r5 := src.Row(i + 5)[j0:j1][:len(r0)]
		r6 := src.Row(i + 6)[j0:j1][:len(r0)]
		r7 := src.Row(i + 7)[j0:j1][:len(r0)]
		o := j0*dst.stride + i
		for j, v := range r0 {
			d := dst.data[o : o+transposeRows : o+transposeRows]
			d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = v, r1[j], r2[j], r3[j], r4[j], r5[j], r6[j], r7[j]
			o += dst.stride
		}
	}
	for ; i < i1; i++ {
		o := j0*dst.stride + i
		for _, v := range src.Row(i)[j0:j1] {
			dst.data[o] = v
			o += dst.stride
		}
	}
}

// Scale writes alpha*src into dst (dst = src allowed).
func Scale(dst *Dense, alpha float64, src *Dense) {
	dst.mustSameDims(src, "Scale")
	for i := 0; i < dst.rows; i++ {
		rd, rs := dst.Row(i), src.Row(i)
		for j := range rd {
			rd[j] = alpha * rs[j]
		}
	}
}

// Axpy computes y += alpha*x, the daxpy kernel used by the pairwise addition
// strategy (§3.2, method 1).
func Axpy(y *Dense, alpha float64, x *Dense) {
	y.mustSameDims(x, "Axpy")
	for i := 0; i < y.rows; i++ {
		ry, rx := y.Row(i), x.Row(i)
		if alpha == 1 {
			for j := range ry {
				ry[j] += rx[j]
			}
		} else if alpha == -1 {
			for j := range ry {
				ry[j] -= rx[j]
			}
		} else {
			for j := range ry {
				ry[j] += alpha * rx[j]
			}
		}
	}
}

// Combine writes dst = Σ coeffs[t]*srcs[t] in a single pass over dst — one
// write per output element. This is the write-once addition strategy (§3.2,
// method 2). All srcs must have dst's dimensions and coeffs must be nonempty
// and the same length as srcs.
func Combine(dst *Dense, coeffs []float64, srcs []*Dense) {
	if len(coeffs) == 0 || len(coeffs) != len(srcs) {
		//fastmm:allow panic-path message construction
		panic(fmt.Sprintf("mat: Combine with %d coeffs, %d srcs", len(coeffs), len(srcs)))
	}
	for _, s := range srcs {
		dst.mustSameDims(s, "Combine")
	}
	switch len(srcs) {
	case 1:
		Scale(dst, coeffs[0], srcs[0])
	case 2:
		combine2(dst, coeffs[0], srcs[0], coeffs[1], srcs[1])
	default:
		combine2(dst, coeffs[0], srcs[0], coeffs[1], srcs[1])
		for t := 2; t < len(srcs); t++ {
			Axpy(dst, coeffs[t], srcs[t])
		}
	}
}

func combine2(dst *Dense, c0 float64, s0 *Dense, c1 float64, s1 *Dense) {
	for i := 0; i < dst.rows; i++ {
		rd, r0, r1 := dst.Row(i), s0.Row(i), s1.Row(i)
		switch {
		case c0 == 1 && c1 == 1:
			for j := range rd {
				rd[j] = r0[j] + r1[j]
			}
		case c0 == 1 && c1 == -1:
			for j := range rd {
				rd[j] = r0[j] - r1[j]
			}
		default:
			for j := range rd {
				rd[j] = c0*r0[j] + c1*r1[j]
			}
		}
	}
}

// String renders the matrix for debugging (small matrices only).
func (m *Dense) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d×%d[", m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		if i > 0 {
			b.WriteString("; ")
		}
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%g", m.At(i, j))
		}
	}
	b.WriteByte(']')
	return b.String()
}

func (m *Dense) mustSameDims(o *Dense, op string) {
	if m.rows != o.rows || m.cols != o.cols {
		//fastmm:allow panic-path message construction
		panic(fmt.Sprintf("mat: %s dimension mismatch %d×%d vs %d×%d", op, m.rows, m.cols, o.rows, o.cols))
	}
}
