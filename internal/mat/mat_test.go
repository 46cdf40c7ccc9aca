package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 || m.Stride() != 4 {
		t.Fatalf("got %d×%d stride %d", m.Rows(), m.Cols(), m.Stride())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("element (%d,%d) not zero", i, j)
			}
		}
	}
}

func TestZeroValueUsable(t *testing.T) {
	var m Dense
	if m.Rows() != 0 || m.Cols() != 0 {
		t.Fatal("zero value should be 0×0")
	}
	if m.MaxAbs() != 0 || m.FrobNorm() != 0 {
		t.Fatal("norms of empty matrix should be 0")
	}
}

func TestSetAt(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 5.5)
	if m.At(1, 2) != 5.5 {
		t.Fatalf("At(1,2)=%v", m.At(1, 2))
	}
	if m.At(0, 2) != 0 || m.At(1, 1) != 0 {
		t.Fatal("neighboring elements disturbed")
	}
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	want := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	for i := range want {
		for j := range want[i] {
			if m.At(i, j) != want[i][j] {
				t.Fatalf("(%d,%d) = %v, want %v", i, j, m.At(i, j), want[i][j])
			}
		}
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestFromSlice(t *testing.T) {
	d := []float64{1, 2, 3, 4, 5, 6}
	m := FromSlice(2, 3, d)
	if m.At(1, 0) != 4 {
		t.Fatalf("At(1,0)=%v", m.At(1, 0))
	}
	m.Set(0, 0, 9)
	if d[0] != 9 {
		t.Fatal("FromSlice must alias the provided slice")
	}
}

func TestViewAliases(t *testing.T) {
	m := New(4, 5)
	v := m.View(1, 2, 2, 3)
	if v.Rows() != 2 || v.Cols() != 3 {
		t.Fatalf("view dims %d×%d", v.Rows(), v.Cols())
	}
	v.Set(0, 0, 7)
	if m.At(1, 2) != 7 {
		t.Fatal("view write not visible in parent")
	}
	m.Set(2, 4, 3)
	if v.At(1, 2) != 3 {
		t.Fatal("parent write not visible in view")
	}
}

func TestViewOfView(t *testing.T) {
	m := New(6, 6)
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			m.Set(i, j, float64(10*i+j))
		}
	}
	v := m.View(1, 1, 4, 4).View(1, 1, 2, 2)
	if v.At(0, 0) != 22 || v.At(1, 1) != 33 {
		t.Fatalf("nested view wrong: %v %v", v.At(0, 0), v.At(1, 1))
	}
}

func TestViewBoundsPanics(t *testing.T) {
	m := New(3, 3)
	for _, tc := range [][4]int{{0, 0, 4, 1}, {0, 0, 1, 4}, {-1, 0, 1, 1}, {3, 3, 1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for view %v", tc)
				}
			}()
			m.View(tc[0], tc[1], tc[2], tc[3])
		}()
	}
}

func TestEmptyView(t *testing.T) {
	m := New(3, 3)
	v := m.View(1, 1, 0, 2)
	if v.Rows() != 0 || v.Cols() != 2 {
		t.Fatalf("empty view dims %d×%d", v.Rows(), v.Cols())
	}
	v.Zero() // must not panic
}

func TestCloneIndependent(t *testing.T) {
	m := New(3, 3)
	m.Set(1, 1, 2)
	c := m.View(0, 0, 2, 2).Clone()
	if c.Stride() != 2 {
		t.Fatalf("clone should be compact, stride=%d", c.Stride())
	}
	c.Set(0, 0, 9)
	if m.At(0, 0) != 0 {
		t.Fatal("clone aliases parent")
	}
	if c.At(1, 1) != 2 {
		t.Fatal("clone did not copy data")
	}
}

func TestCopyFromStrided(t *testing.T) {
	m := New(4, 4)
	src := New(2, 2)
	src.Set(0, 0, 1)
	src.Set(1, 1, 4)
	m.View(1, 1, 2, 2).CopyFrom(src)
	if m.At(1, 1) != 1 || m.At(2, 2) != 4 {
		t.Fatal("strided CopyFrom failed")
	}
	if m.At(0, 0) != 0 || m.At(3, 3) != 0 {
		t.Fatal("CopyFrom wrote outside the view")
	}
}

func TestZeroOnView(t *testing.T) {
	m := New(3, 3)
	m.Fill(5)
	m.View(1, 1, 2, 2).Zero()
	if m.At(0, 0) != 5 || m.At(1, 0) != 5 {
		t.Fatal("Zero leaked outside view")
	}
	if m.At(1, 1) != 0 || m.At(2, 2) != 0 {
		t.Fatal("Zero did not clear view")
	}
}

func TestEye(t *testing.T) {
	e := Eye(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if e.At(i, j) != want {
				t.Fatalf("Eye(3)[%d,%d]=%v", i, j, e.At(i, j))
			}
		}
	}
}

func TestNorms(t *testing.T) {
	m := FromRows([][]float64{{3, -4}, {0, 0}})
	if m.MaxAbs() != 4 {
		t.Fatalf("MaxAbs=%v", m.MaxAbs())
	}
	if math.Abs(m.FrobNorm()-5) > 1e-15 {
		t.Fatalf("FrobNorm=%v", m.FrobNorm())
	}
}

func TestMaxAbsDiffAndEqualApprox(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{1, 2.5}, {3, 4}})
	if d := MaxAbsDiff(a, b); d != 0.5 {
		t.Fatalf("MaxAbsDiff=%v", d)
	}
	if !EqualApprox(a, b, 0.5) {
		t.Fatal("EqualApprox(0.5) should hold")
	}
	if EqualApprox(a, b, 0.4) {
		t.Fatal("EqualApprox(0.4) should fail")
	}
	if EqualApprox(a, New(2, 3), 10) {
		t.Fatal("different shapes must not be equal")
	}
}

func TestTranspose(t *testing.T) {
	src := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	dst := New(3, 2)
	Transpose(dst, src)
	want := FromRows([][]float64{{1, 4}, {2, 5}, {3, 6}})
	if !EqualApprox(dst, want, 0) {
		t.Fatalf("transpose = %v", dst)
	}
}

func TestScaleInPlace(t *testing.T) {
	m := FromRows([][]float64{{1, -2}})
	Scale(m, -3, m)
	if m.At(0, 0) != -3 || m.At(0, 1) != 6 {
		t.Fatalf("scale in place = %v", m)
	}
}

func TestAxpySpecialCases(t *testing.T) {
	for _, alpha := range []float64{1, -1, 2.5} {
		y := FromRows([][]float64{{1, 2}, {3, 4}})
		x := FromRows([][]float64{{10, 20}, {30, 40}})
		Axpy(y, alpha, x)
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				want := float64(i*2+j+1) + alpha*float64(10*(i*2+j+1))
				if y.At(i, j) != want {
					t.Fatalf("alpha=%v (%d,%d)=%v want %v", alpha, i, j, y.At(i, j), want)
				}
			}
		}
	}
}

func TestCombineMatchesAxpyChain(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	srcs := make([]*Dense, 4)
	for i := range srcs {
		srcs[i] = New(5, 7)
		srcs[i].FillRandom(rng)
	}
	coeffs := []float64{1, -1, 0.5, 2}

	got := New(5, 7)
	Combine(got, coeffs, srcs)

	want := New(5, 7)
	Scale(want, coeffs[0], srcs[0])
	for t := 1; t < len(srcs); t++ {
		Axpy(want, coeffs[t], srcs[t])
	}
	if d := MaxAbsDiff(got, want); d > 1e-14 {
		t.Fatalf("Combine differs from axpy chain by %v", d)
	}
}

func TestCombineSingleTerm(t *testing.T) {
	src := FromRows([][]float64{{2, 4}})
	dst := New(1, 2)
	Combine(dst, []float64{-0.5}, []*Dense{src})
	if dst.At(0, 0) != -1 || dst.At(0, 1) != -2 {
		t.Fatalf("single-term combine = %v", dst)
	}
}

func TestCombineOverwritesDst(t *testing.T) {
	dst := FromRows([][]float64{{99, 99}})
	a := FromRows([][]float64{{1, 2}})
	b := FromRows([][]float64{{10, 20}})
	Combine(dst, []float64{1, 1}, []*Dense{a, b})
	if dst.At(0, 0) != 11 || dst.At(0, 1) != 22 {
		t.Fatalf("combine must overwrite, got %v", dst)
	}
}

func TestCombineBadArgsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for empty combine")
		}
	}()
	Combine(New(1, 1), nil, nil)
}

func TestDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dim mismatch")
		}
	}()
	Axpy(New(2, 2), 1, New(2, 3))
}

// Property: Combine is linear — scaling all coefficients by s scales the
// result by s.
func TestCombineLinearityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(c0, c1, s float64) bool {
		if math.Abs(s) > 1e6 || math.Abs(c0) > 1e6 || math.Abs(c1) > 1e6 {
			return true
		}
		a, b := New(3, 3), New(3, 3)
		a.FillRandom(rng)
		b.FillRandom(rng)
		x, y := New(3, 3), New(3, 3)
		Combine(x, []float64{s * c0, s * c1}, []*Dense{a, b})
		Combine(y, []float64{c0, c1}, []*Dense{a, b})
		Scale(y, s, y)
		return MaxAbsDiff(x, y) <= 1e-9*(1+math.Abs(s))*(math.Abs(c0)+math.Abs(c1)+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: transpose is an involution.
func TestTransposeInvolutionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(r8, c8 uint8) bool {
		r, c := int(r8%12)+1, int(c8%12)+1
		m := New(r, c)
		m.FillRandom(rng)
		tr := New(c, r)
		Transpose(tr, m)
		back := New(r, c)
		Transpose(back, tr)
		return EqualApprox(m, back, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestBlockedTransposeAndMirror: Transpose and MirrorLower copy in 64×64
// blocks; on strided views whose sizes fall on and beside the block edge,
// every element lands where the element-wise definition puts it, and
// nothing outside the view is written.
func TestBlockedTransposeAndMirror(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	view := func(r, c int) (*Dense, *Dense) {
		frame := New(r+3, c+5)
		frame.FillRandom(rng)
		return frame, frame.View(1, 2, r, c)
	}
	for _, sh := range [][2]int{{1, 1}, {63, 64}, {64, 65}, {130, 70}, {129, 193}} {
		r, c := sh[0], sh[1]
		_, src := view(r, c)
		frame, dst := view(c, r)
		before := frame.Clone()
		Transpose(dst, src)
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				if dst.At(j, i) != src.At(i, j) {
					t.Fatalf("%d×%d: dst(%d,%d) = %g, src(%d,%d) = %g", r, c, j, i, dst.At(j, i), i, j, src.At(i, j))
				}
			}
		}
		dst.CopyFrom(before.View(1, 2, c, r))
		if !EqualApprox(frame, before, 0) {
			t.Fatalf("%d×%d: Transpose wrote outside its destination view", r, c)
		}
	}
	for _, n := range []int{1, 2, 64, 65, 150} {
		frame, C := view(n, n)
		want := C.Clone()
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				want.Set(i, j, want.At(j, i))
			}
		}
		outside := frame.Clone()
		MirrorLower(C)
		if !EqualApprox(C, want, 0) {
			t.Fatalf("%d×%d: MirrorLower differs from the element-wise mirror", n, n)
		}
		C.CopyFrom(outside.View(1, 2, n, n))
		if !EqualApprox(frame, outside, 0) {
			t.Fatalf("%d×%d: MirrorLower wrote outside its view", n, n)
		}
	}
}

// BenchmarkTranspose is the AᵗA operand's shape (2048×1024); BenchmarkMirror
// the 1024² result's mirror.
func BenchmarkTranspose(b *testing.B) {
	src, dst := New(2048, 1024), New(1024, 2048)
	src.Fill(1)
	b.SetBytes(2048 * 1024 * 8 * 2)
	for i := 0; i < b.N; i++ {
		Transpose(dst, src)
	}
}

func BenchmarkMirror(b *testing.B) {
	C := New(1024, 1024)
	C.Fill(1)
	b.SetBytes(1024 * 1024 * 8)
	for i := 0; i < b.N; i++ {
		MirrorLower(C)
	}
}

func BenchmarkAxpy(b *testing.B) {
	y, x := New(512, 512), New(512, 512)
	x.Fill(1)
	b.SetBytes(512 * 512 * 8 * 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Axpy(y, 1, x)
	}
}

func BenchmarkCombine4(b *testing.B) {
	srcs := make([]*Dense, 4)
	for i := range srcs {
		srcs[i] = New(512, 512)
		srcs[i].Fill(float64(i))
	}
	dst := New(512, 512)
	b.SetBytes(512 * 512 * 8 * 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Combine(dst, []float64{1, -1, 1, -1}, srcs)
	}
}

func TestStringRendering(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if got := m.String(); got != "2×2[1 2; 3 4]" {
		t.Fatalf("String()=%q", got)
	}
	var empty Dense
	if got := empty.String(); got != "0×0[]" {
		t.Fatalf("empty String()=%q", got)
	}
}

func TestAccumulateScaled(t *testing.T) {
	dst := FromRows([][]float64{{1, 1}})
	src := FromRows([][]float64{{2, 3}})
	AccumulateScaled(dst, 2, src)
	if dst.At(0, 0) != 5 || dst.At(0, 1) != 7 {
		t.Fatalf("dst=%v", dst)
	}
}

func TestFillRandomRange(t *testing.T) {
	m := New(20, 20)
	m.FillRandom(rand.New(rand.NewSource(5)))
	seen := false
	for i := 0; i < 20; i++ {
		for _, v := range m.Row(i) {
			if v < -1 || v >= 1 {
				t.Fatalf("value %v outside [-1,1)", v)
			}
			if v != 0 {
				seen = true
			}
		}
	}
	if !seen {
		t.Fatal("FillRandom left matrix zero")
	}
}

func TestNegativeDimsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(-1, 3)
}

func TestFromSliceLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice(2, 2, []float64{1, 2, 3})
}

func TestResetInPlace(t *testing.T) {
	var m Dense
	data := []float64{1, 2, 3, 4, 5, 6}
	m.Reset(2, 3, data)
	if m.Rows() != 2 || m.Cols() != 3 || m.Stride() != 3 {
		t.Fatalf("got %d×%d stride %d", m.Rows(), m.Cols(), m.Stride())
	}
	if m.At(1, 2) != 6 {
		t.Fatalf("At(1,2) = %g", m.At(1, 2))
	}
	m.Set(0, 0, 9)
	if data[0] != 9 {
		t.Fatal("Reset must alias, not copy")
	}
	// Re-stamping the same header with a new shape must work.
	m.Reset(3, 2, data)
	if m.At(2, 1) != 6 {
		t.Fatalf("restamped At(2,1) = %g", m.At(2, 1))
	}
}

func TestResetBadLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var m Dense
	m.Reset(2, 2, make([]float64, 3))
}

func TestViewIntoMatchesView(t *testing.T) {
	m := New(6, 7)
	for i := 0; i < 6; i++ {
		for j := 0; j < 7; j++ {
			m.Set(i, j, float64(10*i+j))
		}
	}
	want := m.View(2, 3, 3, 4)
	var got Dense
	m.ViewInto(&got, 2, 3, 3, 4)
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() || got.Stride() != want.Stride() {
		t.Fatalf("shape %d×%d stride %d vs %d×%d stride %d",
			got.Rows(), got.Cols(), got.Stride(), want.Rows(), want.Cols(), want.Stride())
	}
	if MaxAbsDiff(&got, want) != 0 {
		t.Fatal("ViewInto content differs from View")
	}
	got.Set(0, 0, -1)
	if m.At(2, 3) != -1 {
		t.Fatal("ViewInto must alias the parent")
	}
}

func TestViewIntoEmpty(t *testing.T) {
	m := New(4, 4)
	var v Dense
	m.ViewInto(&v, 2, 2, 0, 2)
	if v.Rows() != 0 || v.Cols() != 2 {
		t.Fatalf("got %d×%d", v.Rows(), v.Cols())
	}
}

func TestViewIntoOutOfBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m := New(3, 3)
	var v Dense
	m.ViewInto(&v, 2, 2, 2, 2)
}
