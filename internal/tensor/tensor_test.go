package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fastmm/internal/mat"
)

func TestMatMulTensorNNZ(t *testing.T) {
	cases := [][3]int{{2, 2, 2}, {2, 3, 4}, {1, 1, 1}, {3, 3, 3}, {4, 2, 4}}
	for _, c := range cases {
		tt := MatMul(c[0], c[1], c[2])
		if got, want := tt.NNZ(), c[0]*c[1]*c[2]; got != want {
			t.Errorf("⟨%d,%d,%d⟩ nnz=%d want %d", c[0], c[1], c[2], got, want)
		}
		if tt.I != c[0]*c[1] || tt.J != c[1]*c[2] || tt.K != c[0]*c[2] {
			t.Errorf("⟨%d,%d,%d⟩ dims %d×%d×%d", c[0], c[1], c[2], tt.I, tt.J, tt.K)
		}
	}
}

func TestMatMulTensorFrontalSlices222(t *testing.T) {
	// The paper writes out the four frontal slices of the ⟨2,2,2⟩ tensor
	// explicitly (§2.2.2); check them verbatim.
	tt := MatMul(2, 2, 2)
	want := []*mat.Dense{
		mat.FromRows([][]float64{{1, 0, 0, 0}, {0, 0, 1, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}}),
		mat.FromRows([][]float64{{0, 1, 0, 0}, {0, 0, 0, 1}, {0, 0, 0, 0}, {0, 0, 0, 0}}),
		mat.FromRows([][]float64{{0, 0, 0, 0}, {0, 0, 0, 0}, {1, 0, 0, 0}, {0, 0, 1, 0}}),
		mat.FromRows([][]float64{{0, 0, 0, 0}, {0, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 0, 1}}),
	}
	for k := 0; k < 4; k++ {
		if !mat.EqualApprox(tt.FrontalSlice(k), want[k], 0) {
			t.Errorf("frontal slice %d = %v", k, tt.FrontalSlice(k))
		}
	}
}

// The defining property: contracting the ⟨M,K,N⟩ tensor with vec(A), vec(B)
// yields vec(A·B) for arbitrary matrices.
func TestContractIsMatMulProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(m8, k8, n8 uint8) bool {
		m, k, n := int(m8%4)+1, int(k8%4)+1, int(n8%4)+1
		tt := MatMul(m, k, n)
		A := mat.New(m, k)
		B := mat.New(k, n)
		A.FillRandom(rng)
		B.FillRandom(rng)
		z := tt.Contract(vec(A), vec(B))
		// Reference product.
		C := mat.New(m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var s float64
				for p := 0; p < k; p++ {
					s += A.At(i, p) * B.At(p, j)
				}
				C.Set(i, j, s)
			}
		}
		want := vec(C)
		for i := range z {
			if d := z[i] - want[i]; d > 1e-12 || d < -1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func vec(m *mat.Dense) []float64 {
	out := make([]float64, 0, m.Rows()*m.Cols())
	for i := 0; i < m.Rows(); i++ {
		out = append(out, m.Row(i)...)
	}
	return out
}

func TestAddRankOneAndFromFactors(t *testing.T) {
	u := []float64{1, 2}
	v := []float64{3, 0, -1}
	w := []float64{2, 5}
	tt := New(2, 3, 2)
	tt.AddRankOne(u, v, w)
	if got := tt.At(1, 0, 1); got != 2*3*5 {
		t.Fatalf("t[1,0,1]=%v want 30", got)
	}
	if got := tt.At(0, 1, 0); got != 0 {
		t.Fatalf("t[0,1,0]=%v want 0", got)
	}
	// FromFactors with single columns must agree.
	U := mat.FromRows([][]float64{{1}, {2}})
	V := mat.FromRows([][]float64{{3}, {0}, {-1}})
	W := mat.FromRows([][]float64{{2}, {5}})
	tt2 := FromFactors(U, V, W)
	if MaxAbsDiff(tt, tt2) != 0 {
		t.Fatal("FromFactors != AddRankOne")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := New(2, 2, 2)
	a.Set(1, 1, 1, 5)
	b := a.Clone()
	b.Set(0, 0, 0, 9)
	if a.At(0, 0, 0) != 0 || b.At(1, 1, 1) != 5 {
		t.Fatal("clone aliasing or data loss")
	}
}

func TestUnfoldShapes(t *testing.T) {
	tt := MatMul(2, 3, 4)
	u1 := tt.Unfold(1)
	u2 := tt.Unfold(2)
	u3 := tt.Unfold(3)
	if u1.Rows() != 6 || u1.Cols() != 12*8 {
		t.Fatalf("mode-1 %d×%d", u1.Rows(), u1.Cols())
	}
	if u2.Rows() != 12 || u2.Cols() != 6*8 {
		t.Fatalf("mode-2 %d×%d", u2.Rows(), u2.Cols())
	}
	if u3.Rows() != 8 || u3.Cols() != 6*12 {
		t.Fatalf("mode-3 %d×%d", u3.Rows(), u3.Cols())
	}
}

func TestUnfoldConsistency(t *testing.T) {
	tt := New(2, 3, 4)
	val := 0.0
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			for k := 0; k < 4; k++ {
				val++
				tt.Set(i, j, k, val)
			}
		}
	}
	u1, u2, u3 := tt.Unfold(1), tt.Unfold(2), tt.Unfold(3)
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			for k := 0; k < 4; k++ {
				v := tt.At(i, j, k)
				if u1.At(i, j*4+k) != v {
					t.Fatalf("mode-1 mismatch at %d,%d,%d", i, j, k)
				}
				if u2.At(j, i*4+k) != v {
					t.Fatalf("mode-2 mismatch at %d,%d,%d", i, j, k)
				}
				if u3.At(k, i*3+j) != v {
					t.Fatalf("mode-3 mismatch at %d,%d,%d", i, j, k)
				}
			}
		}
	}
}

func TestUnfoldBadModePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1, 1, 1).Unfold(4)
}

// TestMaxAbsDiffNaNAndInf: a NaN on one side only differs by +Inf; equal
// values differ by 0, equal infinities and two NaNs included.
func TestMaxAbsDiffNaNAndInf(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		x, y, want float64
	}{
		{nan, 0, inf},
		{0, nan, inf},
		{nan, nan, 0},
		{inf, inf, 0},
		{inf, -inf, inf},
		{1, 3.5, 2.5},
	} {
		a, b := New(1, 2, 1), New(1, 2, 1)
		a.Set(0, 1, 0, c.x)
		b.Set(0, 1, 0, c.y)
		if got := MaxAbsDiff(a, b); got != c.want {
			t.Errorf("MaxAbsDiff(%v, %v) = %v, want %v", c.x, c.y, got, c.want)
		}
	}
}

func TestMaxAbsAndNNZ(t *testing.T) {
	tt := New(2, 2, 2)
	tt.Set(0, 1, 0, -3)
	tt.Set(1, 0, 1, 2)
	if tt.MaxAbs() != 3 {
		t.Fatalf("MaxAbs=%v", tt.MaxAbs())
	}
	if tt.NNZ() != 2 {
		t.Fatalf("NNZ=%v", tt.NNZ())
	}
}
