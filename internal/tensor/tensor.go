// Package tensor implements the order-3 tensor machinery of Benson & Ballard
// §1.2 and §2.2: dense real tensors, outer products, the bilinear contraction
// z = T ×₁ x ×₂ y, and the matrix-multiplication tensor for an arbitrary base
// case ⟨M,K,N⟩. Fast algorithms are exactly low-rank decompositions of these
// tensors, so this package is the ground truth the rest of the repository
// verifies against.
package tensor

import (
	"fmt"
	"math"

	"fastmm/internal/mat"
)

// Tensor is a dense I×J×K order-3 tensor with layout t[i][j][k] at
// i*(J*K) + j*K + k.
type Tensor struct {
	I, J, K int
	data    []float64
}

// New returns a zeroed I×J×K tensor.
func New(i, j, k int) *Tensor {
	if i < 0 || j < 0 || k < 0 {
		panic(fmt.Sprintf("tensor: negative dims %d×%d×%d", i, j, k))
	}
	return &Tensor{I: i, J: j, K: k, data: make([]float64, i*j*k)}
}

// At returns t_ijk.
func (t *Tensor) At(i, j, k int) float64 { return t.data[(i*t.J+j)*t.K+k] }

// Set assigns t_ijk.
func (t *Tensor) Set(i, j, k int, v float64) { t.data[(i*t.J+j)*t.K+k] = v }

// Add accumulates v into t_ijk.
func (t *Tensor) Add(i, j, k int, v float64) { t.data[(i*t.J+j)*t.K+k] += v }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	out := New(t.I, t.J, t.K)
	copy(out.data, t.data)
	return out
}

// NNZ returns the number of nonzero entries.
func (t *Tensor) NNZ() int {
	n := 0
	for _, v := range t.data {
		if v != 0 {
			n++
		}
	}
	return n
}

// MaxAbs returns max |t_ijk|.
func (t *Tensor) MaxAbs() float64 {
	var m float64
	for _, v := range t.data {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// MaxAbsDiff returns max |a_ijk − b_ijk| under mat.AbsDiff's rules (a NaN
// on one side only counts as +Inf); dimensions must match.
func MaxAbsDiff(a, b *Tensor) float64 {
	if a.I != b.I || a.J != b.J || a.K != b.K {
		panic(fmt.Sprintf("tensor: dims %d×%d×%d vs %d×%d×%d", a.I, a.J, a.K, b.I, b.J, b.K))
	}
	var m float64
	for i, v := range a.data {
		m = max(m, mat.AbsDiff(v, b.data[i]))
	}
	return m
}

// AddRankOne accumulates the outer product u∘v∘w into t. len(u)=I, len(v)=J,
// len(w)=K.
func (t *Tensor) AddRankOne(u, v, w []float64) {
	if len(u) != t.I || len(v) != t.J || len(w) != t.K {
		panic(fmt.Sprintf("tensor: rank-one dims %d,%d,%d for %d×%d×%d tensor", len(u), len(v), len(w), t.I, t.J, t.K))
	}
	for i, ui := range u {
		if ui == 0 {
			continue
		}
		for j, vj := range v {
			s := ui * vj
			if s == 0 {
				continue
			}
			base := (i*t.J + j) * t.K
			for k, wk := range w {
				t.data[base+k] += s * wk
			}
		}
	}
}

// FromFactors reconstructs Σ_r u_r ∘ v_r ∘ w_r from factor matrices with R
// columns each (U is I×R, V is J×R, W is K×R). This is JU,V,WK of §2.2.1.
func FromFactors(U, V, W *mat.Dense) *Tensor {
	r := U.Cols()
	if V.Cols() != r || W.Cols() != r {
		panic(fmt.Sprintf("tensor: factor ranks %d,%d,%d differ", U.Cols(), V.Cols(), W.Cols()))
	}
	t := New(U.Rows(), V.Rows(), W.Rows())
	u := make([]float64, U.Rows())
	v := make([]float64, V.Rows())
	w := make([]float64, W.Rows())
	for c := 0; c < r; c++ {
		for i := range u {
			u[i] = U.At(i, c)
		}
		for j := range v {
			v[j] = V.At(j, c)
		}
		for k := range w {
			w[k] = W.At(k, c)
		}
		t.AddRankOne(u, v, w)
	}
	return t
}

// Contract computes z = T ×₁ x ×₂ y, i.e. z_k = Σ_ij t_ijk x_i y_j (Eq. 1).
func (t *Tensor) Contract(x, y []float64) []float64 {
	if len(x) != t.I || len(y) != t.J {
		panic(fmt.Sprintf("tensor: contract dims %d,%d for %d×%d×%d", len(x), len(y), t.I, t.J, t.K))
	}
	z := make([]float64, t.K)
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		for j, yj := range y {
			s := xi * yj
			if s == 0 {
				continue
			}
			base := (i*t.J + j) * t.K
			for k := 0; k < t.K; k++ {
				z[k] += s * t.data[base+k]
			}
		}
	}
	return z
}

// FrontalSlice returns the k-th frontal slice T_k = t_{:,:,k} as an I×J
// matrix.
func (t *Tensor) FrontalSlice(k int) *mat.Dense {
	s := mat.New(t.I, t.J)
	for i := 0; i < t.I; i++ {
		for j := 0; j < t.J; j++ {
			s.Set(i, j, t.At(i, j, k))
		}
	}
	return s
}

// Unfold returns the mode-n unfolding of t as a matrix:
// mode 1 → I×(JK) with column index j*K+k,
// mode 2 → J×(IK) with column index i*K+k,
// mode 3 → K×(IJ) with column index i*J+j.
// These match the Khatri-Rao identities T(1)=U(V⊙W)ᵀ, T(2)=V(U⊙W)ᵀ,
// T(3)=W(U⊙V)ᵀ used by the ALS search (§2.3.2).
func (t *Tensor) Unfold(mode int) *mat.Dense {
	switch mode {
	case 1:
		m := mat.New(t.I, t.J*t.K)
		for i := 0; i < t.I; i++ {
			row := m.Row(i)
			copy(row, t.data[i*t.J*t.K:(i+1)*t.J*t.K])
		}
		return m
	case 2:
		m := mat.New(t.J, t.I*t.K)
		for j := 0; j < t.J; j++ {
			row := m.Row(j)
			for i := 0; i < t.I; i++ {
				for k := 0; k < t.K; k++ {
					row[i*t.K+k] = t.At(i, j, k)
				}
			}
		}
		return m
	case 3:
		m := mat.New(t.K, t.I*t.J)
		for k := 0; k < t.K; k++ {
			row := m.Row(k)
			for i := 0; i < t.I; i++ {
				for j := 0; j < t.J; j++ {
					row[i*t.J+j] = t.At(i, j, k)
				}
			}
		}
		return m
	default:
		panic(fmt.Sprintf("tensor: invalid unfold mode %d", mode))
	}
}

// MatMul returns the matrix-multiplication tensor for the base case ⟨M,K,N⟩
// (§2.2.2): dimensions MK × KN × MN with MKN nonzero unit entries, indexed by
// the row-major vectorizations x = vec(A), y = vec(B), z = vec(C). The entry
// t[m*K+k][k*N+n][m*N+n] = 1 for all 0 ≤ m < M, 0 ≤ k < K, 0 ≤ n < N.
func MatMul(M, K, N int) *Tensor {
	t := New(M*K, K*N, M*N)
	for m := 0; m < M; m++ {
		for k := 0; k < K; k++ {
			for n := 0; n < N; n++ {
				t.Set(m*K+k, k*N+n, m*N+n, 1)
			}
		}
	}
	return t
}
