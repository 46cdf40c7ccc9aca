package gemm

import (
	"fmt"

	"fastmm/internal/mat"
)

// Scaled is a (matrix, coefficient) operand of the fused engine. It aliases
// mat.Scaled so the workspace arenas can hand out []Scaled scratch without an
// import cycle.
type Scaled = mat.Scaled

// FusedBackend is the optional capability a Backend advertises when it can
// run the fmm-gen style fused leaf (Huang et al., arXiv:1611.01120): the
// [U,V,W] linear combinations of one fast-multiplication step folded into the
// packing routines and the micro-kernel epilogue, so the S/T operand sums and
// the M product are never materialized.
//
// GemmFused computes the rank-1 bilinear update
//
//	P = (Σ_t asrcs[t].Coeff · asrcs[t].M) · (Σ_t bsrcs[t].Coeff · bsrcs[t].M)
//	dsts[d].M (+)= dsts[d].Coeff · alpha · P      for every destination d
//
// with accumulate=false meaning every destination is overwritten and
// accumulate=true meaning the scatter adds on top of the existing contents —
// except destinations carrying Scaled.Overwrite, which are overwritten
// regardless (the executor marks each block's first-touch product so no
// zeroing pass precedes the scatter). Destinations must not alias any
// source. Callers go through DispatchFused, which validates shapes and strips
// the degenerate cases, so implementations see m,n,k ≥ 1, non-empty operand
// lists, alpha ≠ 0, and workers ≥ 1.
type FusedBackend interface {
	Backend
	GemmFused(dsts []Scaled, alpha float64, asrcs, bsrcs []Scaled, accumulate bool, workers int)
}

// CanFuse reports whether be supports the fused leaf natively. Backends that
// cannot (the blas bridge) still work through DispatchFused, which
// materializes the operand sums exactly like the explicit path — CanFuse is
// how the tuner and executor decide whether fusing buys anything.
func CanFuse(be Backend) bool {
	_, ok := be.(FusedBackend)
	return ok
}

// DispatchFused is the fused counterpart of Dispatch: it validates the
// operand lists, strips degenerate problems, and routes to the backend's
// GemmFused — or, for backends without one, to a fallback that materializes
// S and T and scatters the explicit product, preserving the semantics (but
// not the workspace savings) everywhere.
func DispatchFused(be Backend, dsts []Scaled, alpha float64, asrcs, bsrcs []Scaled, accumulate bool, workers int) {
	m, k, n := checkDimsFused(dsts, asrcs, bsrcs)
	if len(dsts) == 0 || m == 0 || n == 0 {
		return
	}
	if k == 0 || alpha == 0 {
		// A vanished product contributes zero: overwritten destinations
		// (either globally or via their first-touch flag) become zero.
		for _, d := range dsts {
			if !accumulate || d.Overwrite {
				d.M.Zero()
			}
		}
		return
	}
	if workers < 1 {
		workers = 1
	}
	if fb, ok := be.(FusedBackend); ok {
		//fastmm:allow FusedBackend interface dispatch; the registry kernels are vetted via blockedBackend.leaf
		fb.GemmFused(dsts, alpha, asrcs, bsrcs, accumulate, workers)
		return
	}
	fusedFallback(be, dsts, alpha, asrcs, bsrcs, accumulate, workers)
}

// fusedFallback emulates GemmFused on a backend without native support: it
// materializes the S/T operand sums and the product exactly like the explicit
// executor path, then scatter-adds. It allocates — the point of the fused
// engine is that blocked backends never take this path, and the executor only
// engages fusion when the backend is a FusedBackend.
//
//fastmm:allow fallback materializes by design; fused executors never reach it
func fusedFallback(be Backend, dsts []Scaled, alpha float64, asrcs, bsrcs []Scaled, accumulate bool, workers int) {
	m, k := asrcs[0].M.Rows(), asrcs[0].M.Cols()
	n := bsrcs[0].M.Cols()
	S := materializeSum(asrcs, m, k)
	T := materializeSum(bsrcs, k, n)
	P := mat.New(m, n)
	be.Gemm(P, alpha, S, T, false, workers)
	for _, d := range dsts {
		if !accumulate || d.Overwrite {
			mat.Scale(d.M, d.Coeff, P)
		} else {
			mat.Axpy(d.M, d.Coeff, P)
		}
	}
}

// materializeSum returns Σ c_t·M_t, reusing the single source directly when
// its coefficient is 1.
func materializeSum(srcs []Scaled, r, c int) *mat.Dense {
	if len(srcs) == 1 && srcs[0].Coeff == 1 {
		return srcs[0].M
	}
	out := mat.New(r, c)
	for _, s := range srcs {
		mat.Axpy(out, s.Coeff, s.M)
	}
	return out
}

func checkDimsFused(dsts, asrcs, bsrcs []Scaled) (m, k, n int) {
	if len(asrcs) == 0 || len(bsrcs) == 0 {
		panic("gemm: fused dispatch with empty source list")
	}
	m, k = asrcs[0].M.Rows(), asrcs[0].M.Cols()
	n = bsrcs[0].M.Cols()
	for _, s := range asrcs {
		if s.M.Rows() != m || s.M.Cols() != k {
			//fastmm:allow panic-path message construction
			panic(fmt.Sprintf("gemm: fused A source %d×%d, want %d×%d", s.M.Rows(), s.M.Cols(), m, k))
		}
	}
	for _, s := range bsrcs {
		if s.M.Rows() != k || s.M.Cols() != n {
			//fastmm:allow panic-path message construction
			panic(fmt.Sprintf("gemm: fused B source %d×%d, want %d×%d", s.M.Rows(), s.M.Cols(), k, n))
		}
	}
	for _, d := range dsts {
		if d.M.Rows() != m || d.M.Cols() != n {
			//fastmm:allow panic-path message construction
			panic(fmt.Sprintf("gemm: fused destination %d×%d, want %d×%d", d.M.Rows(), d.M.Cols(), m, n))
		}
	}
	return m, k, n
}
