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
// lists, alpha ≠ 0, and workers ≥ 1. The simd backend implements it on
// every kernel; the blas bridge does not.
type FusedBackend interface {
	Backend
	GemmFused(dsts []Scaled, alpha float64, asrcs, bsrcs []Scaled, accumulate bool, workers int)
}

// CanFuse reports whether be runs the fused leaf (is a FusedBackend): simd
// does, the blas bridge does not. The tuner fuses the last level of every
// fast plan exactly where it holds, core ignores Options.Fused where it does
// not, and DispatchFused refuses such a backend.
func CanFuse(be Backend) bool {
	_, ok := be.(FusedBackend)
	return ok
}

// DispatchFused is the fused counterpart of Dispatch: it validates the
// operand lists, strips degenerate problems, and routes to the backend's
// GemmFused. It panics, as it does on mismatched operand lists, when be
// cannot fuse (CanFuse): nothing emulates the fused leaf, so a caller checks
// CanFuse and runs the explicit path instead.
func DispatchFused(be Backend, dsts []Scaled, alpha float64, asrcs, bsrcs []Scaled, accumulate bool, workers int) {
	fb, ok := be.(FusedBackend)
	if !ok {
		panic("gemm: fused dispatch on a backend that cannot fuse")
	}
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
	//fastmm:allow FusedBackend interface dispatch; the registry kernels are vetted via blockedBackend.leaf
	fb.GemmFused(dsts, alpha, asrcs, bsrcs, accumulate, workers)
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
