package core

import (
	"fmt"

	"fastmm/internal/gemm"
	"fastmm/internal/mat"
)

// The structured operations AᵗA (Gram) and A·Aᵗ (SYRK) run as the leaf
// backend's classical lower-triangle pass (gemm.ATA/gemm.Syrk) under every
// scheduler: about half a general product's flops, which no fast walk over
// the triangle beats at practical sizes. The strict lower triangle is
// computed once and mirrored up, so C[i][j] == C[j][i] bit-for-bit.

// MultiplyATA computes C = Aᵗ·A for an m×n operand A; C must be n×n and must
// not alias A. The result is exactly symmetric: C.At(i,j) == C.At(j,i) for
// all i,j, bit-for-bit. It is gemm.ATA on the executor's backend, one worker
// wide when Sequential and Workers wide otherwise.
func (e *Executor) MultiplyATA(C, A *mat.Dense) error {
	n := A.Cols()
	if C.Rows() != n || C.Cols() != n {
		return fmt.Errorf("core: ATA dimension mismatch C %d×%d = Aᵗ·A for A %d×%d (want C %d×%d)",
			C.Rows(), C.Cols(), A.Rows(), A.Cols(), n, n)
	}
	gemm.ATA(e.be, C, 1, A, false, e.symmetricWorkers())
	return nil
}

// MultiplySyrk computes C = A·Aᵗ for an m×n operand A; C must be m×m and
// must not alias A. The result is exactly symmetric, like MultiplyATA's, and
// is gemm.Syrk at MultiplyATA's width.
func (e *Executor) MultiplySyrk(C, A *mat.Dense) error {
	m := A.Rows()
	if C.Rows() != m || C.Cols() != m {
		return fmt.Errorf("core: SYRK dimension mismatch C %d×%d = A·Aᵗ for A %d×%d (want C %d×%d)",
			C.Rows(), C.Cols(), A.Rows(), A.Cols(), m, m)
	}
	gemm.Syrk(e.be, C, 1, A, false, e.symmetricWorkers())
	return nil
}

func (e *Executor) symmetricWorkers() int {
	if e.opts.Parallel == Sequential {
		return 1
	}
	return e.opts.Workers
}

// MultiplyAdd computes C += alpha·A·B. The accumulation rides the recursion
// all the way to the leaves (alpha piped to the base case, §3.1; the leaf
// gemm and the combine epilogue run in accumulate mode), so no product-sized
// temporary is materialized and no separate final-add pass runs — under a
// fused plan the beta-accumulate happens inside the scatter-add epilogue
// itself. Dimensions as for Multiply.
func (e *Executor) MultiplyAdd(C, A, B *mat.Dense, alpha float64) error {
	return e.product(C, A, B, alpha, true, nil, Budget{})
}
