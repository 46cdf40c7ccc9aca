package core

import (
	"fastmm/internal/mat"
	"fastmm/internal/op"
)

// The structured operations AᵗA (Gram) and A·Aᵗ (SYRK) run as the leaf
// backend's classical lower-triangle pass (gemm.ATA/gemm.Syrk) under every
// scheduler: about half a general product's flops, which no fast walk over
// the triangle beats at practical sizes. The strict lower triangle is
// computed once and mirrored up, so C[i][j] == C[j][i] bit-for-bit.

// MultiplyATA computes C = Aᵗ·A for an m×n operand A; C must be n×n and must
// not alias A (either is an error). The result is exactly symmetric:
// C.At(i,j) == C.At(j,i) for all i,j, bit-for-bit. It is gemm.ATA on the
// executor's backend, one worker wide when Sequential and Workers wide
// otherwise.
func (e *Executor) MultiplyATA(C, A *mat.Dense) error {
	return e.Do(op.Request{Op: op.ATA, C: C, A: A})
}

// MultiplySyrk computes C = A·Aᵗ for an m×n operand A; C must be m×m and
// must not alias A. The result is exactly symmetric, like MultiplyATA's, and
// is gemm.Syrk at MultiplyATA's width.
func (e *Executor) MultiplySyrk(C, A *mat.Dense) error {
	return e.Do(op.Request{Op: op.Syrk, C: C, A: A})
}

func (e *Executor) symmetricWorkers() int {
	if e.opts.Parallel == Sequential {
		return 1
	}
	return e.opts.Workers
}
