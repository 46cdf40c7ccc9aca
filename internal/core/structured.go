package core

import (
	"fmt"

	"fastmm/internal/gemm"
	"fastmm/internal/mat"
	"fastmm/internal/workspace"
)

// This file is the symmetric-recursion scheduler for the structured
// operations AᵗA (Gram) and A·Aᵗ (SYRK), after Arrigoni/Massini
// (arXiv:1902.02104): split the result C into quadrants, recurse on the two
// diagonal blocks (which are themselves Gram/SYRK products), compute the
// lower off-diagonal block ONCE with the executor's general fast-multiply
// recursion, and fill the upper block by a mirror transpose. The recurrence
// T(n) = 2·T(n/2) + M(n/2) does roughly two-thirds of a general multiply's
// work with a fast M — symmetry is free flops.
//
// The write-once lower-triangle + mirror epilogue also buys exactness: every
// C[i][j] with i > j is computed once and copied (not recomputed) into
// C[j][i], and diagonal leaf blocks are mirrored from their lower triangle,
// so C[i][j] == C[j][i] holds bit-for-bit under ANY leaf backend — not just
// ones whose accumulation order happens to be symmetric.

// MultiplyATA computes C = Aᵗ·A for an m×n operand A; C must be n×n and must
// not alias A. The result is exactly symmetric: C.At(i,j) == C.At(j,i) for
// all i,j, bit-for-bit. Like Multiply, steady-state calls on a reused
// Executor are (amortized) allocation-free for sequential and single-worker
// DFS execution.
func (e *Executor) MultiplyATA(C, A *mat.Dense) error {
	n := A.Cols()
	if C.Rows() != n || C.Cols() != n {
		return fmt.Errorf("core: ATA dimension mismatch C %d×%d = Aᵗ·A for A %d×%d (want C %d×%d)",
			C.Rows(), C.Cols(), A.Rows(), A.Cols(), n, n)
	}
	return e.structured(C, A, true)
}

// MultiplySyrk computes C = A·Aᵗ for an m×n operand A; C must be m×m and
// must not alias A. The result is exactly symmetric, like MultiplyATA's.
func (e *Executor) MultiplySyrk(C, A *mat.Dense) error {
	m := A.Rows()
	if C.Rows() != m || C.Cols() != m {
		return fmt.Errorf("core: SYRK dimension mismatch C %d×%d = A·Aᵗ for A %d×%d (want C %d×%d)",
			C.Rows(), C.Cols(), A.Rows(), A.Cols(), m, m)
	}
	return e.structured(C, A, false)
}

// structured runs the symmetric recursion. gram selects C = Aᵗ·A (p = cols,
// q = rows); otherwise C = A·Aᵗ (p = rows, q = cols). Either way one
// materialized transpose of A turns the problem into C = L·R with L == Rᵗ,
// which is the invariant the recursion maintains on every diagonal subblock.
func (e *Executor) structured(C, A *mat.Dense, gram bool) error {
	p, q := A.Cols(), A.Rows()
	if !gram {
		p, q = A.Rows(), A.Cols()
	}
	mode := e.structuredMode(p, q)
	ctx := newRunContext(e.opts, mode, 0)
	ar := e.arenas.Get()
	defer e.arenas.Put(ar)
	if mode == Sequential || mode == DFS {
		ar.Reserve(int(e.structuredFloats(mode, p, q)))
	}
	// One materialized transpose (the only O(m·n) extra traffic the
	// operation pays); everything below works on views of A and Tr.
	Tr := ar.Matrix(A.Cols(), A.Rows())
	parTranspose(Tr, A, ctx.additionWorkers())
	L, R := Tr, A // gram: C = Aᵗ·A
	if !gram {
		L, R = A, Tr // syrk: C = A·Aᵗ
	}
	e.symRecurse(ctx, ar, C, L, R)
	return nil
}

// structuredMode resolves the scheduler for a structured call: the
// configured mode with two adjustments — HYBRID degrades to BFS (the
// symmetric recursion issues many independent multiply trees, and HYBRID's
// deferred-leaf numbering assumes exactly one), and the Workspace cap
// degrades BFS to DFS like scheduleMode does for Multiply.
func (e *Executor) structuredMode(p, q int) Parallel {
	mode := e.opts.Parallel
	if mode == Hybrid {
		mode = BFS
	}
	if cap := e.opts.Workspace; cap > 0 && mode == BFS {
		if e.structuredBytes(mode, p, q) > cap {
			mode = DFS
		}
	}
	return mode
}

// symRecurse computes C = L·R where L == Rᵗ exactly (L is p×q, R is q×p,
// C is p×p). Diagonal blocks recurse; the lower off-diagonal block runs the
// general fast-multiply recursion; the upper is its mirror.
func (e *Executor) symRecurse(ctx *runContext, ar *workspace.Arena, C, L, R *mat.Dense) {
	p, q := L.Rows(), L.Cols()
	if p < 2*e.opts.MinDim || p < 2 {
		e.symLeaf(ctx, C, L)
		return
	}
	h := p / 2
	L1 := ar.View(L, 0, 0, h, q)
	L2 := ar.View(L, h, 0, p-h, q)
	R1 := ar.View(R, 0, 0, q, h)
	R2 := ar.View(R, 0, h, q, p-h)
	e.symRecurse(ctx, ar, ar.View(C, 0, 0, h, h), L1, R1)
	e.symRecurse(ctx, ar, ar.View(C, h, h, p-h, p-h), L2, R2)
	// The off-diagonal block C21 = L2·R1 is a general product — this is the
	// M(n/2) term of the recurrence, served by the executor's fast-multiply
	// recursion (algorithm schedule, peeling, scheduler and all).
	c21 := ar.View(C, h, 0, p-h, h)
	e.multiply(ctx, ar, c21, L2, R1, 1, 0, 0, false)
	// Mirror epilogue: C12 = C21ᵗ, copied — never recomputed — so the two
	// triangles agree bit-for-bit.
	parTranspose(ar.View(C, 0, h, h, p-h), c21, ctx.additionWorkers())
}

// symLeaf computes one diagonal block C = L·Lᵗ (R is Lᵗ exactly) as the
// leaf's classical Syrk: one lower-triangle pass of the leaf engine and its
// mirror, so every diagonal leaf does half a general product's flops and the
// block is exactly symmetric.
func (e *Executor) symLeaf(ctx *runContext, C, L *mat.Dense) {
	if s := e.opts.Stats; s != nil {
		s.add(&s.LeafCalls, 1)
	}
	switch ctx.mode {
	case Sequential:
		gemm.Syrk(e.be, C, 1, L, false, 1)
	case DFS:
		gemm.Syrk(e.be, C, 1, L, false, ctx.workers)
	default: // BFS (structuredMode never yields Hybrid)
		ctx.compute(func() { gemm.Syrk(e.be, C, 1, L, false, 1) })
	}
}

// parTranspose writes dst = srcᵗ (dst is r×c, src is c×r), parallelized over
// dst's row ranges like the other addition helpers; single-worker and small
// cases run direct so the DFS steady state stays allocation-free.
func parTranspose(dst, src *mat.Dense, workers int) {
	rows := dst.Rows()
	if workers <= 1 || rows < parRowThreshold {
		mat.Transpose(dst, src)
		return
	}
	eachRows(rows, workers, func(lo, n int) {
		var d, s mat.Dense
		dst.ViewInto(&d, lo, 0, n, dst.Cols())
		src.ViewInto(&s, 0, lo, src.Rows(), n)
		mat.Transpose(&d, &s)
	})
}

// MultiplyAdd computes C += alpha·A·B. The accumulation rides the recursion
// all the way to the leaves (alpha piped to the base case, §3.1; the leaf
// gemm and the combine epilogue run in accumulate mode), so no product-sized
// temporary is materialized and no separate final-add pass runs — under a
// fused plan the beta-accumulate happens inside the scatter-add epilogue
// itself. Dimensions as for Multiply.
func (e *Executor) MultiplyAdd(C, A, B *mat.Dense, alpha float64) error {
	if A.Cols() != B.Rows() || C.Rows() != A.Rows() || C.Cols() != B.Cols() {
		return fmt.Errorf("core: dimension mismatch C %d×%d += A %d×%d · B %d×%d",
			C.Rows(), C.Cols(), A.Rows(), A.Cols(), B.Rows(), B.Cols())
	}
	p, q, r := A.Rows(), A.Cols(), B.Cols()
	mode := e.scheduleMode(p, q, r)
	ctx := newRunContext(e.opts, mode, e.leafCount())
	ar := e.arenas.Get()
	defer e.arenas.Put(ar)
	if mode == Sequential || mode == DFS {
		ar.Reserve(int(e.workspaceFloats(mode, p, q, r, 0)))
	}
	if mode != Hybrid {
		e.multiply(ctx, ar, C, A, B, alpha, 0, 0, true)
	} else {
		ctx.root(func() { e.multiply(ctx, ar, C, A, B, alpha, 0, 0, true) })
	}
	return nil
}

// structuredFloats is the float64 footprint of one structured call: the
// materialized transpose plus the largest concurrent off-diagonal multiply
// (the top split's — deeper ones reuse its released arena space in DFS and
// draw pool arenas in BFS).
func (e *Executor) structuredFloats(mode Parallel, p, q int) int64 {
	f := int64(p) * int64(q)
	if h := p / 2; h > 0 && p-h > 0 {
		f += e.workspaceFloats(mode, p-h, q, h, 0)
	}
	return f
}

func (e *Executor) structuredBytes(mode Parallel, p, q int) int64 {
	packWorkers := 1
	if mode != Sequential {
		packWorkers = e.opts.Workers
	}
	return 8 * (e.structuredFloats(mode, p, q) + int64(packWorkers)*e.be.PackFloatsPerWorker())
}

// WorkspaceBytesATA predicts the peak workspace of one MultiplyATA call on
// an m×n operand, the structured counterpart of WorkspaceBytes.
func (e *Executor) WorkspaceBytesATA(m, n int) int64 {
	return e.structuredBytes(e.structuredMode(n, m), n, m)
}

// WorkspaceBytesSyrk predicts the peak workspace of one MultiplySyrk call on
// an m×n operand.
func (e *Executor) WorkspaceBytesSyrk(m, n int) int64 {
	return e.structuredBytes(e.structuredMode(m, n), m, n)
}
