package gemm

import (
	"fmt"
	"math"
	"sync"

	"fastmm/internal/mat"
)

// Structured classical kernels: AᵗA (Gram) and A·Aᵗ (SYRK) as single calls
// over the backend registry — the classical baseline of the executor's
// symmetric recursion, and the leaf of its diagonal blocks.
//
// On a blocked backend the call is one lower-triangle pass of the leaf
// engine: the transposed operand is packed straight from A by the other
// side's packer (no transposed copy), and every micro-tile wholly above the
// diagonal is skipped by loop bounds, so the pass computes the triangle plus
// the tiles the diagonal crosses — about (½ + nr/2p) of the general
// product's flops for a p×p result and an nr-wide micro-tile. Other backends
// multiply a materialized transpose in full.
//
// Either way the exactness contract holds: when overwriting, the strict
// lower triangle is computed once and mirrored up, so C[i][j] == C[j][i]
// bit-for-bit under any backend. Accumulating calls compute the whole
// product onto C, so a C that is not symmetric keeps its meaning. The
// tuner's classical plans for the ATA/Syrk ops dispatch here.

// ATA computes C = alpha·Aᵗ·A (overwriting C, or accumulating when
// accumulate is set) with the given backend and worker budget. C must be n×n
// for A m×n and must not alias A. When overwriting, the result is exactly
// symmetric; accumulation preserves exact symmetry iff C was exactly
// symmetric.
func ATA(be Backend, C *mat.Dense, alpha float64, A *mat.Dense, accumulate bool, workers int) {
	symmetric(be, C, alpha, A, true, accumulate, workers)
}

// Syrk computes C = alpha·A·Aᵗ (overwriting or accumulating); C must be m×m
// for A m×n and must not alias A. Symmetry contract as for ATA.
func Syrk(be Backend, C *mat.Dense, alpha float64, A *mat.Dense, accumulate bool, workers int) {
	symmetric(be, C, alpha, A, false, accumulate, workers)
}

// symmetric is Dispatch for the structured ops: it validates C, strips the
// degenerate cases, and hands the product to the blocked engine's triangle
// pass, or — on any other backend — to Dispatch over a materialized
// transpose followed by the mirror, like DispatchFused's fallback.
func symmetric(be Backend, C *mat.Dense, alpha float64, A *mat.Dense, gram, accumulate bool, workers int) {
	p, k := A.Rows(), A.Cols()
	if gram {
		p, k = k, p
	}
	if C.Rows() != p || C.Cols() != p {
		//fastmm:allow panic-path message construction
		panic(fmt.Sprintf("gemm: symmetric product of %d×%d operand into C %d×%d, want %d×%d",
			A.Rows(), A.Cols(), C.Rows(), C.Cols(), p, p))
	}
	if p == 0 {
		return
	}
	if k == 0 || alpha == 0 {
		if !accumulate {
			C.Zero()
		}
		return
	}
	if bk, ok := be.(*blockedBackend); ok {
		bk.symmetric(C, alpha, A, gram, accumulate, max(workers, 1))
		return
	}
	T := mat.New(A.Cols(), A.Rows())
	mat.Transpose(T, A)
	if gram {
		Dispatch(be, C, alpha, T, A, accumulate, workers)
	} else {
		Dispatch(be, C, alpha, A, T, accumulate, workers)
	}
	if !accumulate {
		mat.MirrorLower(C)
	}
}

// symmetric runs C (+)= alpha·op(A)·op(A)ᵗ on the engine, op(A) = Aᵗ when
// gram is set: the lower-triangle pass and the mirror when overwriting, the
// whole product when accumulating. With several workers the rows of C are
// split into slabs, one goroutine each. A triangle pass splits at equal
// triangle area — rows [0, hi) hold (hi/p)² of it, so slab s ends at
// p·√(s/W), rounded to whole micro-tiles — each slab narrows the product to
// the columns [0, hi) it can reach, and mirrors its own rows once computed.
func (bk *blockedBackend) symmetric(C *mat.Dense, alpha float64, A *mat.Dense, gram, accumulate bool, workers int) {
	lay := layout{trA: gram, trB: !gram, lower: !accumulate}
	p, k, _ := lay.dims(A, A)
	if workers == 1 || max(p, k) <= naiveMax {
		bk.symLeaf(C, alpha, A, A, accumulate, lay)
		if lay.lower {
			mat.MirrorLower(C)
		}
		return
	}
	nslabs := min(workers, (p+bk.mr-1)/bk.mr)
	hdrs := make([]mat.Dense, 3*nslabs)
	var wg sync.WaitGroup
	lo := 0
	for s := 1; s <= nslabs; s++ {
		hi := s * p / nslabs
		if lay.lower && s < nslabs {
			hi = min(p, int(math.Round(float64(p)*math.Sqrt(float64(s)/float64(nslabs))/float64(bk.mr)))*bk.mr)
		}
		if hi <= lo {
			continue
		}
		cols := p
		if lay.lower {
			cols = hi
		}
		c, l, r := &hdrs[3*s-3], &hdrs[3*s-2], &hdrs[3*s-1]
		C.ViewInto(c, lo, 0, hi-lo, cols)
		opView(l, A, lay.trA, lo, 0, hi-lo, k)
		opView(r, A, lay.trB, 0, 0, k, cols)
		slab := lay
		slab.diag = lo
		wg.Add(1)
		go func() {
			defer wg.Done()
			bk.symLeaf(c, alpha, l, r, accumulate, slab)
			if slab.lower {
				mirrorRows(C, slab.diag, hi)
			}
		}()
		lo = hi
	}
	wg.Wait()
}

// mirrorRows copies the strict lower triangle of C's rows [lo, hi) to its
// transposed place, rows [0, hi) of columns [lo, hi): one slab's share of
// MirrorLower. No other slab reads or writes there — each reaches only its
// own rows, and the earlier ones only columns left of lo.
func mirrorRows(C *mat.Dense, lo, hi int) {
	var lower, upper, diag mat.Dense
	C.ViewInto(&lower, lo, 0, hi-lo, lo)
	C.ViewInto(&upper, 0, lo, lo, hi-lo)
	mat.Transpose(&upper, &lower)
	C.ViewInto(&diag, lo, lo, hi-lo, hi-lo)
	mat.MirrorLower(&diag)
}

// opView initializes hdr as the r×c window at (i, j) of op(M): of M itself,
// or of Mᵗ when tr is set, which is M's c×r window at (j, i).
func opView(hdr, M *mat.Dense, tr bool, i, j, r, c int) {
	if tr {
		M.ViewInto(hdr, j, i, c, r)
	} else {
		M.ViewInto(hdr, i, j, r, c)
	}
}

// symLeaf is the sequential structured call: C (+)= alpha·op(L)·op(R) with
// the transposes and the triangle lay describes. Below the blocked cutoff the
// transposed operand is copied into the pooled slab and the triple loop runs,
// as for a general product of that size.
//
//fastmm:zeroalloc
func (bk *blockedBackend) symLeaf(C *mat.Dense, alpha float64, L, R *mat.Dense, accumulate bool, lay layout) {
	pb := bk.pool.Get().(*packBufs)
	defer bk.pool.Put(pb)
	m, k, n := lay.dims(L, R)
	if m <= naiveMax && k <= naiveMax && n <= naiveMax {
		if lay.trA {
			pb.sS.Reset(m, k, pb.a[:m*k])
			mat.Transpose(pb.sS, L)
			L = pb.sS
		}
		if lay.trB {
			pb.sT.Reset(k, n, pb.b[:k*n])
			mat.Transpose(pb.sT, R)
			R = pb.sT
		}
		small(C, alpha, L, R, accumulate)
		return
	}
	d, a, b := [1]Scaled{{M: C, Coeff: 1}}, [1]Scaled{{M: L, Coeff: 1}}, [1]Scaled{{M: R, Coeff: 1}}
	bk.nest(pb, d[:], alpha, a[:], b[:], accumulate, lay)
}
