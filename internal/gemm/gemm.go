// Package gemm is the repository's classical matrix-multiplication layer —
// the stand-in for the vendor dgemm (Intel MKL) used throughout Benson &
// Ballard. Fast algorithms call it at the base case of their recursion, and
// it is also the classical baseline every experiment compares against.
//
// Since the paper's central empirical lesson is that the best configuration
// depends on the measured leaf throughput, the leaf kernel is pluggable: a
// Backend is one kernel implementation, and the package keeps a registry of
// them (following the BLIS observation — Van Zee & van de Geijn — that only
// the micro-kernel needs to be architecture-specific):
//
//   - "simd": the blocked engine with the widest micro-kernel the machine
//     runs, chosen at init: 8×24 on AVX-512, else 6×8 on AVX2 FMA lanes
//     (both Go assembly on amd64), else a pure-Go 8×4 (other architectures,
//     older CPUs, the `nosimd` build tag). Always registered; one name for
//     all three.
//   - "blas": a cgo bridge to a vendor cblas_dgemm, only compiled under the
//     `blas` build tag.
//
// The blocked backend is one engine (blocked.go) with the usual
// GotoBLAS/BLIS structure: the operands are partitioned into cache-sized
// panels (one pc → jc → ic loop nest), panels are packed into contiguous
// buffers, and a register-blocked micro-kernel computes MR×NR tiles of C;
// only the micro-kernel and its MR×NR depend on the machine. The
// engine's operands are lists: A and B are each a list of (matrix,
// coefficient) sources summed while packing, and the product goes to a list
// of (matrix, coefficient) destinations — the fused leaf of a fast algorithm
// (Huang et al., arXiv:1611.01120; FusedBackend, DispatchFused), which never
// materializes the S/T operand sums or the M product. Plain gemm is the
// one-source, one-destination, unit-weight call of the same code, so there
// is one loop nest, one A packer, one B packer and one slab splitter to
// measure and to change — and no edge kernel: the packers zero-pad panels to
// whole micro-tiles, so a border tile is the full-tile micro-kernel aimed at
// a scratch tile. With workers > 1 the call is split
// into row (or column) slabs of the destinations, one goroutine each.
//
// The performance *shape* — a ramp-up phase followed by a flat region,
// higher flat rate for square than for skinny shapes — matches Figure 3 of
// the paper, which is what the framework's recursion-cutoff logic depends
// on; the autotuner calibrates one such curve, on the default backend.
//
// The package-level Mul and MulParallel entry points dispatch to Default(),
// the best backend available on this machine (override with FASTMM_BACKEND
// or SetDefault).
//
// Worker contract: the requested worker count is honored as given — the
// kernel no longer silently clamps it to GOMAXPROCS. Budgeting parallelism
// is the caller's job (the executor, tuner, and batcher all size widths from
// one explicit Workers budget and account for every goroutine they request);
// a silent clamp here would make those budgets lie.
package gemm

import (
	"fmt"

	"fastmm/internal/mat"
)

// Blocking parameters shared by every micro-kernel; each kernel brings its
// own MR×NR tile. A k-panel is at most kcMax deep, and a product
// of depth k is split into kPanels(k) = ⌈k/kcMax⌉ panels of near-equal depth:
// every extra panel re-reads and re-writes all of C, so k = 320 runs as one
// panel and k = 625 as 312 + 313 rather than 384 + 241. The packed A panel is
// mc rows by one k-panel, re-read once per nr-wide column strip; the packed
// B panel is one k-panel by nc columns, re-read once per mc-row block. The
// macro-kernel holds one kb×nr B micro-panel while the mr×kb A micro-panels
// pass it; on the 8×4 and 6×8 tiles it fits L1, on 8×24 (72 KiB at kb = 384)
// both stream from L2. nc is sized so one worker's two slabs hold no more
// floats than the 256-deep, 2048-wide panels before them on any tile here.
const (
	kcMax = 384
	mc    = 128
	nc    = 1320
)

// kPanels is the number of k-panels a product of depth k is split into.
func kPanels(k int) int { return (k + kcMax - 1) / kcMax }

// kPanel is the offset and depth of panel p of np: it covers
// [p·k/np, (p+1)·k/np), so the np depths differ by at most one and, with
// np = kPanels(k), none exceeds kcMax.
func kPanel(k, np, p int) (pc, kb int) {
	pc = p * k / np
	return pc, (p+1)*k/np - pc
}

// naiveMax is the size below which the simple triple loop beats the blocked
// path (packing overhead dominates tiny problems).
const naiveMax = 48

// Mul computes C = A·B sequentially with the default backend. C must be M×N
// for A M×K, B K×N.
func Mul(C, A, B *mat.Dense) { Dispatch(Default(), C, 1, A, B, false, 1) }

// MulParallel computes C = alpha·A·B using up to workers goroutines. The
// requested count is honored (see the package comment's worker contract).
func MulParallel(C *mat.Dense, alpha float64, A, B *mat.Dense, workers int) {
	Dispatch(Default(), C, alpha, A, B, false, workers)
}

// Dispatch computes C (+)= alpha·A·B through one backend: it validates
// dimensions, strips the degenerate cases every backend would otherwise
// re-handle, and hands the non-empty problem to be.Gemm. It is the single
// entry point the execution layers (core, tuner, batch) call with their
// chosen backend.
func Dispatch(be Backend, C *mat.Dense, alpha float64, A, B *mat.Dense, accumulate bool, workers int) {
	checkDims(C, A, B)
	m, k, n := A.Rows(), A.Cols(), B.Cols()
	if m == 0 || n == 0 {
		return
	}
	if k == 0 || alpha == 0 {
		if !accumulate {
			C.Zero()
		}
		return
	}
	if workers < 1 {
		workers = 1
	}
	//fastmm:allow Backend interface dispatch; the registry kernels are vetted via blockedBackend.leaf
	be.Gemm(C, alpha, A, B, accumulate, workers)
}

// Naive is the unblocked reference implementation (C = A·B), used by tests as
// an independent oracle and by the framework for degenerate shapes.
func Naive(C, A, B *mat.Dense) {
	checkDims(C, A, B)
	m, k, n := A.Rows(), A.Cols(), B.Cols()
	for i := 0; i < m; i++ {
		ci := C.Row(i)
		for j := range ci {
			ci[j] = 0
		}
		ai := A.Row(i)
		for p := 0; p < k; p++ {
			aip := ai[p]
			bp := B.Row(p)
			for j := 0; j < n; j++ {
				ci[j] += aip * bp[j]
			}
		}
	}
}

func checkDims(C, A, B *mat.Dense) {
	if A.Cols() != B.Rows() || C.Rows() != A.Rows() || C.Cols() != B.Cols() {
		//fastmm:allow panic-path message construction
		panic(fmt.Sprintf("gemm: dimension mismatch C %d×%d = A %d×%d · B %d×%d",
			C.Rows(), C.Cols(), A.Rows(), A.Cols(), B.Rows(), B.Cols()))
	}
}

// small computes C (+)= alpha·A·B with a cache-friendly i-p-j loop; used for
// problems too small to amortize packing.
func small(C *mat.Dense, alpha float64, A, B *mat.Dense, accumulate bool) {
	m, k, n := A.Rows(), A.Cols(), B.Cols()
	for i := 0; i < m; i++ {
		ci := C.Row(i)
		if !accumulate {
			for j := range ci {
				ci[j] = 0
			}
		}
		ai := A.Row(i)
		for p := 0; p < k; p++ {
			aip := alpha * ai[p]
			bp := B.Row(p)[:n]
			for j, bv := range bp {
				ci[j] += aip * bv
			}
		}
	}
}
