package gemm

import (
	"fastmm/internal/gemm/avx"
	"fastmm/internal/mat"
)

func init() {
	mr, nr, kern := pickSIMDKernel()
	Register(newBlocked("simd", avx.Supported, mr, nr, kern))
}

// pickSIMDKernel selects the widest full-tile micro-kernel this build and
// machine can run: the AVX-512 8×24 assembly, else the AVX2+FMA 6×8
// assembly, else the pure-Go rendering of the 6×8 tile (non-amd64, the
// `nosimd` build tag, or a CPU/OS without AVX2/FMA/YMM support). All three
// run under the one backend name — the tile is a property of the machine,
// not something a plan or a cache key chooses.
func pickSIMDKernel() (mr, nr int, kern microKernelFunc) {
	switch {
	case avx.Supported512:
		return 8, 24, microKernel8x24asm
	case avx.Supported:
		return 6, 8, microKernel6x8asm
	}
	return 6, 8, microKernel6x8go
}

// microKernel6x8asm adapts the packed-panel call onto the assembly kernel:
// the tile's top-left element address plus the row stride is all the asm
// needs to accumulate straight into C.
func microKernel6x8asm(C *mat.Dense, i0, j0, kb int, ap, bp []float64) {
	d := C.Data()
	avx.Dgemm6x8(kb, &ap[0], &bp[0], &d[i0*C.Stride()+j0], C.Stride())
}

// microKernel8x24asm is the same adapter for the AVX-512 tile.
func microKernel8x24asm(C *mat.Dense, i0, j0, kb int, ap, bp []float64) {
	d := C.Data()
	avx.Dgemm8x24(kb, &ap[0], &bp[0], &d[i0*C.Stride()+j0], C.Stride())
}
