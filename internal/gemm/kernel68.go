package gemm

import "fastmm/internal/mat"

// microKernel6x8go is the pure-Go rendering of the SIMD backend's AVX2 6×8
// micro-kernel: same tile shape, same packed-panel layout, same k-ordered
// summation, so it is the drop-in fallback when the assembly is compiled out
// (`nosimd`, non-amd64) or unavailable at run time. 6×8 is the canonical
// AVX2 dgemm tile — 12 four-lane FMA accumulators plus two B loads and an A
// broadcast fit the 16 ymm registers — and keeping the Go fallback on the
// exact same shape means results that differ from the AVX2 asm only by FMA
// rounding.
func microKernel6x8go(C *mat.Dense, i0, j0, kb int, ap, bp []float64, overwrite bool) {
	const (
		mr = 6
		nr = 8
	)
	var acc [mr * nr]float64
	a := ap[: kb*mr : kb*mr]
	b := bp[: kb*nr : kb*nr]
	for k := 0; k < kb; k++ {
		bk := b[k*nr : k*nr+nr : k*nr+nr]
		ak := a[k*mr : k*mr+mr : k*mr+mr]
		for i := 0; i < mr; i++ {
			ai := ak[i]
			row := acc[i*nr : i*nr+nr : i*nr+nr]
			for j, bv := range bk {
				row[j] += ai * bv
			}
		}
	}
	for i := 0; i < mr; i++ {
		row := C.Row(i0 + i)[j0 : j0+nr : j0+nr]
		if overwrite {
			copy(row, acc[i*nr:i*nr+nr])
			continue
		}
		for j := 0; j < nr; j++ {
			row[j] += acc[i*nr+j]
		}
	}
}
