package gemm

import "fastmm/internal/mat"

// microKernel8x4 computes a full 8×4 tile: C[i0:i0+8, j0:j0+4] += Ap·Bp
// over kb terms, or = Ap·Bp with overwrite set. Thirty-two scalar
// accumulators keep the tile in registers — the widest tile the Go compiler
// reliably keeps off the stack on every architecture, which is what makes
// it the "simd" backend's fallback where no assembly kernel runs.
func microKernel8x4(C *mat.Dense, i0, j0, kb int, ap, bp []float64, overwrite bool) {
	const (
		mr = 8
		nr = 4
	)
	var (
		c00, c01, c02, c03 float64
		c10, c11, c12, c13 float64
		c20, c21, c22, c23 float64
		c30, c31, c32, c33 float64
		c40, c41, c42, c43 float64
		c50, c51, c52, c53 float64
		c60, c61, c62, c63 float64
		c70, c71, c72, c73 float64
	)
	a := ap[: kb*mr : kb*mr]
	b := bp[: kb*nr : kb*nr]
	for k := 0; k < kb; k++ {
		b0, b1, b2, b3 := b[k*nr], b[k*nr+1], b[k*nr+2], b[k*nr+3]
		a0 := a[k*mr]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		a1 := a[k*mr+1]
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		a2 := a[k*mr+2]
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		a3 := a[k*mr+3]
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
		a4 := a[k*mr+4]
		c40 += a4 * b0
		c41 += a4 * b1
		c42 += a4 * b2
		c43 += a4 * b3
		a5 := a[k*mr+5]
		c50 += a5 * b0
		c51 += a5 * b1
		c52 += a5 * b2
		c53 += a5 * b3
		a6 := a[k*mr+6]
		c60 += a6 * b0
		c61 += a6 * b1
		c62 += a6 * b2
		c63 += a6 * b3
		a7 := a[k*mr+7]
		c70 += a7 * b0
		c71 += a7 * b1
		c72 += a7 * b2
		c73 += a7 * b3
	}
	add := func(i int, v0, v1, v2, v3 float64) {
		row := C.Row(i0 + i)[j0 : j0+4 : j0+4]
		if overwrite {
			row[0], row[1], row[2], row[3] = v0, v1, v2, v3
			return
		}
		row[0] += v0
		row[1] += v1
		row[2] += v2
		row[3] += v3
	}
	add(0, c00, c01, c02, c03)
	add(1, c10, c11, c12, c13)
	add(2, c20, c21, c22, c23)
	add(3, c30, c31, c32, c33)
	add(4, c40, c41, c42, c43)
	add(5, c50, c51, c52, c53)
	add(6, c60, c61, c62, c63)
	add(7, c70, c71, c72, c73)
}
