//go:build !amd64 || nosimd

// Package avx holds the architecture-specific half of the "simd" leaf
// backend. On this build (non-amd64, or the `nosimd` tag) the assembly is
// compiled out: Supported and Supported512 are false and the gemm package
// substitutes its pure-Go 8×4 kernel, so the "simd" backend keeps working
// everywhere.
package avx

// Supported and Supported512 are false on builds without the assembly
// kernels.
const Supported, Supported512 = false, false

// Dgemm6x8 must never be called when Supported is false.
func Dgemm6x8(kb int, ap, bp, c *float64, ldc int, overwrite bool) {
	panic("gemm/avx: Dgemm6x8 called on a build without the assembly kernel")
}

// Dgemm8x24 must never be called when Supported512 is false.
func Dgemm8x24(kb int, ap, bp, c *float64, ldc int, overwrite bool) {
	panic("gemm/avx: Dgemm8x24 called on a build without the assembly kernel")
}
