//go:build amd64 && !nosimd

// Package avx holds the architecture-specific half of the "simd" leaf
// backend: the double-precision micro-kernels in Go assembly — the AVX-512
// 8×24 tile and the AVX2+FMA 6×8 tile — and the CPUID probing that decides
// which of them may run. It is a separate (assembly-only) package so the
// parent gemm package stays free to use cgo for the optional BLAS backend —
// Go forbids mixing Go assembly and cgo in one package.
package avx

// Supported reports whether this machine can run the AVX2+FMA micro-kernel:
// the OS must save YMM state (OSXSAVE + XCR0) and the CPU must advertise
// AVX, FMA, and AVX2. Supported512 additionally requires AVX512F and an OS
// that saves the opmask and ZMM state, so it implies Supported.
var Supported, Supported512 = detect()

// Dgemm6x8 computes C[0:6, 0:8] += Ap·Bp over kb rank-1 terms, where Ap is
// packed k-major in groups of 6 rows (ap[k*6+i]), Bp k-major in groups of 8
// columns (bp[k*8+j]), and c points at C's tile origin with row stride ldc
// float64s. Callers must check Supported first.
//
//go:noescape
func Dgemm6x8(kb int, ap, bp, c *float64, ldc int)

// Dgemm8x24 is the same contract on the AVX-512 tile: C[0:8, 0:24] += Ap·Bp
// with Ap in groups of 8 rows (ap[k*8+i]) and Bp in groups of 24 columns
// (bp[k*24+j]). Callers must check Supported512 first.
//
//go:noescape
func Dgemm8x24(kb int, ap, bp, c *float64, ldc int)

// cpuid executes CPUID with the given leaf/subleaf; xgetbv0 reads XCR0.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

// The CPUID and XCR0 bits detection reads.
const (
	cpuFMA     = 1 << 12 // leaf 1 ECX
	cpuOSXSAVE = 1 << 27
	cpuAVX     = 1 << 28
	cpuAVX2    = 1 << 5 // leaf 7 EBX
	cpuAVX512F = 1 << 16
	xcrYMM     = 0x06 // XCR0 bits 1, 2: XMM and YMM state
	xcrZMM     = 0xe6 // plus bits 5–7: opmask, ZMM0–15 upper halves, ZMM16–31
)

func detect() (avx2, avx512 bool) {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false, false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&cpuOSXSAVE == 0 {
		return false, false // XGETBV itself would fault
	}
	xcr0, _ := xgetbv0()
	_, ebx7, _, _ := cpuid(7, 0)
	return supports(ecx1, ebx7, xcr0)
}

// supports is the detection predicate on the raw register values: CPUID
// leaf 1 ECX, leaf 7 EBX, and XCR0. A feature bit counts only when the OS
// saves the registers it implies — a CPU that advertises AVX512F under a
// kernel (or hypervisor) that does not enable ZMM state must stay on AVX2.
func supports(ecx1, ebx7, xcr0 uint32) (avx2, avx512 bool) {
	avx2 = ecx1&cpuOSXSAVE != 0 && ecx1&cpuAVX != 0 && ecx1&cpuFMA != 0 &&
		xcr0&xcrYMM == xcrYMM && ebx7&cpuAVX2 != 0
	avx512 = avx2 && ebx7&cpuAVX512F != 0 && xcr0&xcrZMM == xcrZMM
	return avx2, avx512
}
