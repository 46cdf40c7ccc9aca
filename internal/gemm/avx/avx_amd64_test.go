//go:build amd64 && !nosimd

package avx

import "testing"

// TestSupportsNeedsOSState pins the detection predicate on raw register
// values: a CPUID feature bit selects a kernel only when XCR0 says the OS
// saves the registers that kernel uses.
func TestSupportsNeedsOSState(t *testing.T) {
	const (
		ecx1    = cpuFMA | cpuOSXSAVE | cpuAVX
		avx2Bit = cpuAVX2
		avx512f = cpuAVX512F
	)
	for _, tc := range []struct {
		name             string
		ecx1, ebx7, xcr0 uint32
		avx2, avx512     bool
	}{
		{"avx512 cpu, zmm state enabled", ecx1, avx2Bit | avx512f, 0xe7, true, true},
		{"avx512 cpu, OS saves ymm only", ecx1, avx2Bit | avx512f, 0x07, true, false},
		{"avx512 cpu, opmask without zmm halves", ecx1, avx2Bit | avx512f, 0x27, true, false},
		{"avx2 cpu, zmm bits set regardless", ecx1, avx2Bit, 0xe7, true, false},
		{"avx512f bit without avx2", ecx1, avx512f, 0xe7, false, false},
		{"no ymm state", ecx1, avx2Bit | avx512f, 0xe1, false, false},
		{"no osxsave", ecx1 &^ cpuOSXSAVE, avx2Bit | avx512f, 0xe7, false, false},
		{"no fma", ecx1 &^ cpuFMA, avx2Bit | avx512f, 0xe7, false, false},
	} {
		avx2, avx512 := supports(tc.ecx1, tc.ebx7, tc.xcr0)
		if avx2 != tc.avx2 || avx512 != tc.avx512 {
			t.Errorf("%s: supports = (%v, %v), want (%v, %v)", tc.name, avx2, avx512, tc.avx2, tc.avx512)
		}
	}
	if Supported512 && !Supported {
		t.Error("Supported512 must imply Supported")
	}
}
