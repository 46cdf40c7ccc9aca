//go:build amd64 && !nosimd

#include "textflag.h"

// func Dgemm6x8(kb int, ap, bp, c *float64, ldc int, overwrite bool)
//
// C[6][8] += Ap·Bp over kb rank-1 terms, or C[6][8] = Ap·Bp without reading
// C when overwrite is set. Ap is in packA order (k-major groups of 6 rows:
// ap[k*6+i]), Bp in packB order (k-major groups of 8 columns: bp[k*8+j]), c
// points at the tile origin in C with row stride ldc float64s. Register plan
// (the canonical AVX2 dgemm tile): Y0..Y11 hold the 6×8 accumulators (row i
// in Y(2i) cols 0..3 and Y(2i+1) cols 4..7), Y12/Y13 the current B row
// halves, Y14/Y15 two A broadcasts in flight.
TEXT ·Dgemm6x8(SB), NOSPLIT, $0-41
	MOVQ kb+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), BX
	MOVQ c+24(FP), DI
	MOVQ ldc+32(FP), DX
	SHLQ $3, DX            // row stride in bytes

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11

loop:
	VMOVUPD      (BX), Y12          // B[k][0:4]
	VMOVUPD      32(BX), Y13        // B[k][4:8]
	VBROADCASTSD (SI), Y14          // A[k][0]
	VBROADCASTSD 8(SI), Y15         // A[k][1]
	VFMADD231PD  Y12, Y14, Y0
	VFMADD231PD  Y13, Y14, Y1
	VFMADD231PD  Y12, Y15, Y2
	VFMADD231PD  Y13, Y15, Y3
	VBROADCASTSD 16(SI), Y14        // A[k][2]
	VBROADCASTSD 24(SI), Y15        // A[k][3]
	VFMADD231PD  Y12, Y14, Y4
	VFMADD231PD  Y13, Y14, Y5
	VFMADD231PD  Y12, Y15, Y6
	VFMADD231PD  Y13, Y15, Y7
	VBROADCASTSD 32(SI), Y14        // A[k][4]
	VBROADCASTSD 40(SI), Y15        // A[k][5]
	VFMADD231PD  Y12, Y14, Y8
	VFMADD231PD  Y13, Y14, Y9
	VFMADD231PD  Y12, Y15, Y10
	VFMADD231PD  Y13, Y15, Y11
	ADDQ         $48, SI            // 6 doubles of Ap
	ADDQ         $64, BX            // 8 doubles of Bp
	DECQ         CX
	JNZ          loop

	MOVBQZX overwrite+40(FP), AX
	TESTQ   AX, AX
	JNZ     store6x8

	// C rows += accumulators (unaligned loads/stores: C is an arbitrary view).
	VADDPD  (DI), Y0, Y0
	VMOVUPD Y0, (DI)
	VADDPD  32(DI), Y1, Y1
	VMOVUPD Y1, 32(DI)
	ADDQ    DX, DI
	VADDPD  (DI), Y2, Y2
	VMOVUPD Y2, (DI)
	VADDPD  32(DI), Y3, Y3
	VMOVUPD Y3, 32(DI)
	ADDQ    DX, DI
	VADDPD  (DI), Y4, Y4
	VMOVUPD Y4, (DI)
	VADDPD  32(DI), Y5, Y5
	VMOVUPD Y5, 32(DI)
	ADDQ    DX, DI
	VADDPD  (DI), Y6, Y6
	VMOVUPD Y6, (DI)
	VADDPD  32(DI), Y7, Y7
	VMOVUPD Y7, 32(DI)
	ADDQ    DX, DI
	VADDPD  (DI), Y8, Y8
	VMOVUPD Y8, (DI)
	VADDPD  32(DI), Y9, Y9
	VMOVUPD Y9, 32(DI)
	ADDQ    DX, DI
	VADDPD  (DI), Y10, Y10
	VMOVUPD Y10, (DI)
	VADDPD  32(DI), Y11, Y11
	VMOVUPD Y11, 32(DI)
	VZEROUPPER
	RET

store6x8:
	// C rows = accumulators: the first k-panel of an overwritten destination.
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    DX, DI
	VMOVUPD Y2, (DI)
	VMOVUPD Y3, 32(DI)
	ADDQ    DX, DI
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	ADDQ    DX, DI
	VMOVUPD Y6, (DI)
	VMOVUPD Y7, 32(DI)
	ADDQ    DX, DI
	VMOVUPD Y8, (DI)
	VMOVUPD Y9, 32(DI)
	ADDQ    DX, DI
	VMOVUPD Y10, (DI)
	VMOVUPD Y11, 32(DI)
	VZEROUPPER
	RET

// func Dgemm8x24(kb int, ap, bp, c *float64, ldc int, overwrite bool)
//
// C[8][24] (+)= Ap·Bp over kb rank-1 terms: the AVX-512 rendering of the same
// contract as Dgemm6x8, overwrite included. Ap is in packA order for mr = 8
// (ap[k*8+i]), Bp in packB order for nr = 24 (bp[k*24+j]). Register plan:
// Z0..Z23 hold the 8×24 accumulators (row i in Z(3i), Z(3i+1), Z(3i+2)),
// Z24..Z26 the current B row, Z27..Z30 the A broadcasts in flight — 24 FMAs against 11 loads per k, a
// ratio the load ports sustain with both 512-bit FMA ports busy. Only AVX512F encodings
// are used (VPXORQ, not the AVX512DQ VXORPD), matching the detection.
#define ROW8x24(off, bc, z0, z1, z2) \
	VBROADCASTSD off(SI), bc; \
	VFMADD231PD  Z24, bc, z0; \
	VFMADD231PD  Z25, bc, z1; \
	VFMADD231PD  Z26, bc, z2

#define ADD8x24(z0, z1, z2) \
	VADDPD  (DI), z0, z0; \
	VMOVUPD z0, (DI); \
	VADDPD  64(DI), z1, z1; \
	VMOVUPD z1, 64(DI); \
	VADDPD  128(DI), z2, z2; \
	VMOVUPD z2, 128(DI); \
	ADDQ    DX, DI

#define STORE8x24(z0, z1, z2) \
	VMOVUPD z0, (DI); \
	VMOVUPD z1, 64(DI); \
	VMOVUPD z2, 128(DI); \
	ADDQ    DX, DI

TEXT ·Dgemm8x24(SB), NOSPLIT, $0-41
	MOVQ kb+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), BX
	MOVQ c+24(FP), DI
	MOVQ ldc+32(FP), DX
	SHLQ $3, DX            // row stride in bytes

	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPXORQ Z12, Z12, Z12
	VPXORQ Z13, Z13, Z13
	VPXORQ Z14, Z14, Z14
	VPXORQ Z15, Z15, Z15
	VPXORQ Z16, Z16, Z16
	VPXORQ Z17, Z17, Z17
	VPXORQ Z18, Z18, Z18
	VPXORQ Z19, Z19, Z19
	VPXORQ Z20, Z20, Z20
	VPXORQ Z21, Z21, Z21
	VPXORQ Z22, Z22, Z22
	VPXORQ Z23, Z23, Z23

loop512:
	// A kb×24 B micro-panel (kb·192 bytes: 72 KiB at the kcMax = 384 cap)
	// does not stay in L1 beside the A micro-panel, so both stream from L2:
	// fetch eight iterations ahead (measured ~10 % on 1024³). Prefetches past
	// the panel end never fault.
	PREFETCHT0 1536(BX)
	PREFETCHT0 1600(BX)
	PREFETCHT0 1664(BX)
	PREFETCHT0 512(SI)
	VMOVUPD (BX), Z24               // B[k][0:8]
	VMOVUPD 64(BX), Z25             // B[k][8:16]
	VMOVUPD 128(BX), Z26            // B[k][16:24]
	ROW8x24(0, Z27, Z0, Z1, Z2)     // A[k][0]
	ROW8x24(8, Z28, Z3, Z4, Z5)
	ROW8x24(16, Z29, Z6, Z7, Z8)
	ROW8x24(24, Z30, Z9, Z10, Z11)
	ROW8x24(32, Z27, Z12, Z13, Z14)
	ROW8x24(40, Z28, Z15, Z16, Z17)
	ROW8x24(48, Z29, Z18, Z19, Z20)
	ROW8x24(56, Z30, Z21, Z22, Z23) // A[k][7]
	ADDQ    $64, SI                 // 8 doubles of Ap
	ADDQ    $192, BX                // 24 doubles of Bp
	DECQ    CX
	JNZ     loop512

	MOVBQZX overwrite+40(FP), AX
	TESTQ   AX, AX
	JNZ     store8x24

	// C rows += accumulators (unaligned: C is an arbitrary view, any ldc ≥ 24).
	ADD8x24(Z0, Z1, Z2)
	ADD8x24(Z3, Z4, Z5)
	ADD8x24(Z6, Z7, Z8)
	ADD8x24(Z9, Z10, Z11)
	ADD8x24(Z12, Z13, Z14)
	ADD8x24(Z15, Z16, Z17)
	ADD8x24(Z18, Z19, Z20)
	ADD8x24(Z21, Z22, Z23)
	VZEROUPPER
	RET

store8x24:
	// C rows = accumulators: the first k-panel of an overwritten destination.
	STORE8x24(Z0, Z1, Z2)
	STORE8x24(Z3, Z4, Z5)
	STORE8x24(Z6, Z7, Z8)
	STORE8x24(Z9, Z10, Z11)
	STORE8x24(Z12, Z13, Z14)
	STORE8x24(Z15, Z16, Z17)
	STORE8x24(Z18, Z19, Z20)
	STORE8x24(Z21, Z22, Z23)
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
