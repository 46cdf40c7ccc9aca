package gemm

import (
	"math/rand"
	"testing"

	"fastmm/internal/gemm/avx"
	"fastmm/internal/mat"
)

// machineEps is the double-precision unit roundoff (internal/stability's
// MachineEps; that package sits above this one, so it cannot be imported).
const machineEps = 2.220446049250313e-16

// kernelTable returns one unregistered blocked engine per micro-kernel this
// build and machine can run — not only the ones the registry selected, so
// the AVX2 tile stays tested on a machine whose "simd" backend runs the
// AVX-512 one, and the Go 6×8 on any machine with assembly.
func kernelTable() []*blockedBackend {
	ks := []*blockedBackend{
		newBlocked("go-8x4", false, 8, 4, microKernel8x4),
		newBlocked("go-6x8", false, 6, 8, microKernel6x8go),
	}
	if avx.Supported {
		ks = append(ks, newBlocked("avx2-6x8", true, 6, 8, microKernel6x8asm))
	}
	if avx.Supported512 {
		ks = append(ks, newBlocked("avx512-8x24", true, 8, 24, microKernel8x24asm))
	}
	return ks
}

// TestKernelConformance holds every runnable micro-kernel, inside the shared
// engine, to Naive under the normalisation of internal/stability (paper §6):
// max|C−Ĉ| ≤ c·ε·(k·‖A‖max·‖B‖max + ‖C0‖max). The shapes put a full tile
// next to every partial (rows, cols) border of the kernel's tile — all of
// which now run through the kernel itself into the scratch tile — with k on
// both sides of a panel boundary, on strided views, overwriting and
// accumulating, sequential and slab-parallel.
func TestKernelConformance(t *testing.T) {
	for _, bk := range kernelTable() {
		t.Run(bk.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(19))
			// One whole tile past the small-path cutoff, so k = 1 still
			// reaches the blocked engine.
			nFull := (naiveMax/bk.nr + 1) * bk.nr
			for r := 0; r < bk.mr; r++ {
				for c := 0; c < bk.nr; c++ {
					for _, k := range []int{1, kc - 1, kc, kc + 1} {
						conform(t, rng, bk, 2*bk.mr+r, k, nFull+c)
					}
				}
			}
			t.Logf("kernel %s: %d×%d tile conforms on every border", bk.name, bk.mr, bk.nr)
		})
	}
}

func conform(t *testing.T, rng *rand.Rand, bk *blockedBackend, m, k, n int) {
	t.Helper()
	A, B, C0 := subView(rng, m, k), subView(rng, k, n), randMat(m, n, rng)
	prod := mat.New(m, n)
	Naive(prod, A, B)
	bound := 8 * machineEps * (float64(k)*A.MaxAbs()*B.MaxAbs() + C0.MaxAbs())
	blank := mat.New(m+2, n+2)
	blank.Fill(-7)
	for _, acc := range []bool{false, true} {
		want := prod
		if acc {
			want = C0.Clone()
			mat.Axpy(want, 1, prod)
		}
		for w := 1; w <= 3; w++ {
			// C is a window of a larger allocation: the frame around it
			// must come back untouched.
			frame := blank.Clone()
			C := frame.View(1, 1, m, n)
			C.CopyFrom(C0)
			Dispatch(bk, C, 1, A, B, acc, w)
			if d := mat.MaxAbsDiff(C, want); !(d <= bound) {
				t.Fatalf("%s %d×%d×%d acc=%v w=%d: off Naive by %g, bound %g", bk.name, m, k, n, acc, w, d, bound)
			}
			C.Fill(-7)
			if !bitsEqual(frame, blank) {
				t.Fatalf("%s %d×%d×%d acc=%v w=%d: wrote outside the destination view", bk.name, m, k, n, acc, w)
			}
		}
	}
}

// TestKernelSelection logs which kernel the "simd" backend selected, so a CI
// log says what the runner exercised, and pins the fallback order.
func TestKernelSelection(t *testing.T) {
	mr, nr, _ := pickSIMDKernel()
	want := [2]int{6, 8}
	if avx.Supported512 {
		want = [2]int{8, 24}
	}
	if [2]int{mr, nr} != want {
		t.Fatalf("simd selected %d×%d with avx2=%v avx512=%v, want %d×%d", mr, nr, avx.Supported, avx.Supported512, want[0], want[1])
	}
	be, _ := Get("simd")
	if gm, gn := be.(*blockedBackend).Tile(); gm != mr || gn != nr {
		t.Fatalf("registered simd tile %d×%d, selected %d×%d", gm, gn, mr, nr)
	}
	t.Logf("kernel selected for simd: %d×%d (avx2=%v avx512=%v accelerated=%v)", mr, nr, avx.Supported, avx.Supported512, be.Accelerated())
}

// BenchmarkKernel times each runnable micro-kernel on packed panels that
// stay in L1 — the in-cache ceiling everything above it is measured against.
func BenchmarkKernel(b *testing.B) {
	for _, bk := range kernelTable() {
		b.Run(bk.name, func(b *testing.B) {
			const kb = 128
			rng := rand.New(rand.NewSource(1))
			ap, bp := randMat(1, kb*bk.mr, rng).Data(), randMat(1, kb*bk.nr, rng).Data()
			C := mat.New(bk.mr, bk.nr)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bk.kern(C, 0, 0, kb, ap, bp)
			}
			b.ReportMetric(2*float64(bk.mr*bk.nr*kb)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
		})
	}
}
