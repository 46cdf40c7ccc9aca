package gemm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fastmm/internal/mat"
)

// The blocked engine has one loop nest, one pair of packers and one slab
// splitter; plain Gemm is its one-source, one-destination, unit-weight call.
// These tests pin the two identities that makes true, bit for bit.

func bitsEqual(a, b *mat.Dense) bool {
	for i := 0; i < a.Rows(); i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			if math.Float64bits(ra[j]) != math.Float64bits(rb[j]) {
				return false
			}
		}
	}
	return true
}

// subView returns a random r×c matrix that is a strided window of a larger
// allocation, so row stride ≠ cols.
func subView(rng *rand.Rand, r, c int) *mat.Dense {
	return randMat(r+5, c+7, rng).View(2, 3, r, c)
}

// TestPlainIsOneEntryFused: Dispatch and DispatchFused with one-entry,
// unit-weight lists produce the same bits — full and border tiles in both
// dims, several k- and n-panels, the small path, vectors, strided views,
// every alpha/accumulate mode, sequential and slab-parallel.
func TestPlainIsOneEntryFused(t *testing.T) {
	shapes := [][3]int{
		{8, 8, 8}, {40, 40, 40}, {48, 48, 48}, // every dim ≤ naiveMax
		{48, 48, 96}, {96, 64, 96}, {72, 50, 120}, // whole tiles on every kernel (rows a multiple of lcm(8,6), cols of 24)
		{61, 53, 67}, {130, 57, 131}, // border tiles in both dims
		{128, 128, 128}, {80, 60, 100}, // 5·24+8 and 4·24+4: a narrow border beside full 24-wide tiles
		{64, kc + 44, 48}, {50, 2*kc + 1, 70}, // k > kc
		{20, 30, nc + 37}, // n > nc
		{mc + 9, 40, 90},  // m > mc
		{1, 300, 1}, {1, 70, 500}, {500, 70, 1}, {1, 1, 1},
		{96, 40, 40}, {40, 40, 96}, // slabs that land on the small path
	}
	rng := rand.New(rand.NewSource(14))
	for _, bk := range kernelTable() {
		t.Logf("kernel %s: plain vs one-entry fused, bit for bit", bk.name)
		for _, sh := range shapes {
			m, k, n := sh[0], sh[1], sh[2]
			for _, strided := range []bool{false, true} {
				mk := func(r, c int) *mat.Dense {
					if strided {
						return subView(rng, r, c)
					}
					return randMat(r, c, rng)
				}
				A, B, C0 := mk(m, k), mk(k, n), mk(m, n)
				for _, alpha := range []float64{1, -1, 0.5} {
					for _, acc := range []bool{false, true} {
						for _, w := range []int{1, 2, 3} {
							plain, fused := C0.Clone(), C0.Clone()
							Dispatch(bk, plain, alpha, A, B, acc, w)
							DispatchFused(bk, []Scaled{{M: fused, Coeff: 1}}, alpha,
								[]Scaled{{M: A, Coeff: 1}}, []Scaled{{M: B, Coeff: 1}}, acc, w)
							if !bitsEqual(plain, fused) {
								t.Fatalf("%s %dx%dx%d strided=%v alpha=%g acc=%v w=%d: plain and one-entry fused differ (max %g)",
									bk.name, m, k, n, strided, alpha, acc, w, mat.MaxAbsDiff(plain, fused))
							}
						}
					}
				}
			}
		}
	}
}

// TestMultiSourcePackingIsPackedSum: packing sources one after another
// (first overwrites, the rest add) leaves the bits that packing the
// materialized sum — formed in the same left-to-right order — would, padding
// included. Scales are powers of two so scale·(c·v) == (scale·c)·v exactly.
func TestMultiSourcePackingIsPackedSum(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	const rows, cols = 70, 90
	sum := func(srcs []Scaled) *mat.Dense {
		S := mat.New(rows, cols)
		mat.Scale(S, srcs[0].Coeff, srcs[0].M)
		for _, s := range srcs[1:] {
			mat.Axpy(S, s.Coeff, s.M)
		}
		return S
	}
	same := func(what string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: packed element %d is %g, packing the sum gives %g", what, i, got[i], want[i])
			}
		}
	}
	for _, bk := range kernelTable() {
		for _, nsrc := range []int{2, 4} {
			srcs := make([]Scaled, nsrc)
			for i := range srcs {
				srcs[i] = Scaled{M: subView(rng, rows, cols), Coeff: []float64{1, -1, 0.5, 0.3}[(i+nsrc)%4]}
			}
			S := sum(srcs)
			// Panels that start inside the matrix: one ending on a partial
			// micro-tile of every kernel's mr and nr, one on whole tiles
			// (48 rows, 72 = 3·24 columns).
			const r0, c0 = 3, 5
			for _, dims := range [][2]int{{61, 75}, {48, 72}} {
				pr, pc := dims[0], dims[1]
				for _, scale := range []float64{1, -1, 0.5} {
					got, want := make([]float64, bk.apLen), make([]float64, bk.apLen)
					for i := range got {
						got[i], want[i] = math.NaN(), math.NaN() // stale slab contents must not show through
					}
					for t, s := range srcs {
						packA(got, s.M, r0, c0, pr, pc, bk.mr, scale*s.Coeff, t > 0)
					}
					packA(want, S, r0, c0, pr, pc, bk.mr, scale, false)
					n := (pr + bk.mr - 1) / bk.mr * bk.mr * pc
					same(fmt.Sprintf("%s packA %d×%d ×%d scale %g", bk.name, pr, pc, nsrc, scale), got[:n], want[:n])
				}
				got, want := make([]float64, bk.bpLen), make([]float64, bk.bpLen)
				for i := range got {
					got[i], want[i] = math.NaN(), math.NaN()
				}
				for t, s := range srcs {
					packB(got, s.M, r0, c0, pr, pc, bk.nr, s.Coeff, t > 0)
				}
				packB(want, S, r0, c0, pr, pc, bk.nr, 1, false)
				n := (pc + bk.nr - 1) / bk.nr * bk.nr * pr
				same(fmt.Sprintf("%s packB %d×%d ×%d", bk.name, pr, pc, nsrc), got[:n], want[:n])
			}
		}
	}
}

// BenchmarkLeaf is the engine's microbenchmark: the sequential leaf on the
// default backend as plain gemm and as a fused product with 2 and 4 sources
// per side (two destinations, the first a first-touch overwrite the way the
// executor marks them). A fused/plain gap that grows is the packers or the
// epilogue; a plain rate that drops is the loop nest or the micro-kernel.
func BenchmarkLeaf(b *testing.B) {
	be := Default()
	rng := rand.New(rand.NewSource(1))
	list := func(count, r, c int) []Scaled {
		out := make([]Scaled, count)
		for i := range out {
			out[i] = Scaled{M: randMat(r, c, rng), Coeff: []float64{1, -1}[i%2]}
		}
		return out
	}
	for _, kind := range []struct {
		name string
		srcs int
	}{{"plain", 1}, {"fused2", 2}, {"fused4", 4}} {
		for _, n := range []int{128, 512, 1024} {
			b.Run(fmt.Sprintf("%s/%d", kind.name, n), func(b *testing.B) {
				asrcs, bsrcs, dsts := list(kind.srcs, n, n), list(kind.srcs, n, n), list(2, n, n)
				dsts[0].Overwrite = true
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if kind.srcs == 1 {
						Dispatch(be, dsts[0].M, 1, asrcs[0].M, bsrcs[0].M, false, 1)
					} else {
						DispatchFused(be, dsts, 1, asrcs, bsrcs, true, 1)
					}
				}
				b.ReportMetric(2*float64(n)*float64(n)*float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
			})
		}
	}
}
