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
		{64, kcMax + 44, 48}, {50, 2*kcMax + 1, 70}, // k > kcMax
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

// TestPackLayout holds both packers to the micro-panel layout written out
// element by element, not to another run of the packer: packB's panel of
// scale·X at (pc, jc) is bp[(j/w)·w·kb + k·w + j%w] = scale·X[pc+k][jc+j],
// packA's at (ic, pc) is ap[(i/w)·w·kb + k·w + i%w] = scale·X[ic+i][pc+k],
// and the padding of a partial last strip is exactly zero. Every kernel's
// widths are covered, each packer at both (the transposed layouts swap
// them), on panels that start inside a strided view, with and without a
// partial strip, kb from 1 to kcMax, and add on top of an earlier source.
// The slab starts NaN-poisoned, so an element the packer skips shows, and
// nothing past the panel may be written.
func TestPackLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	const r0, c0 = 3, 5
	rows, cols := r0+kcMax+2, c0+3*maxNR+4
	packers := []struct {
		name string
		x, y *mat.Dense // the packed source and the one packed before it
		// pack packs the kb×nb panel of scale·src at (r0, c0) of the
		// panel's orientation, at width w.
		pack func(bp []float64, src *mat.Dense, kb, nb, w int, scale float64, add bool)
		at   func(src *mat.Dense, k, j int) float64
	}{
		{"packB", subView(rng, rows, cols), subView(rng, rows, cols),
			func(bp []float64, src *mat.Dense, kb, nb, w int, scale float64, add bool) {
				packB(bp, src, r0, c0, kb, nb, w, scale, add)
			},
			func(src *mat.Dense, k, j int) float64 { return src.At(r0+k, c0+j) }},
		{"packA", subView(rng, cols, rows), subView(rng, cols, rows),
			func(bp []float64, src *mat.Dense, kb, nb, w int, scale float64, add bool) {
				packA(bp, src, c0, r0, nb, kb, w, scale, add)
			},
			func(src *mat.Dense, k, j int) float64 { return src.At(c0+j, r0+k) }},
	}
	for _, bk := range kernelTable() {
		widths := []int{bk.mr, bk.nr}
		if bk.mr == bk.nr {
			widths = widths[:1]
		}
		for _, p := range packers {
			for _, w := range widths {
				for _, kb := range []int{1, 7, kcMax} {
					for _, nb := range []int{1, w, 2*w + 3, 3 * w} {
						for _, scale := range []float64{1, -1, 0.5} {
							for _, add := range []bool{false, true} {
								strips := (nb + w - 1) / w
								bp := make([]float64, strips*w*kb+w)
								for i := range bp {
									bp[i] = math.NaN()
								}
								if add {
									p.pack(bp, p.y, kb, nb, w, -0.5, false)
								}
								p.pack(bp, p.x, kb, nb, w, scale, add)
								what := fmt.Sprintf("%s %s w=%d kb=%d nb=%d scale=%g add=%v", bk.name, p.name, w, kb, nb, scale, add)
								for k := 0; k < kb; k++ {
									for j := 0; j < strips*w; j++ {
										var want float64 // padding
										if j < nb {
											want = scale * p.at(p.x, k, j)
											if add {
												want = -0.5*p.at(p.y, k, j) + want
											}
										}
										if got := bp[(j/w)*w*kb+k*w+j%w]; math.Float64bits(got) != math.Float64bits(want) {
											t.Fatalf("%s: element (k=%d, j=%d) is %g, want %g", what, k, j, got, want)
										}
									}
								}
								for i, v := range bp[strips*w*kb:] {
									if !math.IsNaN(v) {
										t.Fatalf("%s: wrote %g past the panel, at +%d", what, v, i)
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// BenchmarkLeaf is the engine's microbenchmark: the sequential leaf on the
// default backend as plain gemm and as a fused product with 2 and 4 sources
// per side (two destinations, the first a first-touch overwrite the way the
// executor marks them, which takes the primary route: a direct kernel store,
// then one derived sweep), on squares, and as plain gemm on the
// outer-product and tall-skinny shapes of the paper's Figs. 6–7, where k is
// one or two k-panels deep. The scatter2 rows time the scatter route: 2
// sources per side into two accumulating destinations, with no first-touch
// mark, as Strassen's M4 and M5 take on every k-panel. A fused/plain gap
// that grows is the packers or the epilogue; a plain rate that drops is the
// loop nest or the micro-kernel.
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
	leaf := func(name string, srcs, m, k, n int, firstTouch bool) {
		b.Run(name, func(b *testing.B) {
			if srcs > 1 && !CanFuse(be) {
				b.Skip("the default backend cannot fuse")
			}
			asrcs, bsrcs, dsts := list(srcs, m, k), list(srcs, k, n), list(min(srcs, 2), m, n)
			dsts[0].Overwrite = firstTouch
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if srcs == 1 {
					Dispatch(be, dsts[0].M, 1, asrcs[0].M, bsrcs[0].M, false, 1)
				} else {
					DispatchFused(be, dsts, 1, asrcs, bsrcs, true, 1)
				}
			}
			b.ReportMetric(2*float64(m)*float64(k)*float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
		})
	}
	for _, kind := range []struct {
		name       string
		srcs       int
		firstTouch bool
	}{{"plain", 1, true}, {"fused2", 2, true}, {"fused4", 4, true}, {"scatter2", 2, false}} {
		for _, n := range []int{128, 512, 1024} {
			leaf(fmt.Sprintf("%s/%d", kind.name, n), kind.srcs, n, n, n, kind.firstTouch)
		}
	}
	for _, sh := range [][3]int{{2560, 320, 2560}, {2500, 625, 625}} {
		leaf(fmt.Sprintf("plain/%dx%dx%d", sh[0], sh[1], sh[2]), 1, sh[0], sh[1], sh[2], true)
	}
}

// BenchmarkPack times each packer on the panel it packs in the loop nest:
// packB at nr = 24 on a kcMax×nc B panel and at nr = 8 on the kcMax×mc
// panel of AᵗA's transposed A, packA at mr = 8 on an mc×kcMax A panel and at
// mr = 24 on the nc×kcMax panel of Syrk's transposed B. Each source panel is
// a window of a wider matrix, as in a real call. GB/s counts the panel read
// once and written once, the bytes mat's BenchmarkCopy counts for a copy, so
// the two read as a ratio.
func BenchmarkPack(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	bench := func(name string, rows, cols, width int, pack func(dst []float64, X *mat.Dense, width int)) {
		b.Run(name, func(b *testing.B) {
			X := randMat(rows+64, cols+64, rng).View(0, 0, rows, cols)
			dst := make([]float64, (rows+maxNR)*(cols+maxNR))
			b.SetBytes(int64(rows) * int64(cols) * 8 * 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pack(dst, X, width)
			}
		})
	}
	for _, nr := range []int{24, 8} {
		nb := nc
		if nr == 8 {
			nb = mc
		}
		bench(fmt.Sprintf("packB/nr=%d", nr), kcMax, nb, nr, func(dst []float64, X *mat.Dense, nr int) {
			packB(dst, X, 0, 0, X.Rows(), X.Cols(), nr, 1, false)
		})
	}
	for _, mr := range []int{8, 24} {
		mb := mc
		if mr == 24 {
			mb = nc
		}
		bench(fmt.Sprintf("packA/mr=%d", mr), mb, kcMax, mr, func(dst []float64, X *mat.Dense, mr int) {
			packA(dst, X, 0, 0, X.Rows(), X.Cols(), mr, 1, false)
		})
	}
}
