package gemm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fastmm/internal/mat"
)

func randDense(r, c int, rng *rand.Rand) *mat.Dense {
	m := mat.New(r, c)
	m.FillRandom(rng)
	return m
}

// unblocked hides a blocked backend's type, so ATA/Syrk take the path every
// other backend takes: a materialized transpose, Dispatch, and the mirror.
type unblocked struct{ Backend }

// structuredBackends is every kernel's engine plus one backend on the
// fallback path.
func structuredBackends() []Backend {
	var out []Backend
	for _, bk := range kernelTable() {
		out = append(out, bk)
	}
	return append(out, unblocked{kernelTable()[0]})
}

// checkSymmetric fails unless C[i][j] == C[j][i] bit for bit.
func checkSymmetric(t *testing.T, what string, C *mat.Dense) {
	t.Helper()
	for i := 0; i < C.Rows(); i++ {
		for j := 0; j < i; j++ {
			if C.At(i, j) != C.At(j, i) {
				t.Fatalf("%s: not exactly symmetric at (%d,%d)", what, i, j)
			}
		}
	}
}

// TestStructuredClassicalMatchesMul holds ATA and Syrk to the product of the
// materialized transpose under the §6 normalisation, on every kernel and on
// the fallback path: results below and above the blocked cutoff (n a
// multiple of no kernel's mr or nr), k on both sides of kcMax, strided views
// of A, α ∈ {1, −1, 0.5} each on one to three workers (rotating over the
// shapes), overwriting a NaN-filled window of a larger matrix (the upper
// triangle must come from the mirror, and nothing outside the window may
// change) and accumulating onto a C that is not symmetric.
func TestStructuredClassicalMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	type shape struct{ p, k int }
	shapes := []shape{{29, 37}, {64, 64}, {80, 16}, {49, 37}, {131, kcMax + 45}, {257, 70}, {257, kcMax + 3}}
	for _, be := range structuredBackends() {
		name := be.Name()
		if _, ok := be.(unblocked); ok {
			name += "/fallback"
		}
		for si, sh := range shapes {
			for _, gram := range []bool{true, false} {
				op, run, A := "Syrk", Syrk, subView(rng, sh.p, sh.k)
				if gram {
					op, run, A = "ATA", ATA, subView(rng, sh.k, sh.p)
				}
				T := mat.New(A.Cols(), A.Rows())
				mat.Transpose(T, A)
				prod := mat.New(sh.p, sh.p)
				if gram {
					Naive(prod, T, A)
				} else {
					Naive(prod, A, T)
				}
				C0 := randDense(sh.p, sh.p, rng) // not symmetric
				blank := mat.New(sh.p+2, sh.p+3)
				blank.Fill(-7)
				bound := 8 * machineEps * (float64(sh.k)*A.MaxAbs()*A.MaxAbs() + C0.MaxAbs())
				for ai, alpha := range []float64{1, -1, 0.5} {
					w := 1 + (ai+si)%3
					what := fmt.Sprintf("%s %s p=%d k=%d alpha=%g w=%d", name, op, sh.p, sh.k, alpha, w)
					frame := blank.Clone()
					C := frame.View(1, 2, sh.p, sh.p)
					C.Fill(math.NaN())
					run(be, C, alpha, A, false, w)
					want := mat.New(sh.p, sh.p)
					mat.Scale(want, alpha, prod)
					if d := mat.MaxAbsDiff(C, want); !(d <= bound) {
						t.Fatalf("%s: off the reference by %g, bound %g", what, d, bound)
					}
					checkSymmetric(t, what, C)
					C.Fill(-7)
					if !bitsEqual(frame, blank) {
						t.Fatalf("%s: wrote outside the destination view", what)
					}

					C = C0.Clone()
					run(be, C, alpha, A, true, w)
					mat.Axpy(want, 1, C0)
					if d := mat.MaxAbsDiff(C, want); !(d <= bound) {
						t.Fatalf("%s accumulate: off the reference by %g, bound %g", what, d, bound)
					}
				}
			}
		}
	}
}

// TestStructuredIsGemmLowerTriangle pins the triangle pass bit for bit: at
// one worker, ATA's and Syrk's lower triangle is exactly the general
// product of the materialized transpose on the same engine — same packed
// panels, same tiles, same k order — and the upper triangle its mirror.
// Slabs of two and three workers hold to it within rounding; the widest
// shape puts slab diagonals inside a second nc-wide column panel (too big
// for the race detector, which the smaller slabs keep busy).
func TestStructuredIsGemmLowerTriangle(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for _, bk := range kernelTable() {
		for _, sh := range [][2]int{{40, 30}, {49, 37}, {131, kcMax + 45}, {200, 2*kcMax + 9}, {mc + 61, 50}, {nc + 37, 3}} {
			p, k := sh[0], sh[1]
			if raceEnabled && p > nc {
				continue
			}
			for _, gram := range []bool{true, false} {
				op, run, A := "Syrk", Syrk, subView(rng, p, k)
				if gram {
					op, run, A = "ATA", ATA, subView(rng, k, p)
				}
				T := mat.New(A.Cols(), A.Rows())
				mat.Transpose(T, A)
				bound := 8 * machineEps * float64(k) * A.MaxAbs() * A.MaxAbs()
				for _, alpha := range []float64{1, -0.5} {
					want, got := mat.New(p, p), mat.New(p, p)
					if gram {
						Dispatch(bk, want, alpha, T, A, false, 1)
					} else {
						Dispatch(bk, want, alpha, A, T, false, 1)
					}
					mat.MirrorLower(want)
					for w := 1; w <= 3; w++ {
						run(bk, got, alpha, A, false, w)
						if w == 1 && !bitsEqual(got, want) {
							t.Fatalf("%s %s p=%d k=%d alpha=%g: differs from the mirrored general product (max %g)",
								bk.name, op, p, k, alpha, mat.MaxAbsDiff(got, want))
						}
						if d := mat.MaxAbsDiff(got, want); !(d <= bound) {
							t.Fatalf("%s %s p=%d k=%d alpha=%g w=%d: off the general product by %g, bound %g",
								bk.name, op, p, k, alpha, w, d, bound)
						}
					}
				}
			}
		}
	}
}

// TestStructuredZeroAlloc: a steady-state ATA or Syrk at one worker takes
// all its scratch from the engine's pool, above and below the blocked
// cutoff.
func TestStructuredZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	rng := rand.New(rand.NewSource(5))
	be := Default()
	for _, sh := range [][2]int{{130, 96}, {30, 20}} {
		A := randDense(sh[0], sh[1], rng)
		G, S := mat.New(sh[1], sh[1]), mat.New(sh[0], sh[0])
		for name, f := range map[string]func(){
			"ATA":  func() { ATA(be, G, 1, A, false, 1) },
			"Syrk": func() { Syrk(be, S, 1, A, false, 1) },
		} {
			f() // warm the pool
			if avg := testing.AllocsPerRun(10, f); avg != 0 {
				t.Errorf("%s on %d×%d: %.1f allocs/op, want 0", name, sh[0], sh[1], avg)
			}
		}
	}
}

// BenchmarkStructured times ATA and Syrk on an n×n operand against a
// general gemm of the same n³ triple, on the default backend at one worker,
// and ATA and Syrk at two workers on the repository benchmark's
// structured-par shapes (AᵗA of 2048×1024, Syrk of 768×1536), where the
// triangle is split into slabs and each slab mirrors its own rows. GFLOPS
// counts the general product's 2·p²·k flops for a p×p result of depth k, so
// the structured rows read as their speed-up over gemm.
func BenchmarkStructured(b *testing.B) {
	be := Default()
	run := func(name, kind string, rows, cols, workers int) {
		b.Run(name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			A, B := randDense(rows, cols, rng), randDense(cols, cols, rng)
			p, k := cols, rows
			if kind == "syrk" {
				p, k = rows, cols
			}
			C := mat.New(p, p)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				switch kind {
				case "ata":
					ATA(be, C, 1, A, false, workers)
				case "syrk":
					Syrk(be, C, 1, A, false, workers)
				default:
					Dispatch(be, C, 1, A, B, false, workers)
				}
			}
			b.ReportMetric(2*float64(p)*float64(p)*float64(k)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
		})
	}
	for _, kind := range []string{"ata", "syrk", "gemm"} {
		for _, n := range []int{512, 1024} {
			run(fmt.Sprintf("%s/%d", kind, n), kind, n, n, 1)
		}
	}
	run("ata/2048x1024/W=2", "ata", 2048, 1024, 2)
	run("syrk/768x1536/W=2", "syrk", 768, 1536, 2)
}
