package gemm

import (
	"fmt"
	"math/rand"
	"testing"

	"fastmm/internal/mat"
)

// unfusedWrap hides a backend's FusedBackend capability so tests can drive
// the DispatchFused fallback path.
type unfusedWrap struct{ Backend }

// fusedReference computes the fused semantics the slow, obvious way:
// materialize S and T, multiply with Naive, scatter.
func fusedReference(dsts []Scaled, alpha float64, asrcs, bsrcs []Scaled, accumulate bool) {
	m, k := asrcs[0].M.Rows(), asrcs[0].M.Cols()
	n := bsrcs[0].M.Cols()
	S := mat.New(m, k)
	for _, s := range asrcs {
		mat.Axpy(S, s.Coeff, s.M)
	}
	T := mat.New(k, n)
	for _, s := range bsrcs {
		mat.Axpy(T, s.Coeff, s.M)
	}
	P := mat.New(m, n)
	Naive(P, S, T)
	if !accumulate {
		for _, d := range dsts {
			d.M.Zero()
		}
	}
	for _, d := range dsts {
		mat.Axpy(d.M, d.Coeff*alpha, P)
	}
}

func randScaleds(rng *rand.Rand, count, r, c int) []Scaled {
	coeffs := []float64{1, -1, 0.5, 2, -0.25}
	out := make([]Scaled, count)
	for i := range out {
		m := mat.New(r, c)
		m.FillRandom(rng)
		out[i] = Scaled{M: m, Coeff: coeffs[rng.Intn(len(coeffs))]}
	}
	return out
}

// TestDispatchFusedMatchesReference drives the fused engine across operand
// counts, alpha values, accumulate modes, worker counts, and shapes chosen to
// hit the small path, full tiles, and the edge micro-kernel — on every
// registered backend plus the materializing fallback.
func TestDispatchFusedMatchesReference(t *testing.T) {
	shapes := []struct{ m, k, n int }{
		{8, 8, 8},    // small path
		{40, 40, 40}, // small path, not tile-aligned
		{96, 64, 96}, // blocked, tile-aligned for both backends
		{61, 53, 67}, // blocked path... below naiveMax in every dim? no: 61 > 48
		{130, 57, 131},
		{256, 32, 64}, // tall-skinny
		{64, 300, 48}, // k spans two kc panels
	}
	backends := []Backend{}
	for _, name := range Names() {
		be, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		backends = append(backends, be)
		if CanFuse(be) {
			backends = append(backends, unfusedWrap{be})
		}
	}
	rng := rand.New(rand.NewSource(7))
	for _, be := range backends {
		name := be.Name()
		if _, ok := be.(unfusedWrap); ok {
			name += "/fallback"
		}
		for _, sh := range shapes {
			for _, alpha := range []float64{1, -0.5} {
				for _, acc := range []bool{false, true} {
					for _, workers := range []int{1, 4} {
						na := 1 + rng.Intn(3)
						nb := 1 + rng.Intn(3)
						nd := 1 + rng.Intn(3)
						asrcs := randScaleds(rng, na, sh.m, sh.k)
						bsrcs := randScaleds(rng, nb, sh.k, sh.n)
						dsts := make([]Scaled, nd)
						want := make([]Scaled, nd)
						for i := range dsts {
							base := mat.New(sh.m, sh.n)
							base.FillRandom(rng)
							dsts[i] = Scaled{M: base.Clone(), Coeff: float64(i) - 1}
							want[i] = Scaled{M: base, Coeff: float64(i) - 1}
						}
						DispatchFused(be, dsts, alpha, asrcs, bsrcs, acc, workers)
						fusedReference(want, alpha, asrcs, bsrcs, acc)
						for i := range dsts {
							if d := mat.MaxAbsDiff(dsts[i].M, want[i].M); d > 1e-9*float64(sh.k+1) {
								t.Fatalf("%s %dx%dx%d alpha=%g acc=%v w=%d dst %d: max diff %g",
									name, sh.m, sh.k, sh.n, alpha, acc, workers, i, d)
							}
						}
					}
				}
			}
		}
	}
}

// TestDispatchFusedDegenerate covers the stripped cases: k=0 and alpha=0
// must zero (or preserve) destinations without touching the backend.
func TestDispatchFusedDegenerate(t *testing.T) {
	be := Default()
	A := mat.New(4, 0)
	B := mat.New(0, 4)
	d := mat.New(4, 4)
	d.Fill(3)
	DispatchFused(be, []Scaled{{M: d, Coeff: 1}}, 1, []Scaled{{M: A, Coeff: 1}}, []Scaled{{M: B, Coeff: 1}}, true, 1)
	if d.At(0, 0) != 3 {
		t.Fatalf("k=0 accumulate clobbered dst: %v", d.At(0, 0))
	}
	DispatchFused(be, []Scaled{{M: d, Coeff: 1}}, 1, []Scaled{{M: A, Coeff: 1}}, []Scaled{{M: B, Coeff: 1}}, false, 1)
	if d.At(0, 0) != 0 {
		t.Fatalf("k=0 overwrite did not zero dst: %v", d.At(0, 0))
	}
	A2, B2 := mat.New(4, 4), mat.New(4, 4)
	d.Fill(5)
	DispatchFused(be, []Scaled{{M: d, Coeff: 1}}, 0, []Scaled{{M: A2, Coeff: 1}}, []Scaled{{M: B2, Coeff: 1}}, false, 1)
	if d.At(0, 0) != 0 {
		t.Fatalf("alpha=0 overwrite did not zero dst: %v", d.At(0, 0))
	}
}

// TestGemmFusedSteadyStateAllocs holds the blocked fused leaf to the same
// zero-allocation budget as plain Gemm: after the pool is warm, a sequential
// fused call allocates nothing.
func TestGemmFusedSteadyStateAllocs(t *testing.T) {
	for _, name := range Names() {
		be, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		fb, ok := be.(FusedBackend)
		if !ok {
			continue
		}
		rng := rand.New(rand.NewSource(11))
		asrcs := randScaleds(rng, 2, 130, 70)
		bsrcs := randScaleds(rng, 3, 70, 131)
		dsts := randScaleds(rng, 2, 130, 131)
		fb.GemmFused(dsts, 1, asrcs, bsrcs, true, 1) // warm the pool
		avg := testing.AllocsPerRun(10, func() {
			fb.GemmFused(dsts, 1, asrcs, bsrcs, true, 1)
		})
		// Race instrumentation defeats the escape analysis the zero-alloc
		// steady state rests on; the un-instrumented run is the contract.
		if avg > 0 && !raceEnabled {
			t.Errorf("%s: steady-state GemmFused allocates %.1f/op, want 0", name, avg)
		}
	}
}

func BenchmarkGemmFused(b *testing.B) {
	be := Default()
	if !CanFuse(be) {
		b.Skip("default backend cannot fuse")
	}
	rng := rand.New(rand.NewSource(3))
	for _, sh := range []struct{ m, k, n int }{{256, 256, 256}, {768, 96, 768}} {
		b.Run(fmt.Sprintf("%dx%dx%d", sh.m, sh.k, sh.n), func(b *testing.B) {
			asrcs := randScaleds(rng, 2, sh.m, sh.k)
			bsrcs := randScaleds(rng, 2, sh.k, sh.n)
			dsts := randScaleds(rng, 3, sh.m, sh.n)
			fb := be.(FusedBackend)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fb.GemmFused(dsts, 1, asrcs, bsrcs, true, 1)
			}
		})
	}
}
