package gemm

import (
	"fmt"
	"math/rand"
	"testing"

	"fastmm/internal/mat"
)

// TestBackendsMatchNaive is the per-backend correctness property: every
// registered backend — whichever of the asm/pure-Go/cgo paths this build
// selected — must agree with the Naive oracle on shapes that exercise full
// tiles, edge tiles, the small-path, scalar factors, and accumulation.
func TestBackendsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := [][3]int{
		{1, 1, 1}, {5, 7, 3}, {6, 8, 6}, {8, 4, 8}, {12, 16, 24},
		{48, 48, 48}, {49, 50, 51}, {64, 64, 64}, {100, 37, 83},
		{129, 257, 63}, {130, 260, 70}, {200, 200, 200}, {3, 300, 5},
		{257, 129, 255},
	}
	for _, name := range Names() {
		be, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			for _, s := range shapes {
				m, k, n := s[0], s[1], s[2]
				A, B := randMat(m, k, rng), randMat(k, n, rng)
				want := mat.New(m, n)
				Naive(want, A, B)

				got := mat.New(m, n)
				Dispatch(be, got, 1, A, B, false, 1)
				if d := mat.MaxAbsDiff(got, want); d > tolFor(k) {
					t.Fatalf("%dx%dx%d: differs from Naive by %g", m, k, n, d)
				}

				// alpha scaling + accumulate: C += -0.5·A·B twice is C - A·B.
				acc := want.Clone()
				Dispatch(be, acc, -0.5, A, B, true, 1)
				Dispatch(be, acc, -0.5, A, B, true, 1)
				if d := acc.MaxAbs(); d > tolFor(k) {
					t.Fatalf("%dx%dx%d: accumulate/alpha residual %g", m, k, n, d)
				}

				// Parallel slabs must match, and the requested worker count
				// is honored even above GOMAXPROCS (the clamp is gone).
				got.Zero()
				Dispatch(be, got, 1, A, B, false, 7)
				if d := mat.MaxAbsDiff(got, want); d > tolFor(k) {
					t.Fatalf("%dx%dx%d workers=7: differs by %g", m, k, n, d)
				}
			}
		})
	}
}

// TestBackendsOnViews checks strided operands and destinations: every
// backend must read views correctly and write nothing outside the C view.
func TestBackendsOnViews(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	big := randMat(300, 300, rng)
	A := big.View(10, 20, 100, 120)
	B := big.View(50, 60, 120, 90)
	want := mat.New(100, 90)
	Naive(want, A, B)
	for _, name := range Names() {
		be, _ := Get(name)
		Cbig := mat.New(200, 200)
		C := Cbig.View(5, 7, 100, 90)
		Dispatch(be, C, 1, A, B, false, 1)
		if d := mat.MaxAbsDiff(C, want); d > tolFor(120) {
			t.Fatalf("%s: view gemm off by %g", name, d)
		}
		if Cbig.At(4, 7) != 0 || Cbig.At(105, 7) != 0 || Cbig.At(5, 97) != 0 {
			t.Fatalf("%s: wrote outside destination view", name)
		}
	}
}

func TestBackendRegistry(t *testing.T) {
	names := Names()
	if len(names) < 2 {
		t.Fatalf("expected at least portable+simd registered, have %v", names)
	}
	seen := map[string]bool{}
	for _, n := range names {
		seen[n] = true
	}
	if !seen["portable"] || !seen["simd"] {
		t.Fatalf("portable and simd must always register, have %v", names)
	}
	if _, err := Get("no-such-backend"); err == nil {
		t.Fatal("Get of unknown backend must fail")
	}
	if _, err := Resolve("no-such-backend"); err == nil {
		t.Fatal("Resolve of unknown backend must fail")
	}
	be, err := Resolve("")
	if err != nil || be == nil {
		t.Fatalf("Resolve(\"\") must return the default backend, got %v, %v", be, err)
	}
	if be.Name() != Default().Name() {
		t.Fatalf("Resolve(\"\") = %s, Default() = %s", be.Name(), Default().Name())
	}

	old := Default().Name()
	if err := SetDefault("portable"); err != nil {
		t.Fatal(err)
	}
	if Default().Name() != "portable" {
		t.Fatalf("SetDefault(portable) not honored: %s", Default().Name())
	}
	if err := SetDefault("no-such-backend"); err == nil {
		t.Fatal("SetDefault of unknown backend must fail")
	}
	if err := SetDefault(old); err != nil {
		t.Fatal(err)
	}
}

// TestBackendPackWorkspace pins the workspace contract: blocked backends
// report their exact slab sizes (whole micro-tiles of the mc/nc panels).
func TestBackendPackWorkspace(t *testing.T) {
	for _, name := range []string{"portable", "simd"} {
		be, _ := Get(name)
		bk := be.(*blockedBackend)
		wantA := ((mc + bk.mr - 1) / bk.mr) * bk.mr * kc
		wantB := kc * ((nc + bk.nr - 1) / bk.nr) * bk.nr
		if got := be.PackFloatsPerWorker(); got != int64(wantA+wantB) {
			t.Fatalf("%s: PackFloatsPerWorker = %d, want %d", name, got, wantA+wantB)
		}
	}
}

// TestSIMDKernelVsGoKernel runs every runnable micro-kernel on raw packed
// panels against the plain rank-1 sum over the same panels: it pins the
// packed layout each kernel reads (ap[k*mr+i], bp[k*nr+j]) and that a tile
// at a non-zero origin of a strided destination touches nothing around it.
// The assembly kernels differ from the Go ones only by FMA rounding.
func TestSIMDKernelVsGoKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, bk := range kernelTable() {
		mr, nr := bk.mr, bk.nr
		for _, kb := range []int{1, 2, 7, 64, 256} {
			ap, bp := randMat(1, kb*mr, rng).Data(), randMat(1, kb*nr, rng).Data()
			got := randMat(mr+4, nr+4, rng) // tile at (2, 3) of the strided view below
			want := got.Clone()
			bk.kern(got.View(1, 1, mr+2, nr+2), 1, 2, kb, ap, bp)
			for i := 0; i < mr; i++ {
				for j := 0; j < nr; j++ {
					sum := 0.0
					for k := 0; k < kb; k++ {
						sum += ap[k*mr+i] * bp[k*nr+j]
					}
					want.Set(2+i, 3+j, want.At(2+i, 3+j)+sum)
				}
			}
			if d := mat.MaxAbsDiff(got, want); d > 1e-12*float64(kb+1) {
				t.Fatalf("%s kb=%d: kernel differs from the rank-1 sum by %g", bk.name, kb, d)
			}
		}
	}
}

func TestDispatchDegenerate(t *testing.T) {
	for _, name := range Names() {
		be, _ := Get(name)
		// m=0 / n=0: nothing to do, must not panic.
		Dispatch(be, mat.New(0, 4), 1, mat.New(0, 5), mat.New(5, 4), false, 1)
		Dispatch(be, mat.New(4, 0), 1, mat.New(4, 5), mat.New(5, 0), false, 2)
		// k=0 or alpha=0 zero C unless accumulating.
		C := mat.New(3, 4)
		C.Fill(1)
		Dispatch(be, C, 1, mat.New(3, 0), mat.New(0, 4), false, 1)
		if C.MaxAbs() != 0 {
			t.Fatalf("%s: k=0 product must zero C", name)
		}
		C.Fill(1)
		Dispatch(be, C, 0, mat.New(3, 5), mat.New(5, 4), true, 1)
		if C.MaxAbs() != 1 {
			t.Fatalf("%s: alpha=0 accumulate must leave C untouched", name)
		}
	}
}

func ExampleDefault() {
	fmt.Println(Default().Name() != "")
	// Output: true
}
