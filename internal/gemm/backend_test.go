package gemm

import (
	"fmt"
	"math"
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

// TestBackendRegistry: one blocked backend, "simd", beside the blas bridge
// of a blas build.
func TestBackendRegistry(t *testing.T) {
	if got := fmt.Sprint(Names()); got != "[simd]" && got != "[blas simd]" {
		t.Fatalf("registered backends %s, want [simd] or, under -tags blas, [blas simd]", got)
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
	if err := SetDefault("simd"); err != nil {
		t.Fatal(err)
	}
	if Default().Name() != "simd" {
		t.Fatalf("SetDefault(simd) not honored: %s", Default().Name())
	}
	if err := SetDefault("no-such-backend"); err == nil {
		t.Fatal("SetDefault of unknown backend must fail")
	}
	if err := SetDefault(old); err != nil {
		t.Fatal(err)
	}
}

// TestBackendPackWorkspace pins the workspace contract: every blocked engine
// reports its exact slab sizes (whole micro-tiles of the mc/nc panels), and
// no tile's slabs outgrow the 256-deep, 2048-wide panels the engine had
// before k-panels were capped at kcMax.
func TestBackendPackWorkspace(t *testing.T) {
	be, _ := Get("simd")
	for _, bk := range append(kernelTable(), be.(*blockedBackend)) {
		wantA := ((mc + bk.mr - 1) / bk.mr) * bk.mr * kcMax
		wantB := kcMax * ((nc + bk.nr - 1) / bk.nr) * bk.nr
		if got := bk.PackFloatsPerWorker(); got != int64(wantA+wantB) {
			t.Fatalf("%s: PackFloatsPerWorker = %d, want %d", bk.name, got, wantA+wantB)
		}
	}
	for _, bk := range kernelTable() {
		old := ((128+bk.mr-1)/bk.mr)*bk.mr*256 + 256*((2048+bk.nr-1)/bk.nr)*bk.nr
		if got := bk.PackFloatsPerWorker(); got > int64(old) {
			t.Errorf("%s: PackFloatsPerWorker = %d, above the %d of 256×2048 panels", bk.name, got, old)
		}
	}
}

// TestKPanels pins the k-split: ⌈k/kcMax⌉ panels, each at most kcMax deep,
// depths within one of each other, together covering k.
func TestKPanels(t *testing.T) {
	for _, k := range []int{1, 255, 256, 320, 384, 385, 625, 1024, 1280} {
		np := kPanels(k)
		if want := (k + kcMax - 1) / kcMax; np != want {
			t.Fatalf("k=%d: %d panels, want %d", k, np, want)
		}
		next, lo, hi := 0, kcMax, 0
		for p := 0; p < np; p++ {
			pc, kb := kPanel(k, np, p)
			if pc != next {
				t.Fatalf("k=%d: panel %d starts at %d, want %d", k, p, pc, next)
			}
			next += kb
			lo, hi = min(lo, kb), max(hi, kb)
		}
		if next != k || hi > kcMax || lo < 1 || hi-lo > 1 {
			t.Fatalf("k=%d: %d panels of %d..%d summing to %d", k, np, lo, hi, next)
		}
	}
}

// TestSIMDKernelVsGoKernel runs every runnable micro-kernel on raw packed
// panels against the plain rank-1 sum over the same panels: it pins the
// packed layout each kernel reads (ap[k*mr+i], bp[k*nr+j]), that a tile at a
// non-zero origin of a strided destination touches nothing around it, and
// that overwrite stores the sum into a NaN tile it must not read. The
// assembly kernels differ from the Go ones only by FMA rounding.
func TestSIMDKernelVsGoKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, bk := range kernelTable() {
		mr, nr := bk.mr, bk.nr
		for _, kb := range []int{1, 2, 7, 64, 256} {
			for _, overwrite := range []bool{false, true} {
				ap, bp := randMat(1, kb*mr, rng).Data(), randMat(1, kb*nr, rng).Data()
				got := randMat(mr+4, nr+4, rng) // tile at (2, 3) of the strided view below
				if overwrite {
					got.View(2, 3, mr, nr).Fill(math.NaN())
				}
				want := got.Clone()
				bk.kern(got.View(1, 1, mr+2, nr+2), 1, 2, kb, ap, bp, overwrite)
				for i := 0; i < mr; i++ {
					for j := 0; j < nr; j++ {
						sum := 0.0
						for k := 0; k < kb; k++ {
							sum += ap[k*mr+i] * bp[k*nr+j]
						}
						if !overwrite {
							sum += want.At(2+i, 3+j)
						}
						want.Set(2+i, 3+j, sum)
					}
				}
				if d := maxDiff(got, want); !(d <= 1e-12*float64(kb+1)) {
					t.Fatalf("%s kb=%d overwrite=%v: kernel differs from the rank-1 sum by %g", bk.name, kb, overwrite, d)
				}
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
