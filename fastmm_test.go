package fastmm_test

import (
	"fmt"
	"math"
	"testing"

	"fastmm"
)

func naiveMul(C, A, B *fastmm.Matrix) {
	for i := 0; i < A.Rows(); i++ {
		for j := 0; j < B.Cols(); j++ {
			var s float64
			for k := 0; k < A.Cols(); k++ {
				s += A.At(i, k) * B.At(k, j)
			}
			C.Set(i, j, s)
		}
	}
}

func TestPublicMultiply(t *testing.T) {
	A := fastmm.RandomMatrix(70, 65, 1)
	B := fastmm.RandomMatrix(65, 72, 2)
	want := fastmm.NewMatrix(70, 72)
	naiveMul(want, A, B)
	for _, alg := range []string{"strassen", "winograd", "fast424", "classical222"} {
		C := fastmm.NewMatrix(70, 72)
		if err := fastmm.Multiply(C, A, B, alg, fastmm.Options{Steps: 2}); err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		var maxd float64
		for i := 0; i < 70; i++ {
			for j := 0; j < 72; j++ {
				if d := math.Abs(C.At(i, j) - want.At(i, j)); d > maxd {
					maxd = d
				}
			}
		}
		if maxd > 1e-10 {
			t.Fatalf("%s: diff %g", alg, maxd)
		}
	}
}

func TestPublicMultiplyUnknownAlgorithm(t *testing.T) {
	C := fastmm.NewMatrix(2, 2)
	if err := fastmm.Multiply(C, C, C, "not-a-real-algorithm", fastmm.Options{}); err == nil {
		t.Fatal("want error")
	}
}

func TestExecutorReuse(t *testing.T) {
	e, err := fastmm.NewExecutor("strassen", fastmm.Options{Resources: fastmm.Resources{Workers: 2}, Steps: 1, Parallel: fastmm.DFS})
	if err != nil {
		t.Fatal(err)
	}
	A := fastmm.RandomMatrix(33, 44, 3)
	B := fastmm.RandomMatrix(44, 55, 4)
	want := fastmm.NewMatrix(33, 55)
	naiveMul(want, A, B)
	for i := 0; i < 3; i++ {
		C := fastmm.NewMatrix(33, 55)
		if err := e.Multiply(C, A, B); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 33; r++ {
			for c := 0; c < 55; c++ {
				if math.Abs(C.At(r, c)-want.At(r, c)) > 1e-10 {
					t.Fatal("wrong product")
				}
			}
		}
	}
}

func TestScheduleExecutor(t *testing.T) {
	e, err := fastmm.NewScheduleExecutor([]string{"fast336", "fast363", "fast633"}, fastmm.Options{Steps: 3})
	if err != nil {
		t.Fatal(err)
	}
	A := fastmm.RandomMatrix(54, 54, 5)
	B := fastmm.RandomMatrix(54, 54, 6)
	want := fastmm.NewMatrix(54, 54)
	naiveMul(want, A, B)
	C := fastmm.NewMatrix(54, 54)
	if err := e.Multiply(C, A, B); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 54; r++ {
		for c := 0; c < 54; c++ {
			if math.Abs(C.At(r, c)-want.At(r, c)) > 1e-9 {
				t.Fatal("schedule executor wrong")
			}
		}
	}
	if _, err := fastmm.NewScheduleExecutor([]string{"fast336", "nope"}, fastmm.Options{}); err == nil {
		t.Fatal("want error for unknown name in schedule")
	}
}

func TestAlgorithmsCatalogAccess(t *testing.T) {
	names := fastmm.Algorithms()
	if len(names) < 20 {
		t.Fatalf("expected a catalog of 20+ algorithms, got %d", len(names))
	}
	a, err := fastmm.GetAlgorithm("strassen")
	if err != nil || a.Rank() != 7 {
		t.Fatalf("strassen: %v rank=%d", err, a.Rank())
	}
	if err := fastmm.Verify(a); err != nil {
		t.Fatal(err)
	}
	if err := fastmm.Verify(nil); err == nil {
		t.Fatal("nil verify must error")
	}
	for _, n := range fastmm.AlgorithmsForBase(fastmm.BaseCase{M: 2, K: 2, N: 2}) {
		if _, err := fastmm.GetAlgorithm(n); err != nil {
			t.Fatal(err)
		}
	}
}

func TestClassicalHelpers(t *testing.T) {
	A := fastmm.RandomMatrix(50, 60, 7)
	B := fastmm.RandomMatrix(60, 40, 8)
	want := fastmm.NewMatrix(50, 40)
	naiveMul(want, A, B)
	C1 := fastmm.NewMatrix(50, 40)
	fastmm.Classical(C1, A, B)
	C2 := fastmm.NewMatrix(50, 40)
	fastmm.ClassicalParallel(C2, A, B, 4)
	for r := 0; r < 50; r++ {
		for c := 0; c < 40; c++ {
			if math.Abs(C1.At(r, c)-want.At(r, c)) > 1e-11 || math.Abs(C2.At(r, c)-want.At(r, c)) > 1e-11 {
				t.Fatal("classical helpers wrong")
			}
		}
	}
}

// TestDirectEntriesRefuseAliasedC: every entry that multiplies without the
// tuner's request validation refuses a C that shares storage with an
// operand — the executor's entries with an error, the classical helpers with
// a panic, as for mismatched dimensions — and leaves the operands as they
// were. k spans several of the leaf's k-panels, where an aliased product
// would read entries it has already overwritten.
func TestDirectEntriesRefuseAliasedC(t *testing.T) {
	const n = 1024
	exec, err := fastmm.NewExecutor("strassen", fastmm.Options{Steps: 1, Fused: true})
	if err != nil {
		t.Fatal(err)
	}
	refused := func(f func(C, A, B *fastmm.Matrix)) func(C, A, B *fastmm.Matrix) error {
		return func(C, A, B *fastmm.Matrix) (err error) {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("panic: %v", r)
				}
			}()
			f(C, A, B)
			return nil
		}
	}
	for _, entry := range []struct {
		name  string
		unary bool // takes A alone, so C can alias only A
		run   func(C, A, B *fastmm.Matrix) error
	}{
		{"Executor.Multiply", false, exec.Multiply},
		{"Executor.MultiplyAdd", false, func(C, A, B *fastmm.Matrix) error { return exec.MultiplyAdd(C, A, B, 1) }},
		{"Executor.MultiplyATA", true, func(C, A, _ *fastmm.Matrix) error { return exec.MultiplyATA(C, A) }},
		{"Executor.MultiplySyrk", true, func(C, A, _ *fastmm.Matrix) error { return exec.MultiplySyrk(C, A) }},
		{"Classical", false, refused(fastmm.Classical)},
		{"ClassicalParallel", false, refused(func(C, A, B *fastmm.Matrix) { fastmm.ClassicalParallel(C, A, B, 2) })},
	} {
		for _, aliasB := range []bool{false, true} {
			if aliasB && entry.unary {
				continue
			}
			A, B := fastmm.RandomMatrix(n, n, 1), fastmm.RandomMatrix(n, n, 2)
			A0, B0 := A.Clone(), B.Clone()
			C, alias := A, "A"
			if aliasB {
				C, alias = B, "B"
			}
			if err := entry.run(C, A, B); err == nil {
				t.Errorf("%s with C aliasing %s: no error", entry.name, alias)
			}
			if maxAbsDiffPub(A, A0) != 0 || maxAbsDiffPub(B, B0) != 0 {
				t.Errorf("%s with C aliasing %s: a refused call modified its operands", entry.name, alias)
			}
		}
	}
}

func TestEffectiveGFLOPS(t *testing.T) {
	// 1000³ multiply in 1 second: (2e9 − 1e6)·1e-9 ≈ 1.999 GFLOPS.
	got := fastmm.EffectiveGFLOPS(1000, 1000, 1000, 1)
	if math.Abs(got-1.999) > 1e-9 {
		t.Fatalf("got %v", got)
	}
	if fastmm.EffectiveGFLOPS(10, 10, 10, 0) != 0 {
		t.Fatal("zero time must yield 0")
	}
}

func TestMatrixConstructors(t *testing.T) {
	m := fastmm.MatrixFromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(1, 0) != 3 {
		t.Fatal("FromRows")
	}
	s := []float64{1, 2, 3, 4, 5, 6}
	m2 := fastmm.MatrixFromSlice(2, 3, s)
	if m2.At(1, 2) != 6 {
		t.Fatal("FromSlice")
	}
	r := fastmm.RandomMatrix(3, 3, 42)
	r2 := fastmm.RandomMatrix(3, 3, 42)
	if r.At(0, 0) != r2.At(0, 0) {
		t.Fatal("RandomMatrix must be deterministic per seed")
	}
}
