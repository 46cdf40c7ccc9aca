package fastmm_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fastmm"
	"fastmm/internal/mat"
)

// High-level algebraic invariants run through the public API, crossing the
// executor, peeling, scheduling and addition-strategy code paths at once.

func mulWith(t *testing.T, e *fastmm.Executor, A, B *fastmm.Matrix) *fastmm.Matrix {
	t.Helper()
	C := fastmm.NewMatrix(A.Rows(), B.Cols())
	if err := e.Multiply(C, A, B); err != nil {
		t.Fatal(err)
	}
	return C
}

// (A·B)·C == A·(B·C) with two different fast algorithms doing the two
// multiplies.
func TestAssociativityAcrossAlgorithms(t *testing.T) {
	strassen, err := fastmm.NewExecutor("strassen", fastmm.Options{Steps: 2})
	if err != nil {
		t.Fatal(err)
	}
	f424, err := fastmm.NewExecutor("fast424", fastmm.Options{Steps: 1})
	if err != nil {
		t.Fatal(err)
	}
	A := fastmm.RandomMatrix(65, 50, 1)
	B := fastmm.RandomMatrix(50, 71, 2)
	C := fastmm.RandomMatrix(71, 44, 3)

	left := mulWith(t, f424, mulWith(t, strassen, A, B), C)
	right := mulWith(t, strassen, A, mulWith(t, f424, B, C))
	if d := mat.MaxAbsDiff(left, right); d > 1e-9 {
		t.Fatalf("associativity violated by %g", d)
	}
}

// Distributivity: A·(B + C) == A·B + A·C.
func TestDistributivityProperty(t *testing.T) {
	e, err := fastmm.NewExecutor("winograd", fastmm.Options{Steps: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := r.Intn(60)+4, r.Intn(60)+4, r.Intn(60)+4
		A := fastmm.NewMatrix(m, k)
		B := fastmm.NewMatrix(k, n)
		C := fastmm.NewMatrix(k, n)
		A.FillRandom(rng)
		B.FillRandom(rng)
		C.FillRandom(rng)

		BC := B.Clone()
		mat.Axpy(BC, 1, C)
		left := mulWith(t, e, A, BC)

		AB := mulWith(t, e, A, B)
		AC := mulWith(t, e, A, C)
		mat.Axpy(AB, 1, AC)
		return mat.MaxAbsDiff(left, AB) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Transposition duality through the catalog: multiplying with ⟨M,K,N⟩ and
// with its permuted ⟨N,K,M⟩ sibling must satisfy (A·B)ᵀ = Bᵀ·Aᵀ.
func TestTransposeDuality(t *testing.T) {
	e223, err := fastmm.NewExecutor("fast223", fastmm.Options{Steps: 2})
	if err != nil {
		t.Fatal(err)
	}
	e322, err := fastmm.NewExecutor("fast322", fastmm.Options{Steps: 2})
	if err != nil {
		t.Fatal(err)
	}
	A := fastmm.RandomMatrix(40, 44, 4)
	B := fastmm.RandomMatrix(44, 63, 5)
	AB := mulWith(t, e223, A, B)

	At := fastmm.NewMatrix(44, 40)
	Bt := fastmm.NewMatrix(63, 44)
	mat.Transpose(At, A)
	mat.Transpose(Bt, B)
	BtAt := mulWith(t, e322, Bt, At)

	ABt := fastmm.NewMatrix(63, 40)
	mat.Transpose(ABt, AB)
	if d := mat.MaxAbsDiff(ABt, BtAt); d > 1e-9 {
		t.Fatalf("(AB)ᵀ ≠ BᵀAᵀ by %g", d)
	}
}
