package core

import (
	"math/rand"
	"testing"

	"fastmm/internal/gemm"
	"fastmm/internal/mat"
	"fastmm/internal/op"
)

// TestDoMatchesReference: Do computes C = α·op(A,B) + β·C for every op, α,
// β, explicit or fused last level and scheduler, within the suite's
// tolerance of the gemm oracle, on a peeled shape (fix-ups at both levels).
// MultiplyAdd reads every β as 1. Each wrapper (Multiply, MultiplyAdd,
// MultiplyATA, MultiplySyrk) is bit for bit the Do of its request, and
// MultiplyAdd with α = 0 leaves C untouched.
func TestDoMatchesReference(t *testing.T) {
	const m, k, n = 67, 45, 53
	rng := rand.New(rand.NewSource(44))
	A, B, G := randMat(m, k, rng), randMat(k, n, rng), randMat(m, m, rng) // G seeds every C
	prods := map[op.Op]*mat.Dense{op.ATA: refATA(A), op.Syrk: refSyrk(A)}
	prods[op.Multiply] = mat.New(m, n)
	gemm.Naive(prods[op.Multiply], A, B)
	prods[op.MultiplyAdd] = prods[op.Multiply]
	tol := 1e-10 * float64(max(m, k)+1)

	for _, mode := range []Parallel{Sequential, DFS, BFS, Hybrid} {
		for _, fused := range []bool{false, true} {
			e := mustExec(t, "strassen", Options{Resources: Resources{Workers: 2}, Steps: 2, Parallel: mode, Fused: fused})
			for _, o := range []op.Op{op.Multiply, op.MultiplyAdd, op.ATA, op.Syrk} {
				P := prods[o]
				C0 := G.View(0, 0, P.Rows(), P.Cols()).Clone()
				req := op.Request{Op: o, A: A}
				if !o.UnaryOperand() {
					req.B = B
				}
				for _, alpha := range []float64{1, -2} {
					for _, beta := range []float64{0, 1, 0.5} {
						req.C, req.Alpha, req.Beta = C0.Clone(), alpha, beta
						if err := e.Do(req); err != nil {
							t.Fatal(err)
						}
						if o == op.MultiplyAdd {
							beta = 1
						}
						want := mat.New(P.Rows(), P.Cols())
						for i := 0; i < P.Rows(); i++ {
							for j := 0; j < P.Cols(); j++ {
								want.Set(i, j, alpha*P.At(i, j)+beta*C0.At(i, j))
							}
						}
						if d := mat.MaxAbsDiff(req.C, want); d > tol {
							t.Fatalf("%v fused=%v %s α=%g β=%g: max diff %g > %g", mode, fused, o, alpha, req.Beta, d, tol)
						}
					}
				}

				// The wrapper of the op against Do of its request.
				got, want := C0.Clone(), C0.Clone()
				req = op.Request{Op: o, C: want, A: A, B: req.B}
				var err error
				switch o {
				case op.Multiply:
					err = e.Multiply(got, A, B)
				case op.MultiplyAdd:
					req.Alpha = -2
					err = e.MultiplyAdd(got, A, B, -2)
				case op.ATA:
					err = e.MultiplyATA(got, A)
				case op.Syrk:
					err = e.MultiplySyrk(got, A)
				}
				if err != nil {
					t.Fatal(err)
				}
				if err := e.Do(req); err != nil {
					t.Fatal(err)
				}
				if !bitIdentical(got, want) {
					t.Fatalf("%v fused=%v: the %s wrapper differs from Do by %g", mode, fused, o, mat.MaxAbsDiff(got, want))
				}
			}

			C := G.View(0, 0, m, n).Clone()
			if err := e.MultiplyAdd(C, A, B, 0); err != nil {
				t.Fatal(err)
			}
			if !bitIdentical(C, G.View(0, 0, m, n)) {
				t.Fatalf("%v fused=%v: MultiplyAdd with α = 0 changed C", mode, fused)
			}
		}
	}
}

// TestDoRejectsBeforeWork: a request that fails op.Request.Validate returns
// its error with C untouched, so β is not applied to a C the call refuses.
func TestDoRejectsBeforeWork(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	e := mustExec(t, "strassen", Options{Steps: 1})
	A, B := randMat(8, 6, rng), randMat(6, 8, rng)
	P := randMat(16, 16, rng)
	for name, req := range map[string]op.Request{
		"C rows":      {Op: op.Multiply, C: randMat(7, 8, rng), A: A, B: B, Beta: 0.5},
		"nil B":       {Op: op.MultiplyAdd, C: randMat(8, 8, rng), A: A},
		"ATA with B":  {Op: op.ATA, C: randMat(6, 6, rng), A: A, B: B, Beta: 0.5},
		"Syrk C":      {Op: op.Syrk, C: randMat(6, 6, rng), A: A, Beta: 0.5},
		"C aliases A": {Op: op.Multiply, C: P.View(0, 0, 8, 8), A: P.View(4, 4, 8, 6), B: B, Beta: 0.5},
		"invalid op":  {Op: op.Op(-1), C: randMat(8, 8, rng), A: A, B: B, Beta: 0.5},
	} {
		before := req.C.Clone()
		if err := e.Do(req); err == nil {
			t.Errorf("%s: Do accepted an invalid request", name)
		}
		if !bitIdentical(req.C, before) {
			t.Errorf("%s: a refused request changed C", name)
		}
	}
}
