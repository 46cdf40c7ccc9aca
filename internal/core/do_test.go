package core

import (
	"math/rand"
	"testing"

	"fastmm/internal/addchain"
	"fastmm/internal/catalog"
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

// FuzzDo checks Do against the gemm oracle over every non-APA catalog entry,
// scheduler, step count (1 or 2), last-level lowering (explicit or fused),
// addition strategy and CSE, for Multiply and MultiplyAdd with α ∈ {1, −2}
// and β ∈ {0, 1, 0.5}. Each dimension is 0, 1, a prime (37, which peels at
// every level of every entry) or three full-recursion bases plus one, so
// shapes are empty, smaller than one block, peeled, or exact above a one-row
// border. The tolerance is the suite's 1e-10·(k+1) (1e-6·(k+1) for a
// numeric entry, as in check). The checked-in corpus under testdata/fuzz
// covers both lowerings, peeling and β outside {0, 1}.
func FuzzDo(f *testing.F) {
	var algs []string
	for _, name := range catalog.Names() {
		if a, err := catalog.Get(name); err == nil && !a.APA {
			algs = append(algs, name)
		}
	}
	f.Fuzz(func(t *testing.T, alg, sched, steps, flags, strategy, o, alpha, beta, m, k, n uint8) {
		a, err := catalog.Get(algs[int(alg)%len(algs)])
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{
			Resources: Resources{Workers: 2},
			Steps:     1 + int(steps)%2,
			Parallel:  Parallel(sched % 4),
			Fused:     flags&1 != 0,
			CSE:       flags&2 != 0,
			Strategy:  []addchain.Strategy{addchain.WriteOnce, addchain.Pairwise, addchain.Streaming}[strategy%3],
		}
		e, err := New(a, opts)
		if err != nil {
			t.Fatal(err)
		}
		dim := func(i uint8, base int) int {
			full := base
			if opts.Steps == 2 {
				full *= base
			}
			return []int{0, 1, 37, 3*full + 1}[i%4]
		}
		p, q, r := dim(m, a.Base.M), dim(k, a.Base.K), dim(n, a.Base.N)
		rng := rand.New(rand.NewSource(int64(p*q + r)))
		A, B, C0 := randMat(p, q, rng), randMat(q, r, rng), randMat(p, r, rng)
		req := op.Request{
			Op: []op.Op{op.Multiply, op.MultiplyAdd}[o%2], C: C0.Clone(), A: A, B: B,
			Alpha: []float64{1, -2}[alpha%2], Beta: []float64{0, 1, 0.5}[beta%3],
		}
		if err := e.Do(req); err != nil {
			t.Fatal(err)
		}
		b := req.Beta
		if req.Op == op.MultiplyAdd {
			b = 1
		}
		want := mat.New(p, r)
		gemm.Naive(want, A, B)
		for i := 0; i < p; i++ {
			for j := 0; j < r; j++ {
				want.Set(i, j, req.Alpha*want.At(i, j)+b*C0.At(i, j))
			}
		}
		tol := 1e-10 * float64(q+1)
		if a.Numeric {
			tol = 1e-6 * float64(q+1)
		}
		if d := mat.MaxAbsDiff(req.C, want); d > tol {
			t.Fatalf("%s %+v %s α=%g β=%g %dx%dx%d: max diff %g > %g", a.Name, opts, req.Op, req.Alpha, req.Beta, p, q, r, d, tol)
		}
	})
}
