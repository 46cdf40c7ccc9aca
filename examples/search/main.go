// Search: rediscover Strassen's algorithm numerically, the way §2.3.2 of the
// paper discovers new fast algorithms. Starting from a perturbed copy of
// Strassen's factors (simulating a converged-but-inexact ALS solution), the
// pipeline runs alternating least squares and then rounds the result to an
// exact, verified rank-7 ⟨2,2,2⟩ algorithm, which is finally used to multiply
// matrices.
//
//	go run ./examples/search
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"

	"fastmm"
	"fastmm/search"
)

func main() {
	// Start near (but not at) Strassen: jitter every coefficient.
	orig, err := fastmm.GetAlgorithm("strassen")
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	jitter := func(m *fastmm.Matrix) *fastmm.Matrix {
		out := m.Clone()
		for i := 0; i < out.Rows(); i++ {
			for j := 0; j < out.Cols(); j++ {
				out.Set(i, j, out.At(i, j)+0.04*(2*rng.Float64()-1))
			}
		}
		return out
	}

	res, err := search.ForBaseCase(2, 2, 2, search.Options{
		Rank: 7, MaxIter: 500, Tol: 1e-10, Starts: 1,
		InitU: jitter(orig.U), InitV: jitter(orig.V), InitW: jitter(orig.W),
	})
	if err != nil {
		log.Fatalf("ALS did not converge (residual %g): %v", res.Residual, err)
	}
	fmt.Printf("ALS converged: residual %.2e after %d sweeps\n", res.Residual, res.Iters)

	bc := fastmm.BaseCase{M: 2, K: 2, N: 2}
	found, err := search.Exactify(bc, res.U, res.V, res.W, "rediscovered-strassen", 0.15)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exactified to a verified rank-%d ⟨2,2,2⟩ algorithm (exponent %.3f)\n",
		found.Rank(), found.Exponent())

	// Use the discovered algorithm end to end.
	n := 512
	A := fastmm.RandomMatrix(n, n, 1)
	B := fastmm.RandomMatrix(n, n, 2)
	C := fastmm.NewMatrix(n, n)
	exec, err := fastmm.NewExecutorFor(found, fastmm.Options{Steps: 2})
	if err != nil {
		log.Fatal(err)
	}
	if err := exec.Multiply(C, A, B); err != nil {
		log.Fatal(err)
	}
	ref := fastmm.NewMatrix(n, n)
	fastmm.Classical(ref, A, B)
	var maxDiff float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			// A NaN on either side counts as +Inf, so it can never pass.
			d := math.Abs(C.At(i, j) - ref.At(i, j))
			if math.IsNaN(d) {
				d = math.Inf(1)
			}
			if d > maxDiff {
				maxDiff = d
			}
		}
	}
	fmt.Printf("multiplied %d×%d with it: max |diff| vs classical = %.2e\n", n, n, maxDiff)
	if maxDiff > 1e-9 {
		os.Exit(1)
	}
}
