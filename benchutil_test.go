package fastmm_test

import (
	"math/rand"
	"testing"

	"fastmm"
	"fastmm/internal/core"
	"fastmm/internal/mat"
)

type parallelMode = fastmm.Parallel

const (
	seqMode = fastmm.Sequential
	dfsMode = fastmm.DFS
	bfsMode = fastmm.BFS
	hybMode = fastmm.Hybrid
)

func randSquare(n int) (*mat.Dense, *mat.Dense) {
	rng := rand.New(rand.NewSource(int64(n)))
	A, B := mat.New(n, n), mat.New(n, n)
	A.FillRandom(rng)
	B.FillRandom(rng)
	return A, B
}

func mustExecutor(b *testing.B, alg string, steps, workers int, par parallelMode, fused bool) *core.Executor {
	b.Helper()
	e, err := fastmm.NewExecutor(alg, fastmm.Options{Resources: fastmm.Resources{Workers: workers}, Steps: steps, Parallel: par, Fused: fused})
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// benchOuter benchmarks an outer-product-shaped problem N×K×N.
func benchOuter(b *testing.B, alg string, n, k int, fused bool) {
	rng := rand.New(rand.NewSource(int64(n + k)))
	A, B := mat.New(n, k), mat.New(k, n)
	A.FillRandom(rng)
	B.FillRandom(rng)
	C := mat.New(n, n)
	e := mustExecutor(b, alg, 1, 1, seqMode, fused)
	flops := 2*float64(n)*float64(k)*float64(n) - float64(n)*float64(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Multiply(C, A, B); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "effGFLOPS")
}
