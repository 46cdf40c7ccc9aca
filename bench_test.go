// Root-level benchmarks: one testing.B benchmark per table/figure of the
// paper, each driving the same experiment code that cmd/fmmbench runs at
// full size (here in Quick mode so `go test -bench=.` finishes promptly).
// Use `go run ./cmd/fmmbench -exp all` for the full reproduction, and
// `go run ./benchmark` for the end-to-end numbers of the shipped dispatcher.
package fastmm_test

import (
	"io"
	"testing"

	"fastmm/internal/bench"
	"fastmm/internal/mat"
)

// runExperiment runs one experiment per benchmark iteration.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := bench.Config{Trials: 1, Quick: true, Workers: 8, SmallWorkers: 4, Out: io.Discard}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Run(id, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2(b *testing.B)   { runExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B)   { runExperiment(b, "table3") }
func BenchmarkFig1(b *testing.B)     { runExperiment(b, "fig1") }
func BenchmarkFig2(b *testing.B)     { runExperiment(b, "fig2") }
func BenchmarkFig3(b *testing.B)     { runExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)     { runExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)     { runExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)     { runExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)     { runExperiment(b, "fig7") }
func BenchmarkSquare54(b *testing.B) { runExperiment(b, "square54") }
func BenchmarkStream(b *testing.B)   { runExperiment(b, "stream") }
func BenchmarkStab(b *testing.B)     { runExperiment(b, "stability") }

// Direct kernel benchmarks at a fixed, comparable size: the classical
// baseline, the interpreter on Strassen/shape-matched algorithms, and the
// generated Strassen. These give `go test -bench` users an immediate
// apples-to-apples view without the experiment harness. Each *Fused twin runs
// its sibling's plan with Options.Fused, the explicit-vs-fused comparison of
// the last recursion level at the same plan (BenchmarkLeaf in internal/gemm
// measures the fused leaf alone).

func benchMultiply(b *testing.B, alg string, n, steps, workers int, par parallelMode, fused bool) {
	A, B := randSquare(n)
	C := mat.New(n, n)
	e := mustExecutor(b, alg, steps, workers, par, fused)
	flops := 2*float64(n)*float64(n)*float64(n) - float64(n)*float64(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Multiply(C, A, B); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "effGFLOPS")
}

func BenchmarkStrassen512Seq(b *testing.B)  { benchMultiply(b, "strassen", 512, 2, 1, seqMode, false) }
func BenchmarkStrassen1024Seq(b *testing.B) { benchMultiply(b, "strassen", 1024, 2, 1, seqMode, false) }
func BenchmarkStrassen1024SeqFused(b *testing.B) {
	benchMultiply(b, "strassen", 1024, 2, 1, seqMode, true)
}
func BenchmarkStrassen1024DFS8(b *testing.B) {
	benchMultiply(b, "strassen", 1024, 2, 8, dfsMode, false)
}
func BenchmarkStrassen1024BFS8(b *testing.B) {
	benchMultiply(b, "strassen", 1024, 2, 8, bfsMode, false)
}
func BenchmarkStrassen1024Hyb8(b *testing.B) {
	benchMultiply(b, "strassen", 1024, 2, 8, hybMode, false)
}
func BenchmarkFast424Outer1024(b *testing.B)  { benchOuter(b, "fast424", 1024, 256, false) }
func BenchmarkStrassenOuter1024(b *testing.B) { benchOuter(b, "strassen", 1024, 256, false) }
func BenchmarkStrassenOuter1024Fused(b *testing.B) {
	benchOuter(b, "strassen", 1024, 256, true)
}
