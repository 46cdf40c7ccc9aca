// Allocation-regression coverage for the public API: a reused Executor must
// run its recursion out of the workspace arenas (internal/workspace), not
// the garbage collector. BenchmarkExecutorReuse is the acceptance benchmark
// — run with -benchmem to see allocs/op next to ns/op.
package fastmm_test

import (
	"fmt"
	"testing"

	"fastmm"
)

// TestExecutorReuseAllocsDFS enforces the tentpole guarantee: steady-state
// DFS Multiply does at most a handful of allocations per call.
func TestExecutorReuseAllocsDFS(t *testing.T) {
	exec, err := fastmm.NewExecutor("strassen", fastmm.Options{
		Steps: 2, Parallel: fastmm.DFS, Resources: fastmm.Resources{Workers: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	n := 128
	A := fastmm.RandomMatrix(n, n, 1)
	B := fastmm.RandomMatrix(n, n, 2)
	C := fastmm.NewMatrix(n, n)
	if err := exec.Multiply(C, A, B); err != nil { // warm the arenas
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() { exec.Multiply(C, A, B) })
	if avg > 4 && !raceEnabled {
		t.Errorf("steady-state DFS Multiply: %.1f allocs/op, want ≤ 4", avg)
	}
	if exec.WorkspaceRetained() == 0 {
		t.Error("executor retained no workspace after use")
	}
}

// TestWorkspaceAccountingPublic sanity-checks the Table-3-style estimate
// through the public aliases.
func TestWorkspaceAccountingPublic(t *testing.T) {
	dfs, err := fastmm.NewExecutor("strassen", fastmm.Options{Resources: fastmm.Resources{Workers: 4}, Steps: 2, Parallel: fastmm.DFS})
	if err != nil {
		t.Fatal(err)
	}
	bfs, err := fastmm.NewExecutor("strassen", fastmm.Options{Resources: fastmm.Resources{Workers: 4}, Steps: 2, Parallel: fastmm.BFS})
	if err != nil {
		t.Fatal(err)
	}
	if d, b := dfs.WorkspaceBytes(512, 512, 512), bfs.WorkspaceBytes(512, 512, 512); b <= d {
		t.Errorf("BFS workspace estimate %d not above DFS %d", b, d)
	}
}

// BenchmarkExecutorReuse is the allocation benchmark of the acceptance
// criteria: GFLOPS-relevant timing plus allocs/op (via -benchmem semantics;
// ReportAllocs is always on) for a reused executor under each scheduler.
func BenchmarkExecutorReuse(b *testing.B) {
	n := 256
	for _, bc := range []struct {
		name string
		mode fastmm.Parallel
		w    int
	}{
		{"Sequential", fastmm.Sequential, 1},
		{"DFS", fastmm.DFS, 4},
		{"BFS", fastmm.BFS, 4},
		{"Hybrid", fastmm.Hybrid, 4},
	} {
		b.Run(bc.name, func(b *testing.B) {
			exec, err := fastmm.NewExecutor("strassen", fastmm.Options{
				Steps: 2, Parallel: bc.mode, Resources: fastmm.Resources{Workers: bc.w},
			})
			if err != nil {
				b.Fatal(err)
			}
			A := fastmm.RandomMatrix(n, n, 1)
			B := fastmm.RandomMatrix(n, n, 2)
			C := fastmm.NewMatrix(n, n)
			if err := exec.Multiply(C, A, B); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				exec.Multiply(C, A, B)
			}
			b.StopTimer()
			secs := b.Elapsed().Seconds() / float64(b.N)
			b.ReportMetric(fastmm.EffectiveGFLOPS(n, n, n, secs), "eff-GFLOPS")
		})
	}
}

// BenchmarkMultiplyNoReuse is the contrast case: a fresh executor per call
// rebuilds plans and re-warms arenas every time.
func BenchmarkMultiplyNoReuse(b *testing.B) {
	n := 256
	A := fastmm.RandomMatrix(n, n, 1)
	B := fastmm.RandomMatrix(n, n, 2)
	C := fastmm.NewMatrix(n, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fastmm.Multiply(C, A, B, "strassen", fastmm.Options{Resources: fastmm.Resources{Workers: 4}, Steps: 2, Parallel: fastmm.DFS}); err != nil {
			b.Fatal(err)
		}
	}
}

// ExampleExecutor_WorkspaceBytes documents the memory/parallelism dial.
func ExampleExecutor_WorkspaceBytes() {
	dfs, _ := fastmm.NewExecutor("strassen", fastmm.Options{Resources: fastmm.Resources{Workers: 4}, Steps: 2, Parallel: fastmm.DFS})
	bfs, _ := fastmm.NewExecutor("strassen", fastmm.Options{Resources: fastmm.Resources{Workers: 4}, Steps: 2, Parallel: fastmm.BFS})
	fmt.Println(bfs.WorkspaceBytes(1024, 1024, 1024) > dfs.WorkspaceBytes(1024, 1024, 1024))
	// Output: true
}
