package core

import (
	"math/rand"
	"testing"

	"fastmm/internal/addchain"
	"fastmm/internal/algo"
	"fastmm/internal/catalog"
	"fastmm/internal/gemm"
	"fastmm/internal/mat"
)

// mustExec builds an executor for a catalog algorithm or fails the test.
func mustExec(t *testing.T, name string, opts Options) *Executor {
	t.Helper()
	a, err := catalog.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func randomProblem(p, q, r int, seed int64) (C, A, B *mat.Dense) {
	rng := rand.New(rand.NewSource(seed))
	A = mat.New(p, q)
	B = mat.New(q, r)
	A.FillRandom(rng)
	B.FillRandom(rng)
	return mat.New(p, r), A, B
}

// TestDFSMultiplyIsAllocationFree is the tentpole regression test: after
// warm-up, a DFS (and sequential) Multiply must reuse its arenas instead of
// allocating — only the per-call run context remains.
func TestDFSMultiplyIsAllocationFree(t *testing.T) {
	const limit = 4.0
	for _, mode := range []Parallel{Sequential, DFS} {
		for _, strat := range []addchain.Strategy{addchain.WriteOnce, addchain.Pairwise, addchain.Streaming} {
			e := mustExec(t, "strassen", Options{Resources: Resources{Workers: 1}, Steps: 2, Parallel: mode, Strategy: strat})
			// 128 divides exactly; 131 peels at every level, so the
			// dynamic-peeling fixups are held to the same guarantee.
			for _, n := range []int{128, 131} {
				C, A, B := randomProblem(n, n, n, 1)
				if err := e.Multiply(C, A, B); err != nil { // warm the arenas
					t.Fatal(err)
				}
				avg := testing.AllocsPerRun(20, func() { e.Multiply(C, A, B) })
				// Under -race closures escape and sync.Pool drops a share
				// of Puts, so warmed arenas and pack buffers are
				// re-allocated at random (66–79/op seen, different every
				// run); the un-instrumented run is the contract.
				if avg > limit && !raceEnabled {
					t.Errorf("%v/%v n=%d steady-state Multiply: %.1f allocs/op, want ≤ %.0f", mode, strat, n, avg, limit)
				}
			}
		}
	}
}

// TestDFSAllocationFreeWithCSE covers the CSE aux-temporary path.
func TestDFSAllocationFreeWithCSE(t *testing.T) {
	e := mustExec(t, "fast424", Options{Resources: Resources{Workers: 1}, Steps: 1, Parallel: DFS, CSE: true})
	C, A, B := randomProblem(128, 64, 128, 2)
	if err := e.Multiply(C, A, B); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() { e.Multiply(C, A, B) })
	if avg > 4 && !raceEnabled { // as above: not a contract under the race detector
		t.Errorf("CSE steady-state Multiply: %.1f allocs/op, want ≤ 4", avg)
	}
}

// TestParallelSchedulersBoundedAllocs: BFS/HYBRID pay per-task goroutine and
// closure allocations, but they must stay proportional to the task count —
// not to the flop count — and the matrix temporaries must all come from
// arenas. Strassen at 2 steps spawns 7+49 tasks; ~20 small allocations per
// task is the goroutine/closure overhead ceiling.
func TestParallelSchedulersBoundedAllocs(t *testing.T) {
	for _, mode := range []Parallel{BFS, Hybrid} {
		e := mustExec(t, "strassen", Options{Resources: Resources{Workers: 4}, Steps: 2, Parallel: mode})
		C, A, B := randomProblem(128, 128, 128, 3)
		if err := e.Multiply(C, A, B); err != nil {
			t.Fatal(err)
		}
		avg := testing.AllocsPerRun(10, func() { e.Multiply(C, A, B) })
		if avg > 1200 && !raceEnabled { // as above
			t.Errorf("%v steady-state Multiply: %.1f allocs/op, want ≤ 1200", mode, avg)
		}
	}
}

// TestWorkspaceRetainedGrowsThenStabilizes: the pool keeps warmed arenas so
// repeat calls claim no new workspace.
func TestWorkspaceRetainedGrowsThenStabilizes(t *testing.T) {
	e := mustExec(t, "strassen", Options{Resources: Resources{Workers: 1}, Steps: 2, Parallel: DFS})
	if e.WorkspaceRetained() != 0 {
		t.Fatalf("fresh executor retains %d bytes", e.WorkspaceRetained())
	}
	C, A, B := randomProblem(128, 128, 128, 4)
	if err := e.Multiply(C, A, B); err != nil {
		t.Fatal(err)
	}
	after := e.WorkspaceRetained()
	if after == 0 {
		t.Fatal("no workspace retained after a Multiply")
	}
	for i := 0; i < 3; i++ {
		if err := e.Multiply(C, A, B); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.WorkspaceRetained(); got != after {
		t.Errorf("retained workspace moved on reuse: %d -> %d", after, got)
	}
}

// TestWorkspaceBytesOrdering checks the Table-3-style analytic model: BFS
// charges every concurrent branch, DFS only one per level, and streaming
// needs more than write-once under DFS.
func TestWorkspaceBytesOrdering(t *testing.T) {
	opts := Options{Resources: Resources{Workers: 4}, Steps: 2}
	a, err := catalog.Get("strassen")
	if err != nil {
		t.Fatal(err)
	}
	mk := func(o Options) *Executor {
		e, err := New(a, o)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	n := 256
	dfs := mk(Options{Resources: Resources{Workers: opts.Workers}, Steps: opts.Steps, Parallel: DFS}).WorkspaceBytes(n, n, n)
	bfs := mk(Options{Resources: Resources{Workers: opts.Workers}, Steps: opts.Steps, Parallel: BFS}).WorkspaceBytes(n, n, n)
	stream := mk(Options{Resources: Resources{Workers: opts.Workers}, Steps: opts.Steps, Parallel: DFS, Strategy: addchain.Streaming}).WorkspaceBytes(n, n, n)
	if dfs <= 0 || bfs <= 0 {
		t.Fatalf("non-positive estimates dfs=%d bfs=%d", dfs, bfs)
	}
	if bfs <= dfs {
		t.Errorf("BFS estimate %d not above DFS %d", bfs, dfs)
	}
	if stream <= dfs {
		t.Errorf("streaming estimate %d not above write-once %d", stream, dfs)
	}
	// Below the recursion cutoff there is no fast-path workspace, only the
	// gemm packing slabs.
	slab := 8 * gemm.Default().PackFloatsPerWorker()
	if got := mk(Options{Resources: Resources{Workers: 1}, Steps: opts.Steps, Parallel: Sequential}).WorkspaceBytes(1, 1, 1); got != slab {
		t.Errorf("leaf-only estimate %d, want %d", got, slab)
	}
}

// TestWorkspaceCapDegradesBFSToDFS: with a cap below the BFS footprint the
// call must still succeed (via DFS) and spawn no tasks.
func TestWorkspaceCapDegradesBFSToDFS(t *testing.T) {
	var stats Stats
	a, err := catalog.Get("strassen")
	if err != nil {
		t.Fatal(err)
	}
	probe, err := New(a, Options{Resources: Resources{Workers: 4}, Steps: 2, Parallel: BFS})
	if err != nil {
		t.Fatal(err)
	}
	n := 128
	need := probe.WorkspaceBytes(n, n, n)

	e, err := New(a, Options{Resources: Resources{Workers: 4, Workspace: need / 2}, Steps: 2, Parallel: BFS, Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	C, A, B := randomProblem(n, n, n, 5)
	if err := e.Multiply(C, A, B); err != nil {
		t.Fatal(err)
	}
	if s := stats.Snapshot(); s.TasksSpawned != 0 {
		t.Errorf("capped call spawned %d tasks, want 0 (degraded to DFS)", s.TasksSpawned)
	}
	want := mat.New(n, n)
	gemm.Mul(want, A, B)
	if !mat.EqualApprox(C, want, 1e-9*float64(n)) {
		t.Error("degraded multiply produced a wrong result")
	}

	// A generous cap must leave BFS alone.
	stats.Reset()
	e2, err := New(a, Options{Resources: Resources{Workers: 4, Workspace: 4 * need}, Steps: 2, Parallel: BFS, Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.Multiply(C, A, B); err != nil {
		t.Fatal(err)
	}
	if s := stats.Snapshot(); s.TasksSpawned == 0 {
		t.Error("uncapped BFS spawned no tasks")
	}
}

// TestHighRankAlgorithm: a rank above the arena scratch-chunk size (the
// classical ⟨11,11,11⟩ decomposition has rank 1331) must multiply, not
// panic — oversized per-level scratch gets dedicated chunks.
func TestHighRankAlgorithm(t *testing.T) {
	a := algo.Classical(11, 11, 11)
	e, err := New(a, Options{Steps: 1})
	if err != nil {
		t.Fatal(err)
	}
	C, A, B := randomProblem(22, 22, 22, 6)
	if err := e.Multiply(C, A, B); err != nil {
		t.Fatal(err)
	}
	want := mat.New(22, 22)
	gemm.Mul(want, A, B)
	if !mat.EqualApprox(C, want, 1e-10*23) {
		t.Fatalf("wrong result, max diff %g", mat.MaxAbsDiff(C, want))
	}
}

// TestArenaReuseAcrossChangingShapes: alternating problem shapes must keep
// producing correct results while the arenas grow to the largest shape.
func TestArenaReuseAcrossChangingShapes(t *testing.T) {
	for _, mode := range []Parallel{Sequential, DFS, BFS, Hybrid} {
		e := mustExec(t, "strassen", Options{Resources: Resources{Workers: 4}, Steps: 2, Parallel: mode})
		shapes := [][3]int{{64, 64, 64}, {200, 120, 88}, {32, 32, 32}, {200, 120, 88}, {64, 64, 64}}
		for i, s := range shapes {
			C, A, B := randomProblem(s[0], s[1], s[2], int64(100+i))
			if err := e.Multiply(C, A, B); err != nil {
				t.Fatal(err)
			}
			want := mat.New(s[0], s[2])
			gemm.Mul(want, A, B)
			if !mat.EqualApprox(C, want, 1e-8*float64(s[1])) {
				t.Fatalf("%v shape %v (call %d): wrong result, max diff %g",
					mode, s, i, mat.MaxAbsDiff(C, want))
			}
		}
	}
}
