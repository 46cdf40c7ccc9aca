package core

import (
	"math/rand"
	"testing"

	"fastmm/internal/addchain"
	"fastmm/internal/catalog"
	"fastmm/internal/gemm"
	"fastmm/internal/mat"
	"fastmm/internal/trace"
)

// fusedCapableBackend returns a registered backend that supports the fused
// engine (always at least "simd").
func fusedCapableBackend(t *testing.T) string {
	t.Helper()
	for _, name := range gemm.Names() {
		be, err := gemm.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if gemm.CanFuse(be) {
			return name
		}
	}
	t.Fatal("no fused-capable backend registered")
	return ""
}

// TestFusedMatchesExplicit is the fused-vs-explicit property sweep: every
// catalog algorithm, under every scheduler and addition strategy, across
// square, outer-product, and panel operand shapes — exact-divide and peeling
// — must produce the same result through the fused engine as through the
// explicit S/T/M path, within the stability suite's usual bounds.
func TestFusedMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	modes := []Parallel{Sequential, DFS, BFS, Hybrid}
	strategies := []addchain.Strategy{addchain.WriteOnce, addchain.Pairwise, addchain.Streaming}
	for _, name := range catalog.Names() {
		a, err := catalog.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if a.APA {
			continue // approximate algorithms have their own error model
		}
		t.Run(name, func(t *testing.T) {
			b := a.Base
			for _, mode := range modes {
				strat := strategies[rng.Intn(len(strategies))]
				opts := Options{Resources: Resources{Workers: 3}, Steps: 1, Parallel: mode, Strategy: strat}
				explicit, err := New(a, opts)
				if err != nil {
					t.Fatal(err)
				}
				opts.Fused = true
				fused, err := New(a, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !fused.Fused() && gemm.CanFuse(gemm.Default()) {
					t.Fatal("Fused option did not engage on a fuse-capable backend")
				}
				// Square, outer-product (large m·n, small k), and panel
				// (small n) shape classes; trial 0 divides exactly, the rest
				// peel in every dimension.
				shapes := [][3]int{
					{b.M * 3, b.K * 3, b.N * 3},
					{b.M * 5, b.K, b.N * 5},
					{b.M * 4, b.K * 4, b.N},
				}
				for trial, sh := range shapes {
					p, q, r := sh[0], sh[1], sh[2]
					if trial > 0 {
						p += rng.Intn(b.M)
						q += rng.Intn(b.K)
						r += rng.Intn(b.N)
					}
					A := randMat(p, q, rng)
					B := randMat(q, r, rng)
					got := mat.New(p, r)
					if err := fused.Multiply(got, A, B); err != nil {
						t.Fatal(err)
					}
					want := mat.New(p, r)
					if err := explicit.Multiply(want, A, B); err != nil {
						t.Fatal(err)
					}
					tol := 1e-10 * float64(q+1)
					if a.Numeric {
						tol = 1e-6 * float64(q+1)
					}
					if d := mat.MaxAbsDiff(got, want); d > tol {
						t.Fatalf("%s %v/%v %dx%dx%d: fused vs explicit max diff %g > %g",
							name, mode, strat, p, q, r, d, tol)
					}
				}
			}
		})
	}
}

// TestFusedTwoStepAndCSE drives the fused level below an explicit level
// (Steps=2: level 0 runs the explicit plans, level 1 fuses) and the CSE
// expansion path (fused plans expand aux temporaries back to source terms).
func TestFusedTwoStepAndCSE(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	cases := []struct {
		alg  string
		opts Options
	}{
		{"strassen", Options{Resources: Resources{Workers: 3}, Steps: 2, Parallel: DFS, Fused: true}},
		{"strassen", Options{Resources: Resources{Workers: 3}, Steps: 2, Parallel: Hybrid, Fused: true}},
		{"fast424", Options{Resources: Resources{Workers: 1}, Steps: 1, Parallel: Sequential, CSE: true, Fused: true}},
	}
	for _, tc := range cases {
		e := mustExec(t, tc.alg, tc.opts)
		b := e.Algorithm().Base
		p, q, r := b.M*b.M*13+3, b.K*b.K*13+1, b.N*b.N*13+2
		A := randMat(p, q, rng)
		B := randMat(q, r, rng)
		got := mat.New(p, r)
		if err := e.Multiply(got, A, B); err != nil {
			t.Fatal(err)
		}
		want := mat.New(p, r)
		gemm.Mul(want, A, B)
		if d := mat.MaxAbsDiff(got, want); d > 1e-10*float64(q+1) {
			t.Fatalf("%s %+v %dx%dx%d: max diff %g", tc.alg, tc.opts, p, q, r, d)
		}
	}
}

// TestMultiplyAddMatchesTwoStep: the leaf-accumulated MultiplyAdd (fused and
// explicit) must agree with the old materialize-then-add formulation.
func TestMultiplyAddMatchesTwoStep(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, fusedOpt := range []bool{false, true} {
		for _, mode := range []Parallel{Sequential, DFS, BFS, Hybrid} {
			for _, strat := range []addchain.Strategy{addchain.WriteOnce, addchain.Pairwise, addchain.Streaming} {
				e := mustExec(t, "strassen", Options{
					Resources: Resources{Workers: 3}, Steps: 1, Parallel: mode,
					Strategy: strat, Fused: fusedOpt,
				})
				for _, n := range []int{64, 67} {
					A := randMat(n, n, rng)
					B := randMat(n, n, rng)
					C := randMat(n, n, rng)
					alpha := 0.75
					got := C.Clone()
					if err := e.MultiplyAdd(got, A, B, alpha); err != nil {
						t.Fatal(err)
					}
					// Two-step reference: T = A·B, C += alpha·T.
					T := mat.New(n, n)
					gemm.Mul(T, A, B)
					want := C.Clone()
					mat.Axpy(want, alpha, T)
					if d := mat.MaxAbsDiff(got, want); d > 1e-10*float64(n+1) {
						t.Fatalf("fused=%v %v/%v n=%d: MultiplyAdd vs two-step max diff %g",
							fusedOpt, mode, strat, n, d)
					}
				}
			}
		}
	}
}

// TestFusedWorkspaceStrictlyLower is the acceptance bar of the workspace
// story: a one-level DFS fused plan must report strictly lower
// WorkspaceBytes than the identical explicit plan (no S/T/M temporaries at
// the fused level), and the live arena footprint must shrink accordingly.
func TestFusedWorkspaceStrictlyLower(t *testing.T) {
	opts := Options{Resources: Resources{Workers: 1}, Steps: 1, Parallel: DFS}
	explicit := mustExec(t, "strassen", opts)
	opts.Fused = true
	fused := mustExec(t, "strassen", opts)
	if !fused.Fused() {
		t.Skip("default backend cannot fuse")
	}
	for _, sh := range [][3]int{{256, 256, 256}, {512, 64, 512}, {1000, 1000, 1000}} {
		fb := fused.WorkspaceBytes(sh[0], sh[1], sh[2])
		eb := explicit.WorkspaceBytes(sh[0], sh[1], sh[2])
		if fb >= eb {
			t.Errorf("%v: fused WorkspaceBytes %d not strictly below explicit %d", sh, fb, eb)
		}
	}
	// The prediction must be honest: actual retained workspace after a fused
	// multiply stays below the explicit plan's retained bytes.
	n := 256
	rng := rand.New(rand.NewSource(3))
	A, B := randMat(n, n, rng), randMat(n, n, rng)
	C := mat.New(n, n)
	if err := fused.Multiply(C, A, B); err != nil {
		t.Fatal(err)
	}
	if err := explicit.Multiply(C, A, B); err != nil {
		t.Fatal(err)
	}
	if fr, er := fused.WorkspaceRetained(), explicit.WorkspaceRetained(); fr >= er {
		t.Errorf("fused retained %d not below explicit retained %d", fr, er)
	}
}

// TestFusedDFSAllocationFree holds the fused steady state to an even tighter
// budget than the explicit path: with no S/T/M temporaries the only
// per-call allocation left is the pinned run context.
func TestFusedDFSAllocationFree(t *testing.T) {
	limit := 1.0
	if raceEnabled {
		limit = 64.0
	}
	e := mustExec(t, "strassen", Options{Resources: Resources{Workers: 1}, Steps: 1, Parallel: DFS, Fused: true})
	if !e.Fused() {
		t.Skip("default backend cannot fuse")
	}
	for _, n := range []int{128, 131} {
		C, A, B := randomProblem(n, n, n, 9)
		if err := e.Multiply(C, A, B); err != nil { // warm the arenas
			t.Fatal(err)
		}
		avg := testing.AllocsPerRun(20, func() { e.Multiply(C, A, B) })
		if avg > limit {
			t.Errorf("n=%d steady-state fused Multiply: %.1f allocs/op, want ≤ %.0f", n, avg, limit)
		}
	}
}

// TestFusedStatsAndTrace: a fused run reports its products through
// Stats.FusedCalls (not LeafCalls) and records fused-leaf spans.
func TestFusedStatsAndTrace(t *testing.T) {
	var stats Stats
	name := fusedCapableBackend(t)
	e := mustExec(t, "strassen", Options{
		Resources: Resources{Workers: 1}, Steps: 1, Parallel: DFS,
		Backend: name, Fused: true, Stats: &stats,
	})
	C, A, B := randomProblem(64, 64, 64, 21)
	var tr trace.Spans
	if err := e.MultiplyTrace(C, A, B, &tr); err != nil {
		t.Fatal(err)
	}
	s := stats.Snapshot()
	if s.FusedCalls != 7 {
		t.Errorf("FusedCalls = %d, want 7 (strassen rank)", s.FusedCalls)
	}
	if s.LeafCalls != 0 {
		t.Errorf("LeafCalls = %d, want 0 (every leaf fused)", s.LeafCalls)
	}
	fusedSpans := 0
	for _, sp := range tr.Slice() {
		switch sp.Kind {
		case trace.KindFusedLeaf:
			fusedSpans++
			if sp.Backend != name {
				t.Errorf("fused span backend %q, want %q", sp.Backend, name)
			}
		case trace.KindLeaf:
			t.Errorf("unexpected explicit leaf span %+v in a fused run", sp)
		}
	}
	if fusedSpans != 7 {
		t.Errorf("fused spans = %d, want 7", fusedSpans)
	}
}
