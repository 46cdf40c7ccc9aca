package tuner

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"fastmm/internal/addchain"
	"fastmm/internal/catalog"
	"fastmm/internal/core"
	"fastmm/internal/gemm"
	"fastmm/internal/mat"
	"fastmm/internal/op"
	"fastmm/internal/trace"
)

// TestRankFusedFollowsBackend: fusion is a property of the leaf backend,
// not a candidate dimension. Over the benchmark's multiply shapes at one and
// two workers every fast plan is fused exactly when the default backend can
// fuse, so the blas bridge ranks explicit plans alone. On a fusing backend no
// plan is HYBRID (a fused last level defers no leaf, so it runs as BFS) and
// none is a one-step BFS (it runs as DFS).
func TestRankFusedFollowsBackend(t *testing.T) {
	fuses := gemm.CanFuse(gemm.Default())
	for _, w := range []int{1, 2} {
		tn := mustTuner(t, modelOnlyOpts(w))
		for _, s := range [][3]int{{1024, 1024, 1024}, {1280, 1280, 1280}, {2560, 320, 2560}, {2500, 625, 625}} {
			ranked, err := tn.RankOp(op.Multiply, s[0], s[1], s[2])
			if err != nil {
				t.Fatal(err)
			}
			fast := 0
			for _, p := range ranked {
				if p.IsClassical() {
					if p.Fused {
						t.Errorf("%v at %dw: classical plan marked fused: %s", s, w, p)
					}
					continue
				}
				fast++
				if p.Fused != fuses {
					t.Errorf("%v at %dw ranks %s; want fused %t on backend %s", s, w, p, fuses, gemm.Default().Name())
				}
				if fuses && (p.Parallel == core.Hybrid.String() || p.Parallel == core.BFS.String() && p.Steps == 1) {
					t.Errorf("%v at %dw ranks %s, which runs under another scheduler", s, w, p)
				}
			}
			if fast == 0 {
				t.Errorf("%v at %dw: no fast candidates", s, w)
			}
		}
	}
}

// TestFusedPlanBuildsAndPersists: a fused plan round-trips through the JSON
// cache encoding, renders its marker in String(), builds an executor with the
// fused engine engaged, and multiplies correctly.
func TestFusedPlanBuildsAndPersists(t *testing.T) {
	tn := mustTuner(t, modelOnlyOpts(1))
	p := Plan{
		Algorithm: "strassen",
		Backend:   "simd", // the backend that fuses, whatever the default
		Steps:     1,
		Parallel:  "dfs",
		Strategy:  "write-once",
		Fused:     true,
		Workers:   1,
	}
	if !strings.Contains(p.String(), "fused") {
		t.Errorf("Plan.String() %q does not mark the fused dimension", p.String())
	}
	blob, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var back Plan
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if !back.Fused {
		t.Fatal("Fused flag lost in JSON round trip")
	}
	d, err := tn.build(op.Multiply, back)
	if err != nil {
		t.Fatal(err)
	}
	if d.exec == nil || !d.exec.Fused() {
		t.Fatal("built executor did not engage the fused engine")
	}
	rng := rand.New(rand.NewSource(11))
	n := 200
	A, B := mat.New(n, n), mat.New(n, n)
	A.FillRandom(rng)
	B.FillRandom(rng)
	got, want := mat.New(n, n), mat.New(n, n)
	if err := d.run(op.Request{Op: op.Multiply, C: got, A: A, B: B}); err != nil {
		t.Fatal(err)
	}
	gemm.Mul(want, A, B)
	if diff := mat.MaxAbsDiff(got, want); diff > 1e-10*float64(n+1) {
		t.Fatalf("fused plan multiply max diff %g", diff)
	}
}

// executorKey identifies what a plan builds: every plan field the executor
// depends on. HYBRID runs as BFS wherever W divides the leaf count R^steps,
// and on a fused last level, since then no leaf is deferred. A fused
// one-step multiply runs as DFS under BFS (TestFusedOneStepSchedulersAgree
// in core).
func executorKey(p Plan) Plan {
	p.PredictedSeconds, p.MeasuredSeconds, p.WorkspaceBytes = 0, 0, 0
	if p.Parallel == core.Hybrid.String() {
		if leaves := ipow(catalog.MustGet(p.Algorithm).Rank(), p.Steps); p.Fused || leaves%p.Workers == 0 {
			p.Parallel = core.BFS.String()
		}
	}
	if p.Parallel == core.BFS.String() && p.Fused && p.Steps == 1 {
		p.Parallel = core.DFS.String()
	}
	return p
}

// TestRankOpDropsFusedSchedulerTwins: at W = 2 every ranked fast plan runs
// as its own scheduler (its executor's RunsAs), so a general multiply ranks
// no fused HYBRID plan and no fused one-step BFS plan — each would run as a
// twin ranked beside it.
func TestRankOpDropsFusedSchedulerTwins(t *testing.T) {
	tn := mustTuner(t, modelOnlyOpts(2))
	for _, s := range [][3]int{{1024, 1024, 1024}, {2560, 320, 2560}, {2500, 625, 625}} {
		ranked, err := tn.rank(op.Multiply, s[0], s[1], s[2], 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range ranked {
			p := d.plan
			if p.Fused && (p.Parallel == core.Hybrid.String() || p.Parallel == core.BFS.String() && p.Steps == 1) {
				t.Errorf("multiply %v ranks %s, which runs as its twin", s, p)
			}
			if d.exec == nil {
				continue
			}
			if par := d.exec.Opts().Parallel; d.exec.RunsAs(par, s[0], s[1], s[2]) != par {
				t.Errorf("multiply %v ranks %s, which runs as %v", s, p, d.exec.RunsAs(par, s[0], s[1], s[2]))
			}
		}
	}
}

// TestRankOpEmitsEachExecutorOnce: over the benchmark's multiply shapes
// every ranked fast candidate is write-once without CSE — the one addition
// strategy the tuner runs — and no two candidates build the same executor,
// so no probe is spent timing a plan twice.
func TestRankOpEmitsEachExecutorOnce(t *testing.T) {
	for _, w := range []int{1, 2} {
		tn := mustTuner(t, modelOnlyOpts(w))
		for _, s := range [][3]int{{512, 512, 512}, {1024, 1024, 1024}, {1280, 1280, 1280}, {2560, 320, 2560}, {2500, 625, 625}} {
			ranked, err := tn.RankOp(op.Multiply, s[0], s[1], s[2])
			if err != nil {
				t.Fatal(err)
			}
			seen := map[Plan]Plan{}
			for _, p := range ranked {
				if !p.IsClassical() && (p.Strategy != addchain.WriteOnce.String() || p.CSE) {
					t.Errorf("%v at %dw ranks %s (cse %t), not a write-once plan", s, w, p, p.CSE)
				}
				k := executorKey(p)
				if q, dup := seen[k]; dup {
					t.Errorf("%v at %dw: %s and %s build the same executor", s, w, q, p)
				}
				seen[k] = p
			}
		}
	}
}

// TestFusedDecisionTracesEveryOp: a fused fast decision serving a traced
// request records its scheduler, step and fused-leaf spans whatever its α
// and β — an overwrite, an accumulate, and a β = 0.5 multiply — and
// computes α·A·B + β·C.
func TestFusedDecisionTracesEveryOp(t *testing.T) {
	tn := mustTuner(t, modelOnlyOpts(1))
	d, err := tn.build(op.Multiply, Plan{Algorithm: "strassen", Backend: "simd", Steps: 1,
		Parallel: "dfs", Strategy: "write-once", Fused: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	const n = 256
	rng := rand.New(rand.NewSource(12))
	A, B, C0 := mat.New(n, n), mat.New(n, n), mat.New(n, n)
	A.FillRandom(rng)
	B.FillRandom(rng)
	C0.FillRandom(rng)
	prod := mat.New(n, n)
	gemm.Mul(prod, A, B)
	for _, req := range []op.Request{
		{Op: op.Multiply, Alpha: -2},
		{Op: op.MultiplyAdd, Alpha: -2},
		{Op: op.Multiply, Beta: 0.5},
	} {
		var tr trace.Spans
		req.C, req.A, req.B, req.Trace = C0.Clone(), A, B, &tr
		if err := d.run(req); err != nil {
			t.Fatal(err)
		}
		r := req.Normalized()
		kinds := map[string]int{}
		for _, sp := range tr.Slice() {
			kinds[sp.Kind]++
		}
		want := map[string]int{trace.KindSched: 1, trace.KindStep: 1, trace.KindFusedLeaf: 7}
		if fmt.Sprint(kinds) != fmt.Sprint(want) {
			t.Errorf("%s α=%g β=%g: spans by kind %v, want %v", r.Op, r.Alpha, r.Beta, kinds, want)
		}
		ref := mat.New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				ref.Set(i, j, r.Alpha*prod.At(i, j)+r.Beta*C0.At(i, j))
			}
		}
		if diff := mat.MaxAbsDiff(req.C, ref); diff > 1e-10*float64(n+1) {
			t.Errorf("%s α=%g β=%g: off by %g", r.Op, r.Alpha, r.Beta, diff)
		}
	}
}
