package tuner

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"fastmm/internal/catalog"
	"fastmm/internal/core"
	"fastmm/internal/gemm"
	"fastmm/internal/mat"
	"fastmm/internal/op"
)

// TestRankEnumeratesFused: on a fuse-capable backend every explicit fast plan
// has a fused twin in the candidate list, and the twin's model workspace is
// never larger (the fused level drops its S/T/M temporaries).
func TestRankEnumeratesFused(t *testing.T) {
	tn := mustTuner(t, modelOnlyOpts(1))
	ranked, err := tn.RankOp(op.Multiply, 512, 512, 512)
	if err != nil {
		t.Fatal(err)
	}
	type variant struct {
		alg, backend, par, strat string
		steps                    int
	}
	explicit := map[variant]Plan{}
	fused := map[variant]Plan{}
	for _, p := range ranked {
		if p.IsClassical() {
			if p.Fused {
				t.Fatalf("classical plan marked fused: %+v", p)
			}
			continue
		}
		v := variant{p.Algorithm, p.Backend, p.Parallel, p.Strategy, p.Steps}
		if p.Fused {
			be, err := gemm.Get(p.Backend)
			if err != nil {
				t.Fatal(err)
			}
			if !gemm.CanFuse(be) {
				t.Fatalf("fused plan on a backend that cannot fuse: %+v", p)
			}
			fused[v] = p
		} else {
			explicit[v] = p
		}
	}
	if len(fused) == 0 {
		t.Fatal("no fused candidates enumerated (default backend should fuse)")
	}
	for v, ep := range explicit {
		be, err := gemm.Get(v.backend)
		if err != nil {
			t.Fatal(err)
		}
		if !gemm.CanFuse(be) {
			continue
		}
		if v.steps == 1 {
			// One-step fused plans are emitted under the first strategy
			// only (TestRankOpEmitsEachExecutorOnce).
			v.strat = strategies[0].String()
		}
		fp, ok := fused[v]
		if !ok {
			t.Errorf("explicit plan %s has no fused twin", ep)
			continue
		}
		if fp.WorkspaceBytes > ep.WorkspaceBytes {
			t.Errorf("%s: fused workspace %d exceeds explicit %d", fp, fp.WorkspaceBytes, ep.WorkspaceBytes)
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
		Backend:   gemm.Default().Name(),
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
// depends on. The strategy shapes only explicit levels, so a one-step fused
// plan (whose one level is the fused one) builds the same executor under
// every strategy. HYBRID runs as BFS wherever W divides the leaf count
// R^steps, and on a fused last level, since then no leaf is deferred. A
// fused one-step multiply runs as DFS under BFS
// (TestFusedOneStepSchedulersAgree in core).
func executorKey(p Plan) Plan {
	p.PredictedSeconds, p.MeasuredSeconds, p.WorkspaceBytes = 0, 0, 0
	if p.Fused && p.Steps == 1 {
		p.Strategy = ""
	}
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

// TestRankOpDropsFusedSchedulerTwins: at W = 2 a general multiply ranks no
// fused HYBRID plan and no fused one-step BFS plan — each runs as a twin
// ranked beside it.
func TestRankOpDropsFusedSchedulerTwins(t *testing.T) {
	tn := mustTuner(t, modelOnlyOpts(2))
	for _, s := range [][3]int{{1024, 1024, 1024}, {2560, 320, 2560}, {2500, 625, 625}} {
		ranked, err := tn.RankOp(op.Multiply, s[0], s[1], s[2])
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range ranked {
			if p.Fused && (p.Parallel == core.Hybrid.String() || p.Parallel == core.BFS.String() && p.Steps == 1) {
				t.Errorf("multiply %v ranks %s, which runs as its twin", s, p)
			}
		}
	}
}

// TestRankOpEmitsEachExecutorOnce: no two ranked candidates build the same
// executor, so no probe is spent timing a plan twice.
func TestRankOpEmitsEachExecutorOnce(t *testing.T) {
	for _, w := range []int{1, 2} {
		tn := mustTuner(t, modelOnlyOpts(w))
		for _, s := range [][3]int{{512, 512, 512}, {1024, 1024, 1024}, {2560, 320, 2560}} {
			ranked, err := tn.RankOp(op.Multiply, s[0], s[1], s[2])
			if err != nil {
				t.Fatal(err)
			}
			seen := map[Plan]Plan{}
			for _, p := range ranked {
				k := executorKey(p)
				if q, dup := seen[k]; dup {
					t.Errorf("%v at %dw: %s and %s build the same executor", s, w, q, p)
				}
				seen[k] = p
			}
		}
	}

	// The rule executorKey encodes: a one-step fused plan multiplies bit for
	// bit alike under every strategy.
	tn := mustTuner(t, modelOnlyOpts(1))
	rng := rand.New(rand.NewSource(3))
	n := 256
	A, B := mat.New(n, n), mat.New(n, n)
	A.FillRandom(rng)
	B.FillRandom(rng)
	var first *mat.Dense
	for _, strat := range strategies {
		d, err := tn.build(op.Multiply, Plan{Algorithm: "strassen", Backend: gemm.Default().Name(),
			Steps: 1, Parallel: "sequential", Strategy: strat.String(), Fused: true, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		C := mat.New(n, n)
		if err := d.run(op.Request{Op: op.Multiply, C: C, A: A, B: B}); err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = C
		} else if diff := mat.MaxAbsDiff(C, first); diff != 0 {
			t.Errorf("one-step fused %s differs from %s by %g", strat, strategies[0], diff)
		}
	}
}
