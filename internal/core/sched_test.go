package core

import (
	"fmt"
	"sync"
	"testing"

	"fastmm/internal/addchain"
	"fastmm/internal/algo"
	"fastmm/internal/catalog"
	"fastmm/internal/gemm"
	"fastmm/internal/mat"
	"fastmm/internal/op"
	"fastmm/internal/trace"
)

// TestCallRunsResolvedScheduler: a BFS or HYBRID call runs, and traces, the
// scheduler RunsAs resolves. Over strassen and fast424 × explicit/fused ×
// BFS/HYBRID × steps {0, 1, 2} at two workers, on 512³ and on a shape that
// peels, the traced sched span names RunsAs's answer; tasks are spawned
// exactly when that answer is BFS or HYBRID and the top level is explicit,
// and leaves are deferred exactly when it is HYBRID. RunsAs allocates
// nothing.
func TestCallRunsResolvedScheduler(t *testing.T) {
	be := fusedCapableBackend(t)
	const workers = 2
	shapes := [][3]int{{512, 512, 512}, {515, 513, 517}}
	if raceEnabled {
		shapes = [][3]int{{256, 256, 256}, {259, 257, 261}}
	}
	for _, name := range []string{"strassen", "fast424"} {
		for _, fused := range []bool{false, true} {
			for _, par := range []Parallel{BFS, Hybrid} {
				for steps := 0; steps <= 2; steps++ {
					for _, s := range shapes {
						var stats Stats
						e := mustExec(t, name, Options{Resources: Resources{Workers: workers}, Steps: steps,
							Parallel: par, Fused: fused, Backend: be, Stats: &stats})
						var tr trace.Spans
						C, A, B := randomProblem(s[0], s[1], s[2], 3)
						if err := e.Do(op.Request{Op: op.Multiply, C: C, A: A, B: B, Trace: &tr}); err != nil {
							t.Fatal(err)
						}
						cfg := fmt.Sprintf("%s fused=%v %v s%d %v", name, fused, par, steps, s)
						want := e.RunsAs(par, s[0], s[1], s[2])
						spans := tr.Slice()
						if len(spans) == 0 || spans[0].Kind != trace.KindSched || spans[0].Sched != want.String() {
							t.Errorf("%s: spans %+v, want the sched span of %v first", cfg, spans, want)
						}
						w := e.Walk(s[0], s[1], s[2])
						explicitTop := w.Next() && !w.Fused
						st := stats.Snapshot()
						if fans := (want == BFS || want == Hybrid) && explicitTop; (st.TasksSpawned > 0) != fans {
							t.Errorf("%s: runs as %v (explicit top level %v) and spawned %d tasks", cfg, want, explicitTop, st.TasksSpawned)
						}
						if (st.DeferredLeaves > 0) != (want == Hybrid) {
							t.Errorf("%s: runs as %v and deferred %d leaves", cfg, want, st.DeferredLeaves)
						}
						if allocs := testing.AllocsPerRun(2, func() { e.RunsAs(par, s[0], s[1], s[2]) }); allocs != 0 && !raceEnabled {
							t.Errorf("%s: RunsAs allocates %v times per call", cfg, allocs)
						}
					}
				}
			}
		}
	}
}

// TestNewRefusesUnknownEnums: an executor is never built with a scheduler
// or an addition strategy outside the enum. An unknown scheduler would run
// no leaf at all (leafMultiply has no arm for it) and return a wrong C.
func TestNewRefusesUnknownEnums(t *testing.T) {
	a := catalog.Strassen()
	builders := map[string]func(Options) (*Executor, error){
		"New":         func(o Options) (*Executor, error) { return New(a, o) },
		"NewTrusted":  func(o Options) (*Executor, error) { return NewTrusted(a, o) },
		"NewSchedule": func(o Options) (*Executor, error) { return NewSchedule([]*algo.Algorithm{a}, o) },
	}
	for name, build := range builders {
		for _, o := range []Options{
			{Steps: 1, Parallel: Parallel(7)},
			{Steps: 1, Parallel: Parallel(-1)},
			{Steps: 1, Strategy: addchain.Strategy(3)},
			{Steps: 1, Strategy: addchain.Strategy(-1)},
		} {
			if e, err := build(o); err == nil {
				const n = 256
				C, A, B := randomProblem(n, n, n, 1)
				want := mat.New(n, n)
				gemm.Naive(want, A, B)
				e.Multiply(C, A, B)
				t.Errorf("%s built an executor for %v/%v; its multiply is off by %g", name, o.Parallel, o.Strategy, mat.MaxAbsDiff(C, want))
			}
		}
	}
}

// TestLevellessCallRunsAsDFS: a BFS or HYBRID call whose walk takes no
// level is one leaf gemm, and it runs as DFS, all workers wide: strassen s0
// under BFS on 257×255×259 (automatic cutoff takes no step below 2·MinDim)
// and strassen s1 under HYBRID on 1×4×4 (below one base block) each trace
// sched=dfs and run one leaf, with no task spawned and no leaf deferred.
func TestLevellessCallRunsAsDFS(t *testing.T) {
	const workers = 2
	for _, tc := range []struct {
		par   Parallel
		steps int
		shape [3]int
	}{
		{BFS, 0, [3]int{257, 255, 259}},
		{Hybrid, 1, [3]int{1, 4, 4}},
		{BFS, 1, [3]int{1, 4, 4}},
		{Hybrid, 0, [3]int{257, 255, 259}},
	} {
		var stats Stats
		e := mustExec(t, "strassen", Options{Resources: Resources{Workers: workers}, Steps: tc.steps,
			Parallel: tc.par, Stats: &stats})
		s := tc.shape
		cfg := fmt.Sprintf("%v s%d %v", tc.par, tc.steps, s)
		if got := e.RunsAs(tc.par, s[0], s[1], s[2]); got != DFS {
			t.Errorf("%s: RunsAs = %v, want dfs", cfg, got)
		}
		var tr trace.Spans
		C, A, B := randomProblem(s[0], s[1], s[2], 5)
		if err := e.Do(op.Request{Op: op.Multiply, C: C, A: A, B: B, Trace: &tr}); err != nil {
			t.Fatal(err)
		}
		spans := tr.Slice()
		if len(spans) == 0 || spans[0].Kind != trace.KindSched || spans[0].Sched != DFS.String() || spans[0].Workers != workers {
			t.Errorf("%s: spans %+v, want a sched=dfs span %d workers wide first", cfg, spans, workers)
		}
		if st := stats.Snapshot(); st != (Stats{LeafCalls: 1}) {
			t.Errorf("%s: stats %+v, want one leaf and nothing else", cfg, st)
		}
		want := mat.New(s[0], s[2])
		gemm.Naive(want, A, B)
		if diff := mat.MaxAbsDiff(C, want); diff > 1e-9*float64(s[1]) {
			t.Errorf("%s: off by %g", cfg, diff)
		}
	}
}

// TestTrustedExecutorsShareLevelPlans: NewTrusted executors of one catalog
// entry share one lowering per CSE setting — the same product list — while
// New builds its own, and an executor built on the shared lowering computes
// what New's does, bit for bit.
func TestTrustedExecutorsShareLevelPlans(t *testing.T) {
	a := catalog.MustGet("fast424")
	trusted := func(o Options) *Executor {
		t.Helper()
		e, err := NewTrusted(a, o)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	x := trusted(Options{Steps: 1})
	y := trusted(Options{Steps: 2, Parallel: DFS, Resources: Resources{Workers: 2}})
	if x.schedule[0] != y.schedule[0] || &x.schedule[0].prods[0] != &y.schedule[0].prods[0] {
		t.Fatal("two NewTrusted executors of one entry lowered it twice")
	}
	if z := trusted(Options{Steps: 1, CSE: true}); z.schedule[0] == x.schedule[0] {
		t.Fatal("a CSE executor shares the lowering without CSE")
	}
	fresh, err := New(a, Options{Steps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.schedule[0] == x.schedule[0] || &fresh.schedule[0].prods[0] == &x.schedule[0].prods[0] {
		t.Fatal("New shares NewTrusted's lowering")
	}
	C1, A, B := randomProblem(256, 128, 256, 7)
	C2 := mat.New(256, 256)
	if err := x.Multiply(C1, A, B); err != nil {
		t.Fatal(err)
	}
	if err := fresh.Multiply(C2, A, B); err != nil {
		t.Fatal(err)
	}
	if diff := mat.MaxAbsDiff(C1, C2); diff != 0 {
		t.Fatalf("the shared lowering's product differs from New's by %g", diff)
	}
}

// TestConcurrentTrustedBuildsShareOneLowering: executors of a fresh
// algorithm built at once from many goroutines all end up on one lowering,
// and each multiplies correctly while the others are built. Under -race it
// checks that the memo publishes the lowering safely.
func TestConcurrentTrustedBuildsShareOneLowering(t *testing.T) {
	a := *catalog.Strassen() // a pointer the memo has not seen
	const builders = 8
	execs := make([]*Executor, builders)
	errs := make([]error, builders)
	var wg sync.WaitGroup
	for i := range execs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, err := NewTrusted(&a, Options{Steps: 1 + i%2})
			if err == nil {
				C, A, B := randomProblem(64, 64, 64, int64(i))
				want := mat.New(64, 64)
				gemm.Naive(want, A, B)
				if err = e.Multiply(C, A, B); err == nil && mat.MaxAbsDiff(C, want) > 1e-9*64 {
					err = fmt.Errorf("builder %d: off by %g", i, mat.MaxAbsDiff(C, want))
				}
			}
			execs[i], errs[i] = e, err
		}(i)
	}
	wg.Wait()
	for i, e := range execs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if e.schedule[0] != execs[0].schedule[0] {
			t.Fatalf("builder %d got a lowering of its own", i)
		}
	}
}
