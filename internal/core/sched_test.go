package core

import (
	"fmt"
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
