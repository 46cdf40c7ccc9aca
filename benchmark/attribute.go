package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"fastmm/internal/addchain"
	"fastmm/internal/catalog"
	"fastmm/internal/core"
	"fastmm/internal/costmodel"
	"fastmm/internal/gemm"
	"fastmm/internal/op"
	"fastmm/internal/trace"
	"fastmm/internal/tuner"
)

// This file attributes one (op, shape) to the layers: the program's own
// path, the classical baseline, the picked plan rebuilt with counters, the
// replay of the plan's calls into gemm and mat (walk.go), and the fixed panel.

// execOp runs a request straight on an executor, as the tuner's decision
// does for an overwriting request.
func execOp(e *core.Executor, r op.Request) error {
	r = r.Normalized()
	switch r.Op {
	case op.ATA:
		return e.MultiplyATA(r.C, r.A)
	case op.Syrk:
		return e.MultiplySyrk(r.C, r.A)
	case op.MultiplyAdd:
		return e.MultiplyAdd(r.C, r.A, r.B, r.Alpha)
	default:
		return e.Multiply(r.C, r.A, r.B)
	}
}

func parseParallel(s string) core.Parallel {
	for _, p := range []core.Parallel{core.Sequential, core.DFS, core.BFS, core.Hybrid} {
		if p.String() == s {
			return p
		}
	}
	return core.Sequential
}

func parseStrategy(s string) addchain.Strategy {
	for _, st := range []addchain.Strategy{addchain.Pairwise, addchain.WriteOnce, addchain.Streaming} {
		if st.String() == s {
			return st
		}
	}
	return addchain.WriteOnce
}

// planOptions turns a tuned plan back into executor options, as the tuner's
// own build step does.
func planOptions(p tuner.Plan, stats *core.Stats) core.Options {
	return core.Options{
		Resources: core.Resources{Workers: p.Workers},
		Steps:     p.Steps,
		Strategy:  parseStrategy(p.Strategy),
		CSE:       p.CSE,
		Fused:     p.Fused,
		Parallel:  parseParallel(p.Parallel),
		Backend:   p.Backend,
		Stats:     stats,
	}
}

// unit measures one (op, shape) at one plan, layer by layer.
type unit struct {
	b       *bench
	in      *instance
	plan    tuner.Plan
	w       int // the workload's width
	root    int // the unit's span
	request int
	reps    int // timed calls per measurement
	few     int // for the costlier replays and the panel
	err     error
}

// keep remembers the first error of the unit's calls.
func (u *unit) keep(err error) {
	if err != nil && u.err == nil {
		u.err = err
	}
}

// timed records count calls of f as one span and returns their median.
func (u *unit) timed(layer, name string, count int, f func()) time.Duration {
	var d time.Duration
	u.b.rec.call(u.root, u.request, layer, name, func() { d = medianDuration(timeCalls(count, f)) })
	return d
}

// attribute measures one (op, shape) at one plan and folds the result into
// sums. do is the program's own entry point for the request (Auto, or the
// Batcher's synchronous path); its median time in seconds is returned.
func (b *bench) attribute(in *instance, plan tuner.Plan, w int, do func(op.Request) error, sums *layerSums, request int) (float64, error) {
	u := &unit{b: b, in: in, plan: plan, w: w, request: request, reps: layerReps, few: fewReps}
	if b.cfg.Tiny {
		u.reps, u.few = 1, 1
	}
	u.root = b.rec.begin(0, request, "workload", "attribute "+in.String())
	defer b.rec.end(u.root)
	m, k, n := in.shape()

	// The program's own path, untraced and traced.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	auto := u.timed("tuner", "Do", u.reps, func() {
		b.attempted++
		if err := do(in.request(in.C)); err != nil {
			b.failed++
		}
	})
	runtime.ReadMemStats(&after)
	sums.mallocs += after.Mallocs - before.Mallocs
	sums.autoCalls += u.reps
	var spans trace.Spans
	traced := u.timed("tuner", "Do traced", u.reps, func() {
		spans = trace.Spans{}
		req := in.request(in.C)
		req.Trace = &spans
		u.keep(do(req))
	})
	sums.spansDropped += spans.Dropped()

	// The classical baseline at the workload's width and, for scaling, at 1.
	cls := u.timed("gemm", "classical", u.reps, func() { classical(gemm.Default(), in.request(in.Cb), w) })
	cls1 := cls
	if w > 1 {
		cls1 = u.timed("gemm", "classical 1w", u.few, func() { classical(gemm.Default(), in.request(in.Cb), 1) })
	}

	p, err := u.measurePlan(cls1)
	if err != nil {
		return 0, err
	}
	bestPanel, err := u.bestOfPanel()
	if err != nil {
		return 0, err
	}
	if u.err != nil {
		return 0, fmt.Errorf("%s: %w", in, u.err)
	}

	sums.units++
	sums.flops += eq3(m, k, n)
	sums.auto += auto.Seconds()
	sums.traced += traced.Seconds()
	sums.classical += cls.Seconds()
	sums.classical1 += cls1.Seconds()
	sums.classicalW += cls.Seconds()
	sums.build += p.build.Seconds()
	sums.exec += p.exec.Seconds()
	sums.leaf += p.leaf.Seconds()
	sums.add += p.add.Seconds()
	sums.planT1 += p.execAt1.Seconds()
	sums.planTW += p.exec.Seconds()
	sums.leafFlops += p.leafFlops
	sums.leafCalls += p.leafCalls
	sums.addBytes += p.addBytes
	sums.stats.LeafCalls += p.counted.LeafCalls
	sums.stats.FusedCalls += p.counted.FusedCalls
	sums.stats.DeferredLeaves += p.counted.DeferredLeaves
	sums.stats.FixupCalls += p.counted.FixupCalls
	sums.stats.TasksSpawned += p.counted.TasksSpawned
	sums.predictedBytes = max(sums.predictedBytes, plan.WorkspaceBytes)
	sums.retainedBytes = max(sums.retainedBytes, p.retained)
	sums.fastVsClassical = append(sums.fastVsClassical, cls.Seconds()/bestPanel.Seconds())
	sums.regret = append(sums.regret, auto.Seconds()/min(bestPanel, cls).Seconds())
	if plan.PredictedSeconds > 0 {
		sums.predOv = append(sums.predOv, plan.PredictedSeconds/p.exec.Seconds())
	}
	if auto.Seconds() > 1.03*cls.Seconds() {
		sums.worse++
	}
	b.detailList("attribution", map[string]any{
		"case": in.String(), "plan": plan.String(),
		"auto_s": auto.Seconds(), "classical_s": cls.Seconds(), "exec_s": p.exec.Seconds(),
		"leaf_s": p.leaf.Seconds(), "add_s": p.add.Seconds(), "best_panel_s": bestPanel.Seconds(),
		"leaf_calls_walked":  p.leafCalls,
		"leaf_calls_counted": p.counted.LeafCalls + p.counted.FusedCalls + p.counted.FixupCalls,
	})
	return auto.Seconds(), nil
}

// planTimes is what measurePlan learns about the picked plan.
type planTimes struct {
	build, exec, leaf, add time.Duration
	execAt1                time.Duration // the plan at one worker
	leafFlops, addBytes    float64
	leafCalls              int
	counted                core.Stats
	retained               int64
}

// measurePlan rebuilds the picked plan with counters, times it — core's own
// time — and replays the calls it makes into gemm and mat on their own.
// classicalAt1 is the classical baseline's time at one worker.
func (u *unit) measurePlan(classicalAt1 time.Duration) (planTimes, error) {
	in, plan := u.in, u.plan
	m, k, n := in.shape()
	be, err := gemm.Resolve(plan.Backend)
	if err != nil {
		return planTimes{}, err
	}
	var p planTimes
	var stats core.Stats
	var exec *core.Executor
	run := func(r op.Request) { classical(be, r, plan.Workers) }
	start := time.Now()
	if !plan.IsClassical() {
		alg, err := catalog.GetVerified(plan.Algorithm)
		if err != nil {
			return p, err
		}
		if exec, err = core.NewTrusted(alg, planOptions(plan, &stats)); err != nil {
			return p, err
		}
		run = func(r op.Request) { u.keep(execOp(exec, r)) }
	}
	p.build = time.Since(start)
	run(in.request(in.C)) // first call: grows the arenas, fills the counters
	p.counted = stats.Snapshot()
	p.exec = u.timed("core", "Executor "+plan.String(), u.reps, func() { run(in.request(in.C)) })

	// A classical pick makes one leaf call and no additions; its empty
	// addition replay is still timed, so mat.add_s is a measurement.
	p.leaf, p.leafFlops, p.leafCalls = p.exec, eq3(m, k, n), 1
	replayAdds := func() {}
	if exec != nil {
		wk := newWalker(exec.Algorithm(), planOptions(plan, nil), be)
		wk.walkOp(in.Op, m, k, n)
		pool := make([]*scratch, max(plan.Workers, 1))
		for i := range pool {
			pool[i] = wk.newScratch()
		}
		wk.replay(true, pool) // untimed: first touch of the scratch pages
		p.leaf = u.timed("gemm", "leaf replay", u.few, func() { wk.replay(true, pool) })
		replayAdds = func() { wk.replay(false, pool) }
		replayAdds()
		p.leafFlops, p.leafCalls = wk.leafFlops()
		p.addBytes = addBytes(plan, exec, in.Op, m, k, n)
		p.retained = exec.WorkspaceRetained()
	}
	p.add = u.timed("mat", "addition replay", u.few, replayAdds)

	// The plan's own scaling: its time at one worker over w times its time.
	// A one-wide plan in a w-wide workload leaves the other workers idle and
	// reads 1/w.
	p.execAt1 = p.exec
	switch {
	case plan.Workers <= 1:
	case exec == nil:
		p.execAt1 = classicalAt1
	default:
		seq := planOptions(plan, nil)
		seq.Parallel, seq.Workers = core.Sequential, 1
		e1, err := core.NewTrusted(exec.Algorithm(), seq)
		if err != nil {
			return p, err
		}
		u.keep(execOp(e1, in.request(in.C)))
		p.execAt1 = u.timed("core", "Executor at 1 worker", u.few, func() { u.keep(execOp(e1, in.request(in.C))) })
	}
	return p, nil
}

// bestOfPanel times the fixed panel at the workload's width and returns the
// fastest member's best time.
func (u *unit) bestOfPanel() (time.Duration, error) {
	best := time.Duration(math.MaxInt64)
	for _, pp := range panel {
		alg, err := catalog.GetVerified(pp.Algorithm)
		if err != nil {
			return 0, err
		}
		o := core.Options{Resources: core.Resources{Workers: u.w}, Steps: pp.Steps}
		if u.w > 1 {
			o.Parallel = core.Hybrid
		}
		e, err := core.NewTrusted(alg, o)
		if err != nil {
			return 0, err
		}
		run := func() { u.keep(execOp(e, u.in.request(u.in.C))) }
		u.b.rec.call(u.root, u.request, "core", fmt.Sprintf("panel %s s%d", pp.Algorithm, pp.Steps), func() {
			run()
			best = min(best, slices.Min(timeCalls(u.few, run)))
		})
	}
	return best, nil
}

// addBytes is the computed (not measured) traffic of a plan's additions:
// eight bytes per scalar the cost model says they read or write.
func addBytes(plan tuner.Plan, exec *core.Executor, o op.Op, m, k, n int) float64 {
	if o.Symmetric() {
		// Only the largest off-diagonal multiply is priced; the cost model
		// has no entry point for the whole symmetric walk.
		h := m / 2
		m, n = m-h, h
	}
	base := exec.Algorithm().Base
	dm, dk, dn := 1, 1, 1
	for s := 0; s < plan.Steps; s++ {
		dm, dk, dn = dm*base.M, dk*base.K, dn*base.N
	}
	model := costmodel.NewTrustedFused(exec.Algorithm(), parseStrategy(plan.Strategy), plan.CSE, exec.Fused())
	cost, err := model.Evaluate(m-m%dm, k-k%dk, n-n%dn, plan.Steps)
	if err != nil {
		return 0
	}
	return 8 * (cost.Reads + cost.Writes)
}
