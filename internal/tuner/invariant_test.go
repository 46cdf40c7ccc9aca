package tuner

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"fastmm/internal/core"
	"fastmm/internal/gemm"
	"fastmm/internal/mat"
	"fastmm/internal/op"
)

// scriptedTimer replaces a tuner's probe stopwatch: fast plans and classical
// plans each read their successive timings from a list (the last entry
// repeats), and every timed plan is recorded in call order with the limit it
// was handed. A scripted time at or past a positive limit is stopped there,
// as the production timer stops the run — unless toCompletion is set, which
// replays the script as if every probe ran to the end.
type scriptedTimer struct {
	fast, classical []float64
	fail            func(Plan) bool
	toCompletion    bool
	calls           []Plan
	limits          []time.Duration
	nFast, nClass   int
}

func (s *scriptedTimer) time(d *decision, _ op.Request, limit time.Duration) (float64, error) {
	s.calls = append(s.calls, d.plan)
	s.limits = append(s.limits, limit)
	if s.fail != nil && s.fail(d.plan) {
		return 0, errors.New("scripted failure")
	}
	next := func(list []float64, n *int) float64 {
		v := list[min(*n, len(list)-1)]
		*n++
		return v
	}
	if d.plan.IsClassical() {
		return next(s.classical, &s.nClass), nil
	}
	v := next(s.fast, &s.nFast)
	if limit > 0 && v >= limit.Seconds() && !s.toCompletion {
		return limit.Seconds(), core.ErrStopped
	}
	return v, nil
}

// classicalLast ranks a shape and moves every classical plan behind every
// fast one — the mis-ranking the invariant exists for: the model says
// classical is the worst choice, far outside any top-K.
func classicalLast(t *testing.T, tn *Tuner, n int) []Plan {
	t.Helper()
	ranked, err := tn.RankOp(op.Multiply, n, n, n)
	if err != nil {
		t.Fatal(err)
	}
	var fast, classical []Plan
	for _, p := range ranked {
		if p.IsClassical() {
			classical = append(classical, p)
		} else {
			fast = append(fast, p)
		}
	}
	if len(fast) <= DefaultProbeTopK || len(classical) == 0 {
		t.Fatalf("need more than top-K fast plans and a classical one, have %d and %d", len(fast), len(classical))
	}
	return append(fast, classical...)
}

// neverLoseScripts are the scripted probe timings of the do-no-harm
// invariant.
var neverLoseScripts = []struct {
	name            string
	fast, classical []float64
	wantFast        bool
	wantCalls       int // timings taken: the sweep, plus 2 for a confirming pair
}{
	{"fast wins both timings", []float64{0.5}, []float64{1}, true, DefaultProbeTopK + 1 + 2},
	{"fast inside the margin", []float64{0.98}, []float64{1}, false, DefaultProbeTopK + 1},
	{"fast slower than classical", []float64{1.3}, []float64{1}, false, DefaultProbeTopK + 1},
	{"fast wins the sweep, loses the confirming pair", []float64{0.5, 0.5, 0.5, 0.5, 1.2}, []float64{1}, false, DefaultProbeTopK + 1 + 2},
	{"fast wins the sweep, confirms inside the margin", []float64{0.5, 0.5, 0.5, 0.5, 0.99}, []float64{1}, false, DefaultProbeTopK + 1 + 2},
	{"classical slows on the confirming pair", []float64{0.5}, []float64{1, 3}, true, DefaultProbeTopK + 1 + 2},
}

// TestPickNeverLosesToClassical is the do-no-harm invariant on scripted
// timings: classical is probed wherever the model ranked it, and a fast plan
// is returned only when it beat classical's measured time by the margin
// twice; anything else is classical.
func TestPickNeverLosesToClassical(t *testing.T) {
	const n = 512
	for _, tc := range neverLoseScripts {
		t.Run(tc.name, func(t *testing.T) {
			tn := mustTuner(t, Options{Resources: Resources{Workers: 1}, Profile: testProfile(1), NoDiskCache: true})
			timer := &scriptedTimer{fast: tc.fast, classical: tc.classical}
			tn.timeRun = timer.time
			d, err := tn.pick(op.Multiply, classicalLast(t, tn, n), n, n, n)
			if err != nil {
				t.Fatal(err)
			}
			probedClassical := 0
			for _, p := range timer.calls[:DefaultProbeTopK+1] {
				if p.IsClassical() {
					probedClassical++
				}
			}
			if probedClassical != 1 {
				t.Fatalf("the sweep timed %d classical plans, want exactly the best-predicted one: %v", probedClassical, timer.calls)
			}
			if len(timer.calls) != tc.wantCalls {
				t.Fatalf("%d timings taken, want %d: %v", len(timer.calls), tc.wantCalls, timer.calls)
			}
			if got := !d.plan.IsClassical(); got != tc.wantFast {
				t.Fatalf("picked %v, want fast=%v", d.plan, tc.wantFast)
			}
			if d.plan.MeasuredSeconds <= 0 || d.plan.MeasuredSeconds > tc.classical[0] {
				t.Fatalf("picked plan measured %gs, classical measured %gs", d.plan.MeasuredSeconds, tc.classical[0])
			}
			if tc.wantFast && d.plan.MeasuredSeconds >= tc.classical[0]*(1-probeMargin) {
				t.Fatalf("fast plan at %gs is inside the margin of classical's %gs", d.plan.MeasuredSeconds, tc.classical[0])
			}
		})
	}
}

// TestPickKeepsBudgetAndFailureBehaviour: the classical reference changes
// neither of the probe's older contracts. An exhausted ProbeBudget times
// nothing and returns the model's top pick; a survivor whose probe fails is
// skipped, and when that survivor is the classical reference the fastest
// remaining plan wins as before.
func TestPickKeepsBudgetAndFailureBehaviour(t *testing.T) {
	const n = 512
	opts := Options{Resources: Resources{Workers: 1}, Profile: testProfile(1), NoDiskCache: true}

	starved := opts
	starved.ProbeBudget = time.Nanosecond
	tn := mustTuner(t, starved)
	timer := &scriptedTimer{fast: []float64{0.5}, classical: []float64{1}}
	tn.timeRun = timer.time
	ranked := classicalLast(t, tn, n)
	d, err := tn.pick(op.Multiply, ranked, n, n, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(timer.calls) != 0 || d.plan.MeasuredSeconds != 0 || d.plan.String() != ranked[0].String() {
		t.Fatalf("starved budget: %d timings, picked %v, want none and the model's top pick %v", len(timer.calls), d.plan, ranked[0])
	}

	tn = mustTuner(t, opts)
	ranked = classicalLast(t, tn, n)
	timer = &scriptedTimer{fast: []float64{0.9, 0.8, 0.7}, classical: []float64{0.1},
		fail: func(p Plan) bool { return p.IsClassical() || p.String() == ranked[0].String() }}
	tn.timeRun = timer.time
	d, err = tn.pick(op.Multiply, ranked, n, n, n)
	if err != nil {
		t.Fatal(err)
	}
	if d.plan.IsClassical() || d.plan.String() == ranked[0].String() {
		t.Fatalf("picked %v, whose probe failed", d.plan)
	}
	if d.plan.MeasuredSeconds != 0.7 {
		t.Fatalf("picked %v at %gs, want the fastest surviving probe (0.7s)", d.plan, d.plan.MeasuredSeconds)
	}
	if len(timer.calls) != DefaultProbeTopK+1 {
		t.Fatalf("%d timings with no classical reference, want the sweep alone (%d)", len(timer.calls), DefaultProbeTopK+1)
	}

	timer.fail = func(Plan) bool { return true }
	if _, err := tn.pick(op.Multiply, ranked, n, n, n); err == nil {
		t.Fatal("every survivor failing must surface the first error")
	}
}

// TestProbeStopsAtClassicalDeadline: classical is timed before any fast plan,
// every fast probe of the sweep is handed (1 − probeMargin)·T_c as its limit
// (the confirming pair none), and replaying the do-no-harm scripts with every
// probe run to completion picks exactly what the cut-off picks.
func TestProbeStopsAtClassicalDeadline(t *testing.T) {
	const n = 512
	opts := Options{Resources: Resources{Workers: 1}, Profile: testProfile(1), NoDiskCache: true}
	for _, tc := range neverLoseScripts {
		t.Run(tc.name, func(t *testing.T) {
			picks := map[bool]Plan{}
			for _, toCompletion := range []bool{true, false} {
				tn := mustTuner(t, opts)
				timer := &scriptedTimer{fast: tc.fast, classical: tc.classical, toCompletion: toCompletion}
				tn.timeRun = timer.time
				d, err := tn.pick(op.Multiply, classicalLast(t, tn, n), n, n, n)
				if err != nil {
					t.Fatal(err)
				}
				picks[toCompletion] = d.plan
				if len(timer.calls) != tc.wantCalls {
					t.Fatalf("toCompletion=%v: %d timings, want %d", toCompletion, len(timer.calls), tc.wantCalls)
				}
				if !timer.calls[0].IsClassical() || timer.limits[0] != 0 {
					t.Fatalf("first timing %v with limit %v, want classical with none", timer.calls[0], timer.limits[0])
				}
				want := time.Duration((1 - probeMargin) * tc.classical[0] * float64(time.Second))
				for i := 1; i <= DefaultProbeTopK; i++ {
					if timer.calls[i].IsClassical() || timer.limits[i] != want {
						t.Fatalf("sweep timing %d: %v with limit %v, want a fast plan with %v", i, timer.calls[i], timer.limits[i], want)
					}
				}
				for i := DefaultProbeTopK + 1; i < len(timer.calls); i++ {
					if timer.limits[i] != 0 {
						t.Fatalf("confirming timing of %v handed limit %v, want none", timer.calls[i], timer.limits[i])
					}
				}
			}
			if picks[true].String() != picks[false].String() || picks[true].MeasuredSeconds != picks[false].MeasuredSeconds {
				t.Fatalf("cut-off picked %v (%gs), run to completion %v (%gs)",
					picks[false], picks[false].MeasuredSeconds, picks[true], picks[true].MeasuredSeconds)
			}
		})
	}
}

// TestStoppedProbeNeverWins: a fast probe the timer stopped has lost, even
// when the time it reports would have beaten classical — it is neither
// picked nor confirmed.
func TestStoppedProbeNeverWins(t *testing.T) {
	const n = 512
	tn := mustTuner(t, Options{Resources: Resources{Workers: 1}, Profile: testProfile(1), NoDiskCache: true})
	var calls int
	tn.timeRun = func(d *decision, _ op.Request, limit time.Duration) (float64, error) {
		calls++
		if d.plan.IsClassical() {
			return 1, nil
		}
		if limit <= 0 {
			t.Fatalf("fast probe %v timed without a deadline", d.plan)
		}
		return 0.1, core.ErrStopped
	}
	d, err := tn.pick(op.Multiply, classicalLast(t, tn, n), n, n, n)
	if err != nil {
		t.Fatal(err)
	}
	if !d.plan.IsClassical() {
		t.Fatalf("picked %v, whose every fast probe was stopped", d.plan)
	}
	if calls != DefaultProbeTopK+1 {
		t.Fatalf("%d timings, want the sweep alone (%d)", calls, DefaultProbeTopK+1)
	}
}

// TestTimeDecisionStopsAtLimit: the production stopwatch arms the executor's
// stop flag from a timer. A fast plan whose limit passes mid-run reports
// core.ErrStopped; without a limit the same plan runs to completion, and the
// classical baseline is never stopped.
func TestTimeDecisionStopsAtLimit(t *testing.T) {
	const n = 384
	tn := mustTuner(t, Options{Resources: Resources{Workers: 1}, Profile: testProfile(1), NoDiskCache: true})
	fast, err := tn.build(op.Multiply, Plan{Algorithm: "strassen", Steps: 2, Parallel: "sequential", Strategy: "write-once", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	A, B := mat.New(n, n), mat.New(n, n)
	A.FillRandom(rng)
	B.FillRandom(rng)
	req := op.Request{Op: op.Multiply, C: mat.New(n, n), A: A, B: B}

	if secs, err := tn.timeDecision(fast, req, time.Nanosecond); !errors.Is(err, core.ErrStopped) || secs != time.Nanosecond.Seconds() {
		t.Fatalf("fast run against a 1ns limit: %gs, %v; want the limit and core.ErrStopped", secs, err)
	}
	if secs, err := tn.timeDecision(fast, req, 0); err != nil || secs <= 0 {
		t.Fatalf("fast run without a limit: %gs, %v", secs, err)
	}
	classical := tn.classicalPlan(op.Multiply, n, n, n, gemm.Default())
	d, err := tn.build(op.Multiply, classical)
	if err != nil {
		t.Fatal(err)
	}
	if secs, err := tn.timeDecision(d, req, time.Nanosecond); err != nil || secs <= 0 {
		t.Fatalf("classical run against a 1ns limit: %gs, %v; classical is never stopped", secs, err)
	}
}
