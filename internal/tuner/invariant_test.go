package tuner

import (
	"errors"
	"testing"
	"time"

	"fastmm/internal/op"
)

// scriptedTimer replaces a tuner's probe stopwatch: fast plans and classical
// plans each read their successive timings from a list (the last entry
// repeats), and every timed plan is recorded in call order.
type scriptedTimer struct {
	fast, classical []float64
	fail            func(Plan) bool
	calls           []Plan
	nFast, nClass   int
}

func (s *scriptedTimer) time(d *decision, _ op.Request) (float64, error) {
	s.calls = append(s.calls, d.plan)
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
	return next(s.fast, &s.nFast), nil
}

// classicalLast ranks a shape and moves every classical plan behind every
// fast one — the mis-ranking the invariant exists for: the model says
// classical is the worst choice, far outside any top-K.
func classicalLast(t *testing.T, tn *Tuner, n int) []Plan {
	t.Helper()
	ranked, err := tn.Rank(n, n, n)
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

// TestPickNeverLosesToClassical is the do-no-harm invariant on scripted
// timings: classical is probed wherever the model ranked it, and a fast plan
// is returned only when it beat classical's measured time by the margin
// twice; anything else is classical.
func TestPickNeverLosesToClassical(t *testing.T) {
	const n = 512
	for _, tc := range []struct {
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
	} {
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
