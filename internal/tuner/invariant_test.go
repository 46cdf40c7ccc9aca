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
	"fastmm/internal/workspace"
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

func (s *scriptedTimer) time(d *decision, _ op.Request, lim probeLimit) (float64, error) {
	limit := lim.limit
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

// classicalLast ranks a shape and moves every classical decision behind
// every fast one — the mis-ranking the invariant exists for: the model
// says classical is the worst choice, far outside any top-K.
func classicalLast(t *testing.T, tn *Tuner, n int) []*decision {
	t.Helper()
	ranked, err := tn.rank(op.Multiply, n, n, n, tn.opts.Workers)
	if err != nil {
		t.Fatal(err)
	}
	var fast, classical []*decision
	for _, d := range ranked {
		if d.plan.IsClassical() {
			classical = append(classical, d)
		} else {
			fast = append(fast, d)
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
			d, _, err := tn.pick(classicalLast(t, tn, n), n, n, n, nil)
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

// TestPickKeepsFailureBehaviour: the classical reference does not change
// the probe's failure contract. A survivor whose probe fails is skipped,
// and when that survivor is the classical reference the fastest remaining
// plan wins as before.
func TestPickKeepsFailureBehaviour(t *testing.T) {
	const n = 512
	tn := mustTuner(t, Options{Resources: Resources{Workers: 1}, Profile: testProfile(1), NoDiskCache: true})
	ranked := classicalLast(t, tn, n)
	timer := &scriptedTimer{fast: []float64{0.9, 0.8, 0.7}, classical: []float64{0.1},
		fail: func(p Plan) bool { return p.IsClassical() || p.String() == ranked[0].plan.String() }}
	tn.timeRun = timer.time
	d, _, err := tn.pick(ranked, n, n, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.plan.IsClassical() || d.plan.String() == ranked[0].plan.String() {
		t.Fatalf("picked %v, whose probe failed", d.plan)
	}
	if d.plan.MeasuredSeconds != 0.7 {
		t.Fatalf("picked %v at %gs, want the fastest surviving probe (0.7s)", d.plan, d.plan.MeasuredSeconds)
	}
	if len(timer.calls) != DefaultProbeTopK+1 {
		t.Fatalf("%d timings with no classical reference, want the sweep alone (%d)", len(timer.calls), DefaultProbeTopK+1)
	}

	timer.fail = func(Plan) bool { return true }
	if _, _, err := tn.pick(ranked, n, n, n, nil); err == nil {
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
				d, _, err := tn.pick(classicalLast(t, tn, n), n, n, n, nil)
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
	tn.timeRun = func(d *decision, _ op.Request, lim probeLimit) (float64, error) {
		calls++
		if d.plan.IsClassical() {
			return 1, nil
		}
		if lim.limit <= 0 {
			t.Fatalf("fast probe %v timed without a deadline", d.plan)
		}
		return 0.1, core.ErrStopped
	}
	d, _, err := tn.pick(classicalLast(t, tn, n), n, n, n, nil)
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

// TestTimeDecisionStopsAtLimit: the production stopwatch binds its run to
// a budget. A fast plan that cannot finish inside its limit at the given
// rate reports core.ErrStopped — with a hopeless rate at its first check,
// long before the limit — while an ample rate and limit, or no limit, runs
// it to completion; the classical baseline is never stopped. Every run
// draws its workspace from the limit's pool, never the executor's own.
func TestTimeDecisionStopsAtLimit(t *testing.T) {
	const n = 384
	tn := mustTuner(t, Options{Resources: Resources{Workers: 1}, Profile: testProfile(1), NoDiskCache: true})
	fast, err := tn.build(op.Multiply, Plan{Algorithm: "strassen", Steps: 2, Parallel: "sequential", Strategy: "write-once", Fused: gemm.CanFuse(gemm.Default()), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	A, B := mat.New(n, n), mat.New(n, n)
	A.FillRandom(rng)
	B.FillRandom(rng)
	req := op.Request{Op: op.Multiply, C: mat.New(n, n), A: A, B: B}
	pool := new(workspace.Pool)

	if secs, err := timeDecision(fast, req, probeLimit{limit: time.Nanosecond, rate: 1e30, arenas: pool}); !errors.Is(err, core.ErrStopped) || secs != time.Nanosecond.Seconds() {
		t.Fatalf("fast run against a 1ns limit: %gs, %v; want the limit and core.ErrStopped", secs, err)
	}
	start := time.Now()
	if _, err := timeDecision(fast, req, probeLimit{limit: time.Hour, rate: 1, arenas: pool}); !errors.Is(err, core.ErrStopped) {
		t.Fatalf("fast run whose leaves cannot finish inside an hour at 1 flop/s: %v, want core.ErrStopped", err)
	}
	if waited := time.Since(start); waited > time.Minute {
		t.Fatalf("a run that could not finish was stopped only after %v", waited)
	}
	if secs, err := timeDecision(fast, req, probeLimit{limit: time.Hour, rate: 1e30, arenas: pool}); err != nil || secs <= 0 {
		t.Fatalf("fast run with an ample limit and rate: %gs, %v", secs, err)
	}
	if secs, err := timeDecision(fast, req, probeLimit{arenas: pool}); err != nil || secs <= 0 {
		t.Fatalf("fast run without a limit: %gs, %v", secs, err)
	}
	if got := fast.exec.WorkspaceRetained(); got != 0 || pool.Bytes() == 0 {
		t.Fatalf("executor retained %d bytes, probe pool %d; want every arena in the probe pool", got, pool.Bytes())
	}
	classical := tn.classicalPlan(op.Multiply, n, n, n, tn.opts.Workers)
	d, err := tn.build(op.Multiply, classical)
	if err != nil {
		t.Fatal(err)
	}
	if secs, err := timeDecision(d, req, probeLimit{limit: time.Nanosecond, rate: 1, arenas: pool}); err != nil || secs <= 0 {
		t.Fatalf("classical run against a 1ns limit: %gs, %v; classical is never stopped", secs, err)
	}
}

// TestProbeBoundIsSound drives a real fast run under the probe bound with a
// scripted clock: time advances only with leaf work, at simRate flops per
// second, and additions are free, so the run's pace is simRate from its
// first leaf on. A run whose remaining leaves finish by the deadline at the
// bound's rate is never stopped; a run that cannot finish is stopped at the
// first check after the projected finish (now + left/rate, with rate the
// lower of the bound's and paceSlack × simRate once a leaf has started)
// crosses the deadline, and at no check before it.
func TestProbeBoundIsSound(t *testing.T) {
	const n = 256 // strassen s2: 49 leaves of 64³, no peeling
	const rate = 2e9
	total := int64(49 * 2 * 64 * 64 * 64)
	tn := mustTuner(t, Options{Resources: Resources{Workers: 1}, Profile: testProfile(1), NoDiskCache: true})
	d, err := tn.build(op.Multiply, Plan{Algorithm: "strassen", Steps: 2, Parallel: "sequential", Strategy: "write-once", Fused: gemm.CanFuse(gemm.Default()), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	A, B := mat.New(n, n), mat.New(n, n)
	A.FillRandom(rng)
	B.FillRandom(rng)
	req := op.Request{Op: op.Multiply, C: mat.New(n, n), A: A, B: B}
	totalSecs := float64(total) / rate

	for _, tc := range []struct {
		name      string
		simRate   float64 // the flop rate the scripted leaves run at
		limitSecs float64
		wantStop  bool
	}{
		{"leaves at the bound's rate finish just inside the limit", rate, totalSecs + 1e-6, false},
		{"leaves faster than the bound's rate", 2 * rate, totalSecs + 1e-6, false},
		{"leaves at half the rate cannot finish", rate / 2, 1.5 * totalSecs, true},
		{"hopeless from the first check", rate / 2, 0.75 * totalSecs, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			start := time.Unix(1000, 0)
			var done int64 // leaf flops started, as the last check reported them
			clock := func() time.Time {
				return start.Add(time.Duration(float64(done) / tc.simRate * float64(time.Second)))
			}
			lim := probeLimit{limit: time.Duration(tc.limitSecs * float64(time.Second)), rate: rate, arenas: new(workspace.Pool)}
			b := lim.budget(start, clock)
			over := b.Over
			type check struct {
				left int64
				over bool
			}
			var checks []check
			b.Over = func(left int64) bool {
				done = total - left
				o := over(left)
				checks = append(checks, check{left, o})
				return o
			}
			err := d.runBudget(req, b)
			if gotStop := errors.Is(err, core.ErrStopped); gotStop != tc.wantStop || (err != nil && !gotStop) {
				t.Fatalf("run returned %v, want stopped=%v", err, tc.wantStop)
			}
			if len(checks) == 0 || checks[0].left != total {
				t.Fatalf("first check saw %v, want %d left flops", checks, total)
			}
			for i, c := range checks {
				r := rate
				if c.left < total {
					r = min(rate, paceSlack*tc.simRate)
				}
				projected := float64(total-c.left)/tc.simRate + float64(c.left)/r
				crossed := projected > tc.limitSecs
				if c.over != crossed {
					t.Fatalf("check %d (left %d, projected %gs vs limit %gs) returned %v", i, c.left, projected, tc.limitSecs, c.over)
				}
				if c.over && i != len(checks)-1 {
					t.Fatalf("check %d stopped the run, yet %d more checks asked the budget", i, len(checks)-1-i)
				}
			}
		})
	}
}

// TestPaceBound drives probeLimit.budget with a scripted clock through the
// checks of one run: 8 Gflop of leaves against a 1 s limit, at a leaf rate
// the old bound alone would let finish in 0.1 s. The run's pace is the leaf
// flops it has started over the seconds since the last check that saw none
// started. A pace that projects inside the limit is never stopped; one that
// projects past it stops at the first check after the first leaf, which the
// old bound would have let pass; and before any leaf starts only the old
// bound applies, however long the lead-in takes.
func TestPaceBound(t *testing.T) {
	const total = int64(8e9)
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	type check struct {
		at   time.Duration
		left int64
		over bool
	}
	for _, tc := range []struct {
		name   string
		checks []check
	}{
		{"a pace inside the limit is never stopped", []check{
			// 0.2 s of additions, then a leaf per 0.09 s (11.1 Gflop/s):
			// the last leaf ends at 0.92 s.
			{0, total, false}, {ms(200), total, false},
			{ms(290), total - 1e9, false}, {ms(380), total - 2e9, false},
			{ms(470), total - 3e9, false}, {ms(560), total - 4e9, false},
			{ms(650), total - 5e9, false}, {ms(740), total - 6e9, false},
			{ms(830), total - 7e9, false}, {ms(920), 0, false},
		}},
		{"a pace past the limit stops after the first leaf", []check{
			// 0.1 s of additions, then a first leaf of 0.2 s: 5 Gflop/s
			// projects 0.3 + 7/(1.15·5) = 1.52 s; the old bound 0.39 s.
			{0, total, false}, {ms(100), total, false}, {ms(300), total - 1e9, true},
		}},
		{"before the first leaf only the old bound applies", []check{
			// No leaf started: the projection is now + 0.1 s.
			{0, total, false}, {ms(500), total, false}, {ms(890), total, false}, {ms(910), total, true},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			start := time.Unix(1000, 0)
			var clock time.Duration
			lim := probeLimit{limit: time.Second, rate: float64(total) / 0.1}
			over := lim.budget(start, func() time.Time { return start.Add(clock) }).Over
			for i, c := range tc.checks {
				clock = c.at
				if got := over(c.left); got != c.over {
					t.Fatalf("check %d at %v with %d flops left: over=%v, want %v", i, c.at, c.left, got, c.over)
				}
			}
		})
	}
	if got := (probeLimit{}).budget(time.Now(), time.Now).Over; got != nil {
		t.Fatal("a budget without a limit must not test anything")
	}
}

// TestProbeSharesOneArenaPool: one probe over several multi-step survivors
// — fused where the backend fuses, their upper levels' temporaries drawn
// from arenas — hands every run the same arena pool, which ends up holding
// about the largest survivor's workspace rather than the sum of them all;
// the winner's executor, like every survivor's, retains nothing.
func TestProbeSharesOneArenaPool(t *testing.T) {
	const n = 384
	tn := mustTuner(t, Options{Resources: Resources{Workers: 1}, Profile: testProfile(1), NoDiskCache: true})
	ranked, err := tn.rank(op.Multiply, n, n, n, tn.opts.Workers)
	if err != nil {
		t.Fatal(err)
	}
	var survivors []*decision
	var classical *decision
	for _, d := range ranked {
		switch {
		case d.plan.IsClassical():
			if classical == nil {
				classical = d
			}
		case d.plan.Steps >= 2 && len(survivors) < DefaultProbeTopK:
			survivors = append(survivors, d)
		}
	}
	if classical == nil || len(survivors) < 2 {
		t.Fatalf("need a classical plan and multi-step fast ones, have %d", len(survivors))
	}
	var maxWS, sumWS int64
	var execs []*core.Executor
	for _, d := range survivors {
		ws := d.exec.WorkspaceBytes(n, n, n) - 8*d.be.PackFloatsPerWorker() // the arena part
		maxWS, sumWS = max(maxWS, ws), sumWS+ws
	}
	// On top of the largest reservation: view headers, pointer and
	// scaled-operand slabs, and a temporary the model's count missed that
	// spills into a chunk of its own (at most a quarter of the reservation).
	scratch := maxWS/4 + 256<<10
	if maxWS+scratch >= sumWS {
		t.Fatalf("survivors' workspaces (max %d, sum %d) do not tell max from sum", maxWS, sumWS)
	}

	var pools []*workspace.Pool
	tn.timeRun = func(d *decision, req op.Request, lim probeLimit) (float64, error) {
		pools = append(pools, lim.arenas)
		if d.exec != nil {
			execs = append(execs, d.exec)
		}
		// Run every survivor to completion on the probe's pool, then
		// report a scripted fast win so a fast plan is the decision.
		if _, err := timeDecision(d, req, probeLimit{arenas: lim.arenas}); err != nil {
			return 0, err
		}
		if d.plan.IsClassical() {
			return 1, nil
		}
		return 0.5, nil
	}
	d, _, err := tn.pick(append(survivors, classical), n, n, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.plan.IsClassical() {
		t.Fatalf("picked %v, want the scripted fast win", d.plan)
	}
	pool := pools[0]
	for i, p := range pools {
		if p == nil || p != pool {
			t.Fatalf("timing %d drew from pool %p, want the decision's one pool %p", i, p, pool)
		}
	}
	if got := pool.Bytes(); got < maxWS || got > maxWS+scratch {
		t.Fatalf("probe pool retains %d bytes; want about the largest survivor's %d (sum %d)", got, maxWS, sumWS)
	}
	if got := (&Entry{d: d}).WorkspaceRetained(); got != 0 {
		t.Fatalf("the winner's entry retains %d bytes right after the decision, want 0", got)
	}
	for _, e := range execs {
		if got := e.WorkspaceRetained(); got != 0 {
			t.Fatalf("a probed executor retains %d bytes, want 0", got)
		}
	}
}
