package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"fastmm"
	"fastmm/internal/gemm"
	"fastmm/internal/mat"
	"fastmm/internal/op"
	"fastmm/internal/tuner"
)

// instance is one opCase with its operands: seeded inputs, the output Auto
// writes and the output the classical baseline writes.
type instance struct {
	opCase
	A, B  *mat.Dense
	C0    *mat.Dense // C before the call when the op accumulates, else nil
	C, Cb *mat.Dense
}

func newInstance(c opCase, rng *rand.Rand) *instance {
	in := &instance{opCase: c, A: mat.New(c.AR, c.AC)}
	in.A.FillRandom(rng)
	if !c.Op.UnaryOperand() {
		in.B = mat.New(c.AC, c.BC)
		in.B.FillRandom(rng)
	}
	m, _, n := c.shape()
	in.C, in.Cb = mat.New(m, n), mat.New(m, n)
	if c.Op == op.MultiplyAdd {
		in.C0 = mat.New(m, n)
		in.C0.FillRandom(rng)
	}
	return in
}

func newInstances(cases []opCase, seed int64) []*instance {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*instance, len(cases))
	for i, c := range cases {
		out[i] = newInstance(c, rng)
	}
	return out
}

// request builds the call that writes into c, restoring c's prior contents
// first when the op accumulates — outside any timed region.
func (in *instance) request(c *mat.Dense) op.Request {
	if in.C0 != nil {
		c.CopyFrom(in.C0)
	}
	return op.Request{Op: in.Op, C: c, A: in.A, B: in.B, Alpha: in.Alpha}
}

// classical runs the classical form of the same op at w workers: the
// baseline every speed-up in this benchmark is measured against.
func classical(be gemm.Backend, r op.Request, w int) {
	r = r.Normalized()
	switch r.Op {
	case op.ATA:
		gemm.ATA(be, r.C, r.Alpha, r.A, false, w)
	case op.Syrk:
		gemm.Syrk(be, r.C, r.Alpha, r.A, false, w)
	default:
		gemm.Dispatch(be, r.C, r.Alpha, r.A, r.B, r.Beta != 0, w)
	}
}

// coldAuto is the set-up a first-time user pays: a fresh tuning cache, the
// dispatcher with its first-use calibration, and one call per case so every
// plan is tuned.
func (b *bench) coldAuto(w int, insts []*instance) (*tuner.Tuner, time.Duration, error) {
	if _, err := freshTuneCache(b.tmp); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	auto, err := fastmm.NewAutoExecutor(fastmm.AutoOptions{Resources: fastmm.Resources{Workers: w}})
	if err != nil {
		return nil, 0, err
	}
	for _, in := range insts {
		if err := auto.Do(in.request(in.C)); err != nil {
			return nil, 0, fmt.Errorf("set-up %s: %w", in, err)
		}
	}
	return auto, time.Since(start), nil
}

// callSamples holds the timed calls of one instance through one dispatcher
// and, interleaved with them, through the classical baseline.
type callSamples struct {
	auto, classical []time.Duration
}

// round runs every instance once through Auto and once through the classical
// baseline; autoFirst alternates between rounds so drift hits both alike.
func (b *bench) round(auto *tuner.Tuner, insts []*instance, autoFirst bool, samples []callSamples) {
	w := b.wl.workers(b.env.W)
	be := gemm.Default()
	for i, in := range insts {
		for step := 0; step < 2; step++ {
			if (step == 0) == autoFirst {
				req := in.request(in.C)
				start := time.Now()
				err := auto.Do(req)
				d := time.Since(start)
				b.attempted++
				if err != nil {
					b.failed++
					continue
				}
				samples[i].auto = append(samples[i].auto, d)
			} else {
				req := in.request(in.Cb)
				start := time.Now()
				classical(be, req, w)
				samples[i].classical = append(samples[i].classical, time.Since(start))
			}
		}
	}
}

// callsEndToEnd is the untraced pass of the three call-at-a-time workloads.
//
// The tuner probes with single noisy timings, so two cold starts on one
// machine often settle on different plans whose speeds differ by more than
// any bound here. Timing one dispatcher would report that draw, not the
// program; so a run makes several cold set-ups, gives each one's dispatcher
// an equal share of the timed phase, and takes a shape's time as the mean
// over dispatchers of each one's median — the expected time over the tuner's
// own choices. One dispatcher is alive at a time, as in a user's process.
func (b *bench) callsEndToEnd() error {
	w := b.wl.workers(b.env.W)
	insts := newInstances(b.wl.Cases, b.cfg.Seed)
	draws := b.setupReps()

	var setups []time.Duration
	auto := make([][]timing, len(insts)) // per instance, per dispatcher
	plans := make([][]string, len(insts))
	baseline := make([][]time.Duration, len(insts)) // classical calls, pooled over dispatchers
	var calls int
	var autoTotal time.Duration
	for j := 0; j < draws; j++ {
		disp, d, err := b.coldAuto(w, insts)
		if err != nil {
			return err
		}
		setups = append(setups, d)

		samples := make([]callSamples, len(insts))
		start := time.Now()
		for reps := 0; reps*draws < b.minReps() || time.Since(start).Seconds()*float64(draws) < b.cfg.Seconds; reps++ {
			b.round(disp, insts, reps%2 == 0, samples)
			b.env.Repetitions++
		}
		for i, in := range insts {
			if len(samples[i].auto) == 0 {
				return fmt.Errorf("%s: every Auto call failed", in)
			}
			m, k, n := in.shape()
			plan, _ := disp.PlanForOp(in.Op, m, k, n)
			plans[i] = append(plans[i], plan.String())
			auto[i] = append(auto[i], summarize(samples[i].auto))
			baseline[i] = append(baseline[i], samples[i].classical...)
			calls += len(samples[i].auto)
			for _, d := range samples[i].auto {
				autoTotal += d
			}
		}
		b.checkInstances(insts)
		disp = nil
		runtime.GC() // this dispatcher's arenas and probe operands go before the next cold start
	}

	var eff, cls, speedup, p50, p95 []float64
	cases := make([]map[string]any, len(insts))
	for i, in := range insts {
		m, k, n := in.shape()
		var med, tail float64
		for _, t := range auto[i] {
			med += t.Median / float64(draws)
			tail += t.P95 / float64(draws)
		}
		tc := summarize(baseline[i])
		eff = append(eff, eq3(m, k, n)/med/1e9)
		cls = append(cls, eq3(m, k, n)/tc.Median/1e9)
		speedup = append(speedup, tc.Median/med)
		p50 = append(p50, med*1e3)
		p95 = append(p95, tail*1e3)
		cases[i] = map[string]any{"case": in.String(), "plans": plans[i], "auto": auto[i], "classical": tc}
	}
	b.detail["cases"] = cases
	b.detail["setup_s"] = seconds(setups)

	b.set("setup_s", medianDuration(setups).Seconds())
	b.set("eff_gflops", geomean(eff))
	b.set("classical_gflops", geomean(cls))
	b.set("speedup_vs_classical", geomean(speedup))
	b.set("throughput_ops_s", float64(calls)/autoTotal.Seconds())
	// A pooled percentile of a multi-modal sample sits on a mode boundary and
	// does not repeat, so percentiles are taken per shape and dispatcher,
	// then averaged.
	b.set("latency_p50_ms", geomean(p50))
	b.set("latency_p95_ms", geomean(p95))
	return nil
}

// checkInstances runs the oracle over Auto's last output of every instance.
func (b *bench) checkInstances(insts []*instance) {
	tol := tolerance()
	for i, in := range insts {
		req := op.Request{Op: in.Op, C: in.C, A: in.A, B: in.B, Alpha: in.Alpha}
		b.recordOracle(in.String(), checkOutput(req, in.C0, b.cfg.Seed+int64(i), tol), tol)
	}
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
