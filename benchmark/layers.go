package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"fastmm"
	"fastmm/internal/batch"
	"fastmm/internal/core"
	"fastmm/internal/gemm"
	"fastmm/internal/mat"
	"fastmm/internal/op"
	"fastmm/internal/stream"
	"fastmm/internal/trace"
	"fastmm/internal/tuner"
)

// The traced pass measures every layer from outside: it asks for the plan
// the program picked, rebuilds it with counters attached, and times calls
// into each layer's public functions. It adds no instrumentation to the
// program; numbers the program already exports (core.Stats, Batcher.Stats,
// Plan.PredictedSeconds, trace records) are read where they exist.

const (
	layerReps = 3 // timed calls per measurement of the traced pass
	fewReps   = 2 // for the costlier replays and the panel
	// streamCapBytes caps a STREAM array so four bandwidth measurements fit
	// the run-time budget; README.md explains what that costs.
	streamCapBytes = 128 << 20
)

// panelPlan is one member of the fixed fast-algorithm panel: the paper's
// claim with the tuner taken out.
type panelPlan struct {
	Algorithm string
	Steps     int
}

var panel = []panelPlan{{"strassen", 1}, {"strassen", 2}, {"fast424", 1}, {"winograd", 1}}

// layerSums accumulates the per-unit measurements of one traced pass.
type layerSums struct {
	units                           int
	flops                           float64
	auto, traced, classical         float64 // seconds, summed medians
	classical1, classicalW          float64 // the same calls at 1 worker and at w, where both ran
	build, exec, leaf, add          float64
	planT1, planTW                  float64
	leafFlops, addBytes             float64
	leafCalls                       int
	stats                           core.Stats
	predictedBytes, retainedBytes   int64
	fastVsClassical, regret, predOv []float64
	worse                           int
	spansDropped                    int
	mallocs                         uint64 // heap allocations during the untraced Do calls
	autoCalls                       int
	opRatio                         map[op.Op][]float64
}

func timeCalls(n int, f func()) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		start := time.Now()
		f()
		out[i] = time.Since(start)
	}
	return out
}

// pairedMedians times f and g alternately, n calls each, so drift hits both
// alike, and returns the two medians.
func pairedMedians(n int, f, g func()) (time.Duration, time.Duration) {
	fs, gs := make([]time.Duration, n), make([]time.Duration, n)
	for i := 0; i < n; i++ {
		fs[i] = timeCalls(1, f)[0]
		gs[i] = timeCalls(1, g)[0]
	}
	return medianDuration(fs), medianDuration(gs)
}

// layers is the traced pass of any workload.
func (b *bench) layers() error {
	w := b.wl.workers(b.env.W)
	sums := &layerSums{opRatio: map[op.Op][]float64{}}
	peak := b.ceilings(w)

	var err error
	if b.wl.Serve != nil {
		err = b.serveLayers(w, sums)
	} else {
		err = b.callsLayers(w, sums)
	}
	if err != nil {
		return err
	}

	b.set("gemm.leaf_calls", float64(sums.leafCalls))
	b.set("gemm.leaf_s", sums.leaf)
	b.set("gemm.leaf_gflops", sums.leafFlops/sums.leaf/1e9)
	b.set("gemm.leaf_frac_peak", sums.leafFlops/sums.leaf/1e9/(peak*float64(w)))
	b.set("gemm.classical_frac_peak", sums.flops/sums.classical/1e9/(peak*float64(w)))
	b.set("gemm.par_efficiency", sums.classical1/(float64(w)*sums.classicalW))

	b.set("mat.add_bytes_computed", sums.addBytes/1e6)
	b.set("mat.add_s", sums.add)
	b.set("mat.add_gbs", sums.addBytes/sums.add/1e9) // add is never exactly 0: an empty replay is still timed
	b.set("mat.add_share", sums.add/sums.exec)

	b.set("core.build_s", sums.build)
	b.set("core.exec_s", sums.exec)
	b.set("core.self_s", sums.exec-sums.leaf-sums.add)
	b.set("core.par_efficiency", sums.planT1/(float64(w)*sums.planTW))
	b.set("core.tasks_spawned", float64(sums.stats.TasksSpawned))
	b.set("core.fixup_calls", float64(sums.stats.FixupCalls))
	b.set("core.fused_calls", float64(sums.stats.FusedCalls))
	b.set("core.deferred_leaves", float64(sums.stats.DeferredLeaves))
	b.set("core.fast_vs_classical", geomean(sums.fastVsClassical))

	b.set("op.ata_vs_multiply", geomean(sums.opRatio[op.ATA]))
	b.set("op.syrk_vs_multiply", geomean(sums.opRatio[op.Syrk]))
	b.set("op.multiplyadd_vs_multiply", geomean(sums.opRatio[op.MultiplyAdd]))

	b.set("workspace.predicted_mb", float64(sums.predictedBytes)/(1<<20))
	b.set("workspace.retained_mb", float64(sums.retainedBytes)/(1<<20))

	b.set("tuner.regret", geomean(sums.regret))
	b.set("tuner.worse_than_classical_share", float64(sums.worse)/float64(sums.units))
	b.set("tuner.predicted_over_measured", geomean(sums.predOv))

	b.set("trace.overhead_share", sums.traced/sums.auto-1)
	b.set("trace.spans_dropped", float64(sums.spansDropped))

	b.set("stability.rel_err_max", b.relErrMax)
	b.set("stability.checked_entries", float64(b.checked))
	b.set("failed_share", float64(b.failed)/float64(max(b.attempted, 1)))
	b.set("workspace.peak_rss_mb", peakRSSMB())
	return nil
}

// ceilings measures what the machine can do regardless of the workload: the
// kernel's in-cache rate, a small call's fixed cost, STREAM bandwidth and the
// tuner's calibration. It returns the kernel peak in GFLOPS.
func (b *bench) ceilings(w int) float64 {
	root := b.rec.begin(0, 0, "workload", "ceilings")
	defer b.rec.end(root)
	be := gemm.Default()
	rng := rand.New(rand.NewSource(b.cfg.Seed))

	peak := 0.0
	sizes := []int{192, 256, 384}
	if b.cfg.Tiny {
		sizes = []int{96}
	}
	for _, n := range sizes {
		in := newInstance(mul(n, n, n), rng)
		b.rec.call(root, 0, "gemm", fmt.Sprintf("Dispatch %d^3", n), func() {
			d := slices.Min(timeCalls(5, func() { gemm.Dispatch(be, in.C, 1, in.A, in.B, false, 1) }))
			peak = max(peak, eq3(n, n, n)/d.Seconds()/1e9)
		})
	}
	b.set("gemm.kernel_peak_gflops", peak)

	small := newInstance(mul(128, 128, 128), rng)
	b.rec.call(root, 0, "gemm", "Dispatch 128^3", func() {
		ds := timeCalls(200, func() { gemm.Dispatch(be, small.C, 1, small.A, small.B, false, 1) })
		b.set("gemm.small_call_us", medianDuration(ds).Seconds()*1e6)
	})

	// Each array should be four times the last-level cache; a quarter of
	// memory for the three arrays and the run-time cap bound it from above.
	bytes := 4 * b.env.LLCBytes
	if bytes <= 0 {
		bytes = streamCapBytes
	}
	bytes = min(bytes, b.env.MemTotalBytes/12, streamCapBytes)
	if b.cfg.Tiny {
		bytes = 1 << 20
	}
	b.env.StreamBytes = bytes
	n := int(bytes / 8)
	for _, m := range []struct {
		name    string
		kernel  stream.Kernel
		workers int
	}{
		{"stream.triad_gbs_1w", stream.Triad, 1}, {"stream.triad_gbs_Ww", stream.Triad, b.env.W},
		{"stream.add_gbs_1w", stream.Add, 1}, {"stream.add_gbs_Ww", stream.Add, b.env.W},
	} {
		b.rec.call(root, 0, "stream", m.name, func() { b.set(m.name, stream.Run(m.kernel, n, m.workers, 2).GBps) })
	}

	b.rec.call(root, 0, "tuner", "Calibrate", func() {
		start := time.Now()
		tuner.Calibrate(w, true)
		b.set("tuner.calibrate_s", time.Since(start).Seconds())
	})
	return peak
}

func (b *bench) detailList(key string, v map[string]any) {
	list, _ := b.detail[key].([]map[string]any)
	b.detail[key] = append(list, v)
}

// callsLayers is the traced pass of the call-at-a-time workloads.
func (b *bench) callsLayers(w int, sums *layerSums) error {
	insts := newInstances(b.wl.Cases, b.cfg.Seed)
	if _, err := freshTuneCache(b.tmp); err != nil {
		return err
	}
	opts := fastmm.AutoOptions{Resources: fastmm.Resources{Workers: w}}

	// Cold: every plan is ranked and probed. Warm from disk: a second
	// dispatcher resolves the same plans from the first one's cache.
	var auto *tuner.Tuner
	for pass, name := range []string{"tuner.plan_cold_s", "tuner.plan_warm_disk_s"} {
		root := b.rec.begin(0, 0, "workload", name)
		tn, err := fastmm.NewAutoExecutor(opts)
		if err != nil {
			return err
		}
		start := time.Now()
		for _, in := range insts {
			m, k, n := in.shape()
			b.rec.call(root, 0, "tuner", "PlanForOp "+in.String(), func() { _, err = tn.PlanForOp(in.Op, m, k, n) })
			if err != nil {
				return err
			}
		}
		b.set(name, time.Since(start).Seconds())
		b.rec.end(root)
		if pass == 0 {
			auto = tn
		}
	}
	for _, in := range insts {
		if err := auto.Do(in.request(in.C)); err != nil {
			return err
		}
	}

	for i, in := range insts {
		m, k, n := in.shape()
		plan, err := auto.PlanForOp(in.Op, m, k, n)
		if err != nil {
			return err
		}
		if _, err := b.attribute(in, plan, w, auto.Do, sums, i+1); err != nil {
			return err
		}
		if in.Op != op.Multiply {
			if err := b.opRatio(auto, in, sums); err != nil {
				return err
			}
		}
	}
	b.checkInstances(insts)
	b.set("workspace.allocs_per_op", float64(sums.mallocs)/float64(sums.autoCalls))
	if err := b.dispatchOverhead(opts); err != nil {
		return err
	}
	return b.batchProbe(w, insts)
}

// opRatio times the op's gemm-equivalent triple as a general Multiply through
// the same dispatcher: what the structured path saves over not having it.
func (b *bench) opRatio(auto *tuner.Tuner, in *instance, sums *layerSums) error {
	m, k, n := in.shape()
	g := newInstance(mul(m, k, n), rand.New(rand.NewSource(b.cfg.Seed)))
	if err := auto.Multiply(g.C, g.A, g.B); err != nil {
		return err
	}
	reps := layerReps
	if b.cfg.Tiny {
		reps = 1
	}
	var err error
	general := medianDuration(timeCalls(reps, func() { err = auto.Multiply(g.C, g.A, g.B) }))
	structured := medianDuration(timeCalls(reps, func() { err = auto.Do(in.request(in.C)) }))
	sums.opRatio[in.Op] = append(sums.opRatio[in.Op], general.Seconds()/structured.Seconds())
	return err
}

// overheadUS is what a path into the program adds to a 128³ multiply over
// running the tuned entry it resolves to directly, in microseconds; calls
// alternate so drift hits both alike.
func (b *bench) overheadUS(tn *tuner.Tuner, via func(op.Request) error) (float64, error) {
	in := newInstance(mul(128, 128, 128), rand.New(rand.NewSource(b.cfg.Seed)))
	req := in.request(in.C)
	entry, err := tn.Entry(128, 128, 128)
	if err == nil {
		err = via(req) // first touch: the path tunes its own entry
	}
	if err != nil {
		return 0, err
	}
	var errVia, errDirect error
	through, direct := pairedMedians(200, func() { errVia = via(req) }, func() { errDirect = entry.Run(req) })
	return (through - direct).Seconds() * 1e6, errors.Join(errVia, errDirect)
}

// dispatchOverhead is Auto's own cost per call: key formatting, the cache
// lookup, validation.
func (b *bench) dispatchOverhead(opts fastmm.AutoOptions) error {
	tn, err := fastmm.NewAutoExecutor(opts)
	if err != nil {
		return err
	}
	us, err := b.overheadUS(tn, tn.Do)
	b.set("tuner.dispatch_overhead_us", us)
	return err
}

// batchOverhead is a window-1 Batcher's cost per call over the entry it
// resolves to.
func (b *bench) batchOverhead(bt *batch.Batcher) error {
	plan, err := bt.PlanForOp(op.Multiply, 128, 128, 128)
	if err != nil {
		return err
	}
	tn, err := fastmm.NewAutoExecutor(fastmm.AutoOptions{Resources: fastmm.Resources{Workers: max(plan.Workers, 1)}})
	if err != nil {
		return err
	}
	us, err := b.overheadUS(tn, bt.Do)
	b.set("batch.overhead_us", us)
	return err
}

// batchMetrics reports the batch layer from Batcher.Stats and the outside
// timing of one pass; busyBefore is Stats.BusySeconds when the pass began.
func (b *bench) batchMetrics(st batch.Stats, run serveRun, busyBefore float64) {
	var sub, done, failed, expired, rejected int64
	wait := batch.Histogram{Counts: make([]int64, len(st.Lanes[0].QueueWait.Counts))}
	service := batch.Histogram{Counts: make([]int64, len(wait.Counts))}
	for _, l := range st.Lanes {
		sub, done, failed = sub+l.Submitted, done+l.Done, failed+l.Failed
		expired, rejected = expired+l.Expired, rejected+l.Rejected
		for i := range wait.Counts {
			wait.Counts[i] += l.QueueWait.Counts[i]
			service.Counts[i] += l.Service.Counts[i]
		}
		wait.Count += l.QueueWait.Count
		service.Count += l.Service.Count
	}
	ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 }
	b.set("batch.submitted", float64(sub))
	b.set("batch.done", float64(done))
	b.set("batch.failed", float64(failed))
	b.set("batch.expired", float64(expired))
	b.set("batch.rejected", float64(rejected))
	b.set("batch.queue_wait_p50_ms", ms(wait.Quantile(0.5)))
	b.set("batch.queue_wait_p95_ms", ms(wait.Quantile(0.95)))
	b.set("batch.queue_wait_p95_ms.high", ms(st.Lanes[batch.LaneHigh].QueueWait.Quantile(0.95)))
	b.set("batch.service_p50_ms", ms(service.Quantile(0.5)))
	lat := make([]float64, len(run.Latencies))
	for i, d := range run.Latencies {
		lat[i] = d.Seconds() * 1e3
	}
	b.set("batch.latency_p99_ms", quantileOf(lat, 0.99))
	b.set("batch.warm_hit_rate", st.WarmHitRate())
	b.set("batch.warm_entries", float64(st.WarmEntries))
	b.set("batch.busy_share", (st.BusySeconds-busyBefore)/(run.Wall.Seconds()*float64(b.env.W)))
	b.set("batch.submit_block_s", run.SubmitBlocked.Seconds())
}

// batchProbe puts the batch layer under a call-at-a-time workload: the
// workload's own requests through a Batcher, one outstanding at a time. The
// layer has almost nothing to do there, and the numbers say how little.
func (b *bench) batchProbe(w int, insts []*instance) error {
	bt, err := fastmm.NewBatcher(fastmm.BatchOptions{Resources: fastmm.Resources{Workers: w}})
	if err != nil {
		return err
	}
	defer bt.Close()
	for _, in := range insts { // tunes each class; not part of the probe
		if err := bt.Do(in.request(in.C)); err != nil {
			return err
		}
	}
	busy := bt.Stats().BusySeconds
	var run serveRun
	start := time.Now()
	for rep := 0; rep < fewReps; rep++ {
		for i, in := range insts {
			req := in.request(in.C)
			root := b.rec.begin(0, i+1, "workload", "request "+in.String())
			sub := b.rec.begin(root, i+1, "batch", "Batcher.SubmitRequest")
			t0 := time.Now()
			ticket, err := bt.SubmitRequest(req, batch.SubmitOpts{})
			run.SubmitBlocked += time.Since(t0)
			b.rec.end(sub)
			if err == nil {
				err = ticket.Wait()
			}
			b.rec.end(root)
			b.attempted++
			run.Requests++
			if err != nil {
				b.failed++
				run.Failed++
			}
			run.Latencies = append(run.Latencies, time.Since(t0))
		}
	}
	run.Wall = time.Since(start)
	st := bt.Stats()
	if err := checkConservation(st); err != nil {
		return err
	}
	b.batchMetrics(st, run, busy)
	return b.batchOverhead(bt)
}

// instance builds the call-at-a-time form of one serve request, sharing the
// server's operands, so the attribution code serves both kinds of workload.
func (s *server) instance(r serveReq) *instance {
	sh := s.shapes[r.Shape]
	in := &instance{opCase: opCase{Op: r.Op, AR: sh.M, AC: sh.K, BC: sh.N}, A: s.a[r.Shape], B: s.b[r.Shape],
		C: mat.New(sh.M, sh.N), Cb: mat.New(sh.M, sh.N)}
	switch r.Op {
	case op.ATA:
		in.opCase, in.A, in.B = opCase{Op: op.ATA, AR: sh.K, AC: sh.M}, s.b[r.Shape], nil
	case op.MultiplyAdd:
		in.C0 = s.c0[r.Shape]
	}
	return in
}

// serveLayers is the traced pass of serve-mixed: the same stream through a
// Batcher with shipped tracing and through one that samples every request.
func (b *bench) serveLayers(w int, sums *layerSums) error {
	s := newServer(b.wl.Serve, b.cfg.Seed)
	rng := rand.New(rand.NewSource(b.cfg.Seed + 1))
	blocks := 6
	if b.cfg.Tiny {
		blocks = 2
	}
	var stream [][]serveReq
	for i := 0; i < blocks; i++ {
		stream = append(stream, s.shuffled(rng))
	}
	replayStream := func() func() []serveReq {
		i := 0
		return func() []serveReq {
			if i == len(stream) {
				return nil
			}
			i++
			return stream[i-1]
		}
	}

	root := b.rec.begin(0, 0, "workload", "tuner.plan_cold_s")
	bt, cold, err := b.coldBatcher(s, w, trace.Config{}, rng)
	b.rec.end(root)
	if err != nil {
		return err
	}
	defer bt.Close()
	b.set("tuner.plan_cold_s", cold.Seconds())

	var before, after runtime.MemStats
	busy := bt.Stats().BusySeconds
	runtime.ReadMemStats(&before)
	run := s.closedLoop(bt, replayStream(), b.rec)
	runtime.ReadMemStats(&after)
	b.attempted, b.failed = b.attempted+run.Requests, b.failed+run.Failed
	st := bt.Stats()
	if err := checkConservation(st); err != nil {
		return err
	}
	b.checkPools(s)
	b.batchMetrics(st, run, busy)
	b.set("workspace.allocs_per_op", float64(after.Mallocs-before.Mallocs)/float64(run.Requests))

	// Every request sampled, plans resolved from the first Batcher's cache.
	start := time.Now()
	all, err := b.warmBatcher(s, w, trace.Config{Sample: 1}, rng)
	if err != nil {
		return err
	}
	defer all.Close()
	b.set("tuner.plan_warm_disk_s", time.Since(start).Seconds())
	sampled := s.closedLoop(all, replayStream(), nil)
	dropped := int(all.Stats().TraceLost)
	for _, rec := range all.Traces() {
		dropped += rec.Spans.Dropped()
	}

	autoSeconds := map[serveReq]float64{}
	for i, r := range s.distinct() {
		in := s.instance(r)
		m, k, n := in.shape()
		plan, err := bt.PlanForOp(in.Op, m, k, n)
		if err != nil {
			return err
		}
		if autoSeconds[r], err = b.attribute(in, plan, w, bt.Do, sums, run.Requests+i+1); err != nil {
			return err
		}
	}
	// The stream-level difference replaces the per-call one attribute summed.
	sums.traced, sums.auto = sampled.Wall.Seconds(), run.Wall.Seconds()
	sums.spansDropped += dropped
	// The op ratios: the plain Multiply's time on a shape over the op's.
	for r, structured := range autoSeconds {
		if general, ok := autoSeconds[serveReq{op.Multiply, r.Shape}]; ok && r.Op != op.Multiply {
			sums.opRatio[r.Op] = append(sums.opRatio[r.Op], general/structured)
		}
	}
	if err := b.dispatchOverhead(fastmm.AutoOptions{Resources: fastmm.Resources{Workers: w}}); err != nil {
		return err
	}
	return b.batchOverhead(bt)
}
