package main

import (
	"fmt"

	"fastmm/internal/batch"
	"fastmm/internal/op"
)

// metricDef is one named metric. BENCHMARK.json at the repository root
// carries the same tables; the smoke test holds the two together.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: allowed worsening as a share of the base median
}

// endToEnd is what a user of the library sees, measured with tracing off and
// every program option at its shipped default except Workers. The bounds are
// what the measured run-to-run spread supports while the tuner's choice of
// plan varies between cold starts; README.md has the measurements.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"eff_gflops", "GFLOPS", "higher", 0.25},
	{"classical_gflops", "GFLOPS", "higher", 0.15},
	{"speedup_vs_classical", "ratio", "higher", 0.25},
	{"throughput_ops_s", "ops/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p95_ms", "ms", "lower", 0.25},
}

// perLayer is the outside-in attribution of the traced pass, one group per
// module of the repository. A metric of a layer the workload does not enter
// (op.* without a structured op) reads 0.
var perLayer = []metricDef{
	{Name: "gemm.kernel_peak_gflops", Unit: "GFLOPS", Better: "higher"},
	{Name: "gemm.leaf_calls", Unit: "count", Better: "lower"},
	{Name: "gemm.leaf_s", Unit: "s", Better: "lower"},
	{Name: "gemm.leaf_gflops", Unit: "GFLOPS", Better: "higher"},
	{Name: "gemm.leaf_frac_peak", Unit: "ratio", Better: "higher"},
	{Name: "gemm.classical_frac_peak", Unit: "ratio", Better: "higher"},
	{Name: "gemm.par_efficiency", Unit: "ratio", Better: "higher"},
	{Name: "gemm.small_call_us", Unit: "us", Better: "lower"},

	{Name: "mat.add_bytes_computed", Unit: "MB", Better: "lower"},
	{Name: "mat.add_s", Unit: "s", Better: "lower"},
	{Name: "mat.add_gbs", Unit: "GB/s", Better: "higher"},
	{Name: "mat.add_share", Unit: "share", Better: "lower"},

	{Name: "stream.triad_gbs_1w", Unit: "GB/s", Better: "higher"},
	{Name: "stream.triad_gbs_Ww", Unit: "GB/s", Better: "higher"},
	{Name: "stream.add_gbs_1w", Unit: "GB/s", Better: "higher"},
	{Name: "stream.add_gbs_Ww", Unit: "GB/s", Better: "higher"},

	{Name: "core.build_s", Unit: "s", Better: "lower"},
	{Name: "core.exec_s", Unit: "s", Better: "lower"},
	{Name: "core.self_s", Unit: "s", Better: "lower"},
	{Name: "core.par_efficiency", Unit: "ratio", Better: "higher"},
	{Name: "core.tasks_spawned", Unit: "count", Better: "lower"},
	{Name: "core.fixup_calls", Unit: "count", Better: "lower"},
	{Name: "core.fused_calls", Unit: "count", Better: "higher"},
	{Name: "core.deferred_leaves", Unit: "count", Better: "lower"},
	{Name: "core.fast_vs_classical", Unit: "ratio", Better: "higher"},

	{Name: "op.ata_vs_multiply", Unit: "ratio", Better: "higher"},
	{Name: "op.syrk_vs_multiply", Unit: "ratio", Better: "higher"},
	{Name: "op.multiplyadd_vs_multiply", Unit: "ratio", Better: "higher"},

	{Name: "workspace.predicted_mb", Unit: "MB", Better: "lower"},
	{Name: "workspace.retained_mb", Unit: "MB", Better: "lower"},
	{Name: "workspace.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "workspace.peak_rss_mb", Unit: "MB", Better: "lower"},

	{Name: "tuner.calibrate_s", Unit: "s", Better: "lower"},
	{Name: "tuner.plan_cold_s", Unit: "s", Better: "lower"},
	{Name: "tuner.plan_warm_disk_s", Unit: "s", Better: "lower"},
	{Name: "tuner.dispatch_overhead_us", Unit: "us", Better: "lower"},
	{Name: "tuner.regret", Unit: "ratio", Better: "lower"},
	{Name: "tuner.worse_than_classical_share", Unit: "share", Better: "lower"},
	{Name: "tuner.predicted_over_measured", Unit: "ratio", Better: "lower"},

	{Name: "batch.submitted", Unit: "count", Better: "higher"},
	{Name: "batch.done", Unit: "count", Better: "higher"},
	{Name: "batch.failed", Unit: "count", Better: "lower"},
	{Name: "batch.expired", Unit: "count", Better: "lower"},
	{Name: "batch.rejected", Unit: "count", Better: "lower"},
	{Name: "batch.queue_wait_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "batch.queue_wait_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "batch.queue_wait_p95_ms.high", Unit: "ms", Better: "lower"},
	{Name: "batch.service_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "batch.latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "batch.warm_hit_rate", Unit: "share", Better: "higher"},
	{Name: "batch.warm_entries", Unit: "count", Better: "lower"},
	{Name: "batch.busy_share", Unit: "share", Better: "higher"},
	{Name: "batch.submit_block_s", Unit: "s", Better: "lower"},
	{Name: "batch.overhead_us", Unit: "us", Better: "lower"},

	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
	{Name: "trace.spans_dropped", Unit: "count", Better: "lower"},

	{Name: "stability.rel_err_max", Unit: "ratio", Better: "lower"},
	{Name: "stability.checked_entries", Unit: "count", Better: "higher"},

	{Name: "failed_share", Unit: "share", Better: "lower"},
}

// opCase is one operation at one operand shape: A is AR×AC and, for the
// binary ops, B is AC×BC.
type opCase struct {
	Op         op.Op
	AR, AC, BC int
	Alpha      float64 // 0 means 1
}

// shape is the gemm-equivalent triple the tuner plans and Eq. 3 prices.
func (c opCase) shape() (m, k, n int) { return c.Op.Shape(c.AR, c.AC, c.BC) }

func (c opCase) String() string {
	m, k, n := c.shape()
	return fmt.Sprintf("%s %dx%dx%d", c.Op, m, k, n)
}

// serveShape is one line of the serve-mixed block: a gemm-equivalent shape
// with m = n (so ATA applies to every line), its lane, and how many requests
// of each op one 40-request block draws from it.
type serveShape struct {
	M, K, N        int
	Lane           batch.Lane
	Mul, ATA, MAdd int
}

// workload is one set of inputs. Exactly one of Cases and Serve is set.
type workload struct {
	Name string
	Why  string
	// Sequential runs the workload at one worker; otherwise at W.
	Sequential bool
	Cases      []opCase
	Serve      []serveShape
}

func (w workload) workers(W int) int {
	if w.Sequential {
		return 1
	}
	return W
}

func mul(m, k, n int) opCase { return opCase{Op: op.Multiply, AR: m, AC: k, BC: n} }

// workloads returns the four named workloads at full size, or shrunk to
// smoke-test size. Shapes are the issue's, cut by its own rule (repetitions
// first, then the largest shape of a family) until ten cold set-ups and
// ninety-odd runs fit the driver's time cap on the 2-core dev box; README.md
// lists what was cut.
func workloads(tiny bool) []workload {
	ws := []workload{
		{
			Name:       "square-seq",
			Why:        "Paper Fig. 1/5: sequential Auto on squares; the leaf gemm is >= 90% of wall and nothing schedules, so a gemm change shows here and a batch or scheduler change must not.",
			Sequential: true,
			Cases:      []opCase{mul(1024, 1024, 1024), mul(1280, 1280, 1280)},
		},
		{
			Name: "shapes-par",
			Why:  "Paper Figs. 6-7: W-worker Auto on a square, an outer-product and an off-grid tall-skinny shape; additions and schedulers weigh most on the thin shapes, peeling on the off-grid one.",
			Cases: []opCase{
				mul(1280, 1280, 1280),
				mul(2560, 320, 2560),
				mul(2500, 625, 625),
			},
		},
		{
			Name: "structured-par",
			Why:  "AtA, Syrk and MultiplyAdd through the same core/gemm layers against the classical form of the same op; a gain for overwrite-Multiply that costs the structured ops shows here.",
			Cases: []opCase{
				{Op: op.ATA, AR: 2048, AC: 1024},
				{Op: op.Syrk, AR: 768, AC: 1536},
				{Op: op.MultiplyAdd, AR: 1280, AC: 1280, BC: 1280, Alpha: -1},
			},
		},
		{
			Name: "serve-mixed",
			Why:  "Closed loop of 8 outstanding mixed-op requests through a Batcher on three lanes; the only workload where the queue, the warm pool and warm dispatch do measurable work.",
			Serve: []serveShape{
				{96, 96, 96, batch.LaneHigh, 4, 0, 1},
				{128, 256, 128, batch.LaneHigh, 4, 0, 1},
				{200, 200, 200, batch.LaneHigh, 3, 1, 1},
				{256, 256, 256, batch.LaneHigh, 3, 1, 1},
				{384, 128, 384, batch.LaneHigh, 3, 0, 1},
				{320, 320, 320, batch.LaneHigh, 3, 0, 1},
				{512, 512, 512, batch.LaneNormal, 2, 1, 0},
				{768, 256, 768, batch.LaneNormal, 2, 0, 1},
				{640, 640, 640, batch.LaneNormal, 1, 1, 0},
				{500, 1000, 500, batch.LaneNormal, 2, 0, 0},
				{1024, 1024, 1024, batch.LaneLow, 1, 0, 1},
			},
		},
	}
	if !tiny {
		return ws
	}
	ws[0].Cases = []opCase{mul(160, 160, 160)}
	ws[1].Cases = []opCase{mul(192, 192, 192), mul(300, 75, 75)}
	ws[2].Cases = []opCase{
		{Op: op.ATA, AR: 320, AC: 160},
		{Op: op.Syrk, AR: 160, AC: 320},
		{Op: op.MultiplyAdd, AR: 160, AC: 160, BC: 160, Alpha: -1},
	}
	ws[3].Serve = []serveShape{
		{48, 48, 48, batch.LaneHigh, 4, 1, 1},
		{96, 64, 96, batch.LaneNormal, 2, 0, 1},
		{160, 160, 160, batch.LaneLow, 1, 0, 0},
	}
	return ws
}

func findWorkload(name string, tiny bool) (workload, bool) {
	for _, w := range workloads(tiny) {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}
