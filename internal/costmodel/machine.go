package costmodel

import (
	"fmt"
	"math"

	"fastmm/internal/core"
)

// GemmSample records the measured classical-gemm throughput at one square
// block size: sequentially and at the machine's full worker count. A few of
// these samples capture the ramp-up-then-flat performance curve of Fig. 3
// that the recursion-cutoff decision depends on.
type GemmSample struct {
	N         int     // square problem size measured
	SeqGFLOPS float64 // single-worker rate
	ParGFLOPS float64 // rate at Machine.Workers workers
}

// Machine is a calibration profile: the handful of measured rates that turn
// the analytic flop/IO counts of the cost model into predicted seconds. It is
// produced by internal/tuner's one-time calibration and persisted to disk.
type Machine struct {
	// Workers is the worker count the parallel samples were measured at.
	Workers int
	// Backend names the leaf-kernel backend (a gemm.Backend name) the Gemm
	// curve was measured on: the curve predicts that backend and no other.
	Backend string
	// Gemm holds throughput samples in ascending N order.
	Gemm []GemmSample
	// AddSeqGBps and AddParGBps are the measured STREAM-add bandwidths
	// (GB/s) at one worker and at Workers workers — the rate the matrix
	// additions of the S/T/C phases run at (§4.5's bandwidth wall).
	AddSeqGBps float64
	AddParGBps float64
}

// Valid reports whether the profile has enough data to predict with.
func (ma Machine) Valid() bool {
	return len(ma.Gemm) > 0 && ma.Gemm[0].SeqGFLOPS > 0 && ma.AddSeqGBps > 0
}

// GemmRateFor interpolates the classical-gemm rate (GFLOPS) for a
// square-ish problem of size n run with w workers. Between samples the rate
// is linear in n; above the largest sample it is flat (the post-ramp-up
// plateau); below the smallest sample it decays proportionally to n (packing
// overhead dominates tiny blocks). Worker counts between 1 and Workers
// interpolate linearly between the sequential and parallel curves.
func (ma Machine) GemmRateFor(n, w int) float64 {
	if len(ma.Gemm) == 0 {
		return 0
	}
	seq := interpSamples(ma.Gemm, n, false)
	if w <= 1 || ma.Workers <= 1 {
		return seq
	}
	par := interpSamples(ma.Gemm, n, true)
	if par <= 0 {
		par = seq
	}
	if w >= ma.Workers {
		return par
	}
	frac := float64(w-1) / float64(ma.Workers-1)
	return seq + (par-seq)*frac
}

func interpSamples(samples []GemmSample, n int, parallel bool) float64 {
	rate := func(s GemmSample) float64 {
		if parallel {
			return s.ParGFLOPS
		}
		return s.SeqGFLOPS
	}
	first, last := samples[0], samples[len(samples)-1]
	if n <= first.N {
		// Sub-sample blocks: scale the smallest measured rate down with n.
		return rate(first) * float64(n) / float64(first.N)
	}
	if n >= last.N {
		return rate(last)
	}
	for i := 1; i < len(samples); i++ {
		lo, hi := samples[i-1], samples[i]
		if n <= hi.N {
			t := float64(n-lo.N) / float64(hi.N-lo.N)
			return rate(lo) + (rate(hi)-rate(lo))*t
		}
	}
	return rate(last)
}

// AddRate returns the addition bandwidth (GB/s) available to w workers,
// interpolating between the sequential and full-parallel measurements —
// bandwidth saturates well below the core count (§4.5), which is exactly
// what the two endpoints capture.
func (ma Machine) AddRate(w int) float64 {
	if w <= 1 || ma.Workers <= 1 || ma.AddParGBps <= 0 {
		return ma.AddSeqGBps
	}
	if w >= ma.Workers {
		return ma.AddParGBps
	}
	frac := float64(w-1) / float64(ma.Workers-1)
	return ma.AddSeqGBps + (ma.AddParGBps-ma.AddSeqGBps)*frac
}

// ClassicalTimeFor predicts the seconds one classical p×q×r gemm takes with
// w workers: Equation (3)'s flop count over the interpolated rate at the
// problem's effective (geometric-mean) dimension.
func (ma Machine) ClassicalTimeFor(p, q, r, w int) float64 {
	rate := ma.GemmRateFor(effectiveDim(p, q, r), w)
	if rate <= 0 {
		return math.Inf(1)
	}
	flops := 2*float64(p)*float64(q)*float64(r) - float64(p)*float64(r)
	return flops / (rate * 1e9)
}

// effectiveDim maps a rectangular problem onto the square gemm curve by
// geometric mean — the curve's x axis is "how much reuse a block multiply
// gets", which the geometric mean tracks well enough for ranking.
func effectiveDim(p, q, r int) int {
	g := math.Cbrt(float64(p) * float64(q) * float64(r))
	if g < 1 {
		return 1
	}
	return int(g)
}

// TimeEstimate is a predicted wall-clock decomposition for one candidate.
type TimeEstimate struct {
	Seconds    float64 // total predicted time, peeling fix-ups included
	MulSeconds float64 // leaf classical multiplications
	AddSeconds float64 // S/T/C addition traffic at the add bandwidth
	LeafDim    int     // effective leaf block dimension used for the rate
}

// PredictTime turns the executor's p×q by q×r call into predicted seconds
// on the calibrated machine: the leaf gemm flops of its divisible core's
// walk (see fold) at the interpolated gemm rate, its addition reads+writes
// at the measured add bandwidth, task parallelism as a load-balance factor
// over the leaf count, and the peeled borders as the classical time of the
// whole shape less that of the divisible core. The workers deploy as the
// scheduler the call runs as (core.Executor.RunsAs) puts them, W being the
// executor's Workers: a DFS call gives every leaf gemm all W, BFS runs
// leaves one wide in W concurrent tasks, HYBRID does the same with its
// balanced two-phase split (§4.3), and a sequential call uses one.
func PredictTime(e *core.Executor, p, q, r int, ma Machine) (TimeEstimate, error) {
	if !ma.Valid() {
		return TimeEstimate{}, fmt.Errorf("costmodel: machine profile not calibrated")
	}
	cm, ck, cn := divisibleCore(e, p, q, r)
	c, leaves := fold(e, cm, ck, cn)
	leafDim := effectiveDim(leaves.M, leaves.K, leaves.N)

	o := e.Opts()
	par := e.RunsAs(o.Parallel, p, q, r)
	leafWorkers, taskWorkers := 1, 1
	switch par {
	case core.DFS:
		leafWorkers = o.Workers
	case core.BFS, core.Hybrid:
		taskWorkers = o.Workers
	}
	mulSecs := c.MulFlops / (ma.GemmRateFor(leafDim, leafWorkers) * 1e9)
	if taskWorkers > 1 {
		mulSecs /= taskSpeedup(c.BaseCalls, taskWorkers, par == core.Hybrid)
	}

	workers := max(leafWorkers, taskWorkers)
	addSecs := (c.Reads + c.Writes) * 8 / (ma.AddRate(workers) * 1e9)
	fixSecs := max(0, ma.ClassicalTimeFor(p, q, r, workers)-ma.ClassicalTimeFor(cm, ck, cn, workers))

	return TimeEstimate{
		Seconds:    mulSecs + addSecs + fixSecs,
		MulSeconds: mulSecs,
		AddSeconds: addSecs,
		LeafDim:    leafDim,
	}, nil
}

// taskSpeedup models running `tasks` equal tasks on w workers: a balanced
// schedule achieves min(tasks, w); an unbalanced one pays for the ragged
// last round (7 Strassen tasks on 6 workers take 2 rounds, not 7/6).
func taskSpeedup(tasks float64, w int, balanced bool) float64 {
	if w <= 1 || tasks <= 1 {
		return 1
	}
	wf := float64(w)
	if tasks <= wf {
		return tasks
	}
	if balanced {
		return wf
	}
	return tasks / math.Ceil(tasks/wf)
}
