package costmodel

import (
	"fmt"
	"math"
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

// ExecShape tells the time model how a candidate schedule deploys its
// workers — the scheduler axis of §4 reduced to what affects predicted time.
type ExecShape struct {
	// LeafWorkers is the parallelism inside each leaf gemm call (DFS and
	// HYBRID's deferred phase use all workers; BFS leaves are sequential).
	LeafWorkers int
	// TaskWorkers is the number of concurrently running branch tasks
	// (BFS/HYBRID fan-out; 1 for sequential and DFS traversals).
	TaskWorkers int
	// Balanced marks schedules that smooth the task-count/worker-count
	// mismatch (HYBRID's two-phase split, §4.3): speedup is min(tasks, W)
	// instead of the round-based load balance of plain BFS.
	Balanced bool
}

// TimeEstimate is a predicted wall-clock decomposition for one candidate.
type TimeEstimate struct {
	Seconds    float64 // total predicted time
	MulSeconds float64 // leaf classical multiplications
	AddSeconds float64 // S/T/C addition traffic at the add bandwidth
	LeafDim    int     // effective leaf block dimension used for the rate
}

// PredictTime turns the analytic recurrences into predicted seconds on the
// calibrated machine: leaf gemm flops at the interpolated gemm rate, addition
// reads+writes at the measured add bandwidth, and task parallelism as a
// load-balance factor over the leaf count. Dimensions must satisfy the same
// divisibility requirement as Evaluate.
func (m *Model) PredictTime(p, q, r, steps int, ma Machine, ex ExecShape) (TimeEstimate, error) {
	if !ma.Valid() {
		return TimeEstimate{}, fmt.Errorf("costmodel: machine profile not calibrated")
	}
	c, err := m.Evaluate(p, q, r, steps)
	if err != nil {
		return TimeEstimate{}, err
	}
	b := m.alg.Base
	lp, lq, lr := p, q, r
	for s := 0; s < steps; s++ {
		lp, lq, lr = lp/b.M, lq/b.K, lr/b.N
	}
	leafDim := effectiveDim(lp, lq, lr)

	mulSecs := c.MulFlops / (ma.GemmRateFor(leafDim, ex.LeafWorkers) * 1e9)
	if ex.TaskWorkers > 1 {
		mulSecs /= taskSpeedup(c.BaseCalls, ex.TaskWorkers, ex.Balanced)
	}

	workers := ex.LeafWorkers
	if ex.TaskWorkers > workers {
		workers = ex.TaskWorkers
	}
	addSecs := (c.Reads + c.Writes) * 8 / (ma.AddRate(workers) * 1e9)

	return TimeEstimate{
		Seconds:    mulSecs + addSecs,
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
