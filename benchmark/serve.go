package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"fastmm"
	"fastmm/internal/batch"
	"fastmm/internal/gemm"
	"fastmm/internal/mat"
	"fastmm/internal/op"
	"fastmm/internal/trace"
)

// window is how many requests the one generator keeps outstanding: the
// Batcher's default QueueDepth at W = 2, so the closed loop fills the queue
// without blocking in Submit.
const window = 8

// batcherShare is the part of serve-mixed's timed phase the Batcher serves;
// the classical replay takes the rest.
const batcherShare = 0.75

// serveReq is one request of the stream: an op on one line of the block.
type serveReq struct {
	Op    op.Op
	Shape int
}

// server owns the serve-mixed inputs: per-shape operands and, per (op,
// shape), a pool of outputs so concurrent requests never share a C and every
// distinct (op, shape) leaves an output for the oracle.
type server struct {
	shapes []serveShape
	block  []serveReq
	a, b   []*mat.Dense // a[i] is M×K; b[i] is K×N and, since M = N, also ATA's operand
	c0     []*mat.Dense // C before a MultiplyAdd

	mu    sync.Mutex
	pools map[serveReq][]*mat.Dense
}

func newServer(shapes []serveShape, seed int64) *server {
	rng := rand.New(rand.NewSource(seed))
	s := &server{shapes: shapes, pools: map[serveReq][]*mat.Dense{}}
	for i, sh := range shapes {
		a, b, c0 := mat.New(sh.M, sh.K), mat.New(sh.K, sh.N), mat.New(sh.M, sh.N)
		a.FillRandom(rng)
		b.FillRandom(rng)
		c0.FillRandom(rng)
		s.a, s.b, s.c0 = append(s.a, a), append(s.b, b), append(s.c0, c0)
		for _, oc := range []struct {
			op op.Op
			n  int
		}{{op.Multiply, sh.Mul}, {op.ATA, sh.ATA}, {op.MultiplyAdd, sh.MAdd}} {
			for j := 0; j < oc.n; j++ {
				s.block = append(s.block, serveReq{oc.op, i})
			}
		}
	}
	return s
}

// shuffled returns one block of the stream: the fixed multiset in a seeded
// order, so every seed serves exactly the same mix of work.
func (s *server) shuffled(rng *rand.Rand) []serveReq {
	blk := append([]serveReq(nil), s.block...)
	rng.Shuffle(len(blk), func(i, j int) { blk[i], blk[j] = blk[j], blk[i] })
	return blk
}

// distinct lists each (op, shape) of the block once, in a fixed order.
func (s *server) distinct() []serveReq {
	seen := map[serveReq]bool{}
	var out []serveReq
	for _, r := range s.block {
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	return out
}

func (s *server) take(r serveReq) *mat.Dense {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p := s.pools[r]; len(p) > 0 {
		c := p[len(p)-1]
		s.pools[r] = p[:len(p)-1]
		return c
	}
	return mat.New(s.shapes[r.Shape].M, s.shapes[r.Shape].N)
}

func (s *server) give(r serveReq, c *mat.Dense) {
	s.mu.Lock()
	s.pools[r] = append(s.pools[r], c)
	s.mu.Unlock()
}

// request builds r's call into c, as a client preparing its buffers would.
func (s *server) request(r serveReq, c *mat.Dense) op.Request {
	switch r.Op {
	case op.ATA:
		return op.Request{Op: op.ATA, C: c, A: s.b[r.Shape]}
	case op.MultiplyAdd:
		c.CopyFrom(s.c0[r.Shape])
	}
	return op.Request{Op: r.Op, C: c, A: s.a[r.Shape], B: s.b[r.Shape]}
}

func (s *server) flops(r serveReq) float64 {
	sh := s.shapes[r.Shape]
	return eq3(sh.M, sh.K, sh.N)
}

// serveRun is the outcome of one pass of a stream through a Batcher.
type serveRun struct {
	Requests      int
	Failed        int
	Flops         float64
	Wall          time.Duration
	SubmitBlocked time.Duration
	Latencies     []time.Duration // submit → callback; a failed request reads as Wall
}

// pending is one in-flight request; the callback fills it.
type pending struct {
	submitted time.Time
	latency   time.Duration
	err       error
}

// closedLoop keeps window requests outstanding until next returns nil: the
// generator submits a request only when a completion frees a slot, and the
// completion is time-stamped in the callback.
func (s *server) closedLoop(bt *batch.Batcher, next func() []serveReq, rec *recorder) serveRun {
	slots := make(chan struct{}, window) // the callback's send never blocks: one token per slot
	for i := 0; i < window; i++ {
		slots <- struct{}{}
	}
	var run serveRun
	var all []*pending
	start := time.Now()
	for blk := next(); blk != nil; blk = next() {
		for _, r := range blk {
			<-slots
			c, p := s.take(r), &pending{}
			req := s.request(r, c)
			all = append(all, p)
			run.Flops += s.flops(r)
			root := rec.begin(0, len(all), "workload", "request "+r.Op.String())
			sub := rec.begin(root, len(all), "batch", "Batcher.SubmitRequest")
			p.submitted = time.Now()
			_, err := bt.SubmitRequest(req, batch.SubmitOpts{Lane: s.shapes[r.Shape].Lane, Callback: func(err error) {
				p.latency, p.err = time.Since(p.submitted), err
				rec.end(root)
				s.give(r, c)
				slots <- struct{}{}
			}})
			run.SubmitBlocked += time.Since(p.submitted)
			rec.end(sub)
			if err != nil { // refused at submit: no callback will come
				p.err = err
				rec.end(root)
				s.give(r, c)
				slots <- struct{}{}
			}
		}
	}
	for i := 0; i < window; i++ {
		<-slots
	}
	run.Wall = time.Since(start)
	run.Requests = len(all)
	for _, p := range all {
		if p.err != nil {
			run.Failed++
			p.latency = run.Wall
		}
		run.Latencies = append(run.Latencies, p.latency)
	}
	return run
}

// classicalLoop is the baseline: the same stream through a one-at-a-time
// loop of classical calls at w workers.
func (s *server) classicalLoop(stream []serveReq, w int) time.Duration {
	be := gemm.Default()
	start := time.Now()
	for _, r := range stream {
		c := s.take(r)
		classical(be, s.request(r, c), w)
		s.give(r, c)
	}
	return time.Since(start)
}

// coldBatcher is the serving set-up: a fresh tuning cache, the Batcher with
// its calibration, one synchronous call per distinct (op, shape), and one
// block through the closed loop, which tunes the narrower widths the warm
// pool keeps for a loaded queue.
func (b *bench) coldBatcher(s *server, w int, tr trace.Config, rng *rand.Rand) (*batch.Batcher, time.Duration, error) {
	if _, err := freshTuneCache(b.tmp); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	bt, err := b.warmBatcher(s, w, tr, rng)
	return bt, time.Since(start), err
}

// warmBatcher is coldBatcher against whatever tuning cache is current.
func (b *bench) warmBatcher(s *server, w int, tr trace.Config, rng *rand.Rand) (*batch.Batcher, error) {
	bt, err := fastmm.NewBatcher(fastmm.BatchOptions{Resources: fastmm.Resources{Workers: w}, Trace: tr})
	if err != nil {
		return nil, err
	}
	for _, r := range s.distinct() {
		c := s.take(r)
		err := bt.Do(s.request(r, c))
		s.give(r, c)
		if err != nil {
			bt.Close()
			return nil, fmt.Errorf("set-up %s on shape %d: %w", r.Op, r.Shape, err)
		}
	}
	if run := s.closedLoop(bt, once(s.shuffled(rng)), nil); run.Failed > 0 {
		bt.Close()
		return nil, fmt.Errorf("set-up block: %d of %d requests failed", run.Failed, run.Requests)
	}
	return bt, nil
}

// once yields blk, then nil.
func once(blk []serveReq) func() []serveReq {
	return func() []serveReq {
		out := blk
		blk = nil
		return out
	}
}

// checkConservation asserts the Batcher.Stats invariant at quiescence.
func checkConservation(st batch.Stats) error {
	for _, l := range st.Lanes {
		if l.Submitted != l.Done+l.Expired+l.Rejected+l.Queued+l.Executing ||
			l.QueueWait.Count != l.Done || l.Service.Count != l.Done {
			return fmt.Errorf("batcher stats do not conserve on lane %s: %+v", l.Lane, l)
		}
	}
	return nil
}

// checkPools runs the oracle over the latest output of every (op, shape).
func (b *bench) checkPools(s *server) {
	tol := tolerance()
	for i, r := range s.distinct() {
		s.mu.Lock()
		pool := s.pools[r]
		s.mu.Unlock()
		if len(pool) == 0 {
			continue
		}
		c := pool[len(pool)-1]
		req := op.Request{Op: r.Op, C: c, A: s.a[r.Shape], B: s.b[r.Shape]}
		if r.Op == op.ATA {
			req.A, req.B = s.b[r.Shape], nil
		}
		sh := s.shapes[r.Shape]
		what := fmt.Sprintf("%s %dx%dx%d", r.Op, sh.M, sh.K, sh.N)
		b.recordOracle(what, checkOutput(req, s.c0[r.Shape], b.cfg.Seed+int64(i), tol), tol)
	}
}

// serveEndToEnd is the untraced pass of serve-mixed. As in callsEndToEnd, a
// run makes several cold set-ups and each one's Batcher serves an equal share
// of the timed phase, so the numbers average over the tuner's run-to-run
// choice of plans. After each share the classical loop replays the first
// blocks of that share's stream, so drift hits both alike; every block is the
// same multiset and the loop has no queue, so a third of the blocks prices
// them all, and the Batcher — whose queue needs time to fill and drain — gets
// most of the phase.
func (b *bench) serveEndToEnd() error {
	w := b.env.W
	s := newServer(b.wl.Serve, b.cfg.Seed)
	rng := rand.New(rand.NewSource(b.cfg.Seed + 1))
	draws := b.setupReps()

	var setups []time.Duration
	var total serveRun
	var classicalWall time.Duration
	var classicalBlocks int
	var misses int64
	for j := 0; j < draws; j++ {
		bt, d, err := b.coldBatcher(s, w, trace.Config{}, rng)
		if err != nil {
			return err
		}
		setups = append(setups, d)
		s.closedLoop(bt, once(s.shuffled(rng)), nil) // untimed warm-up block
		before := bt.Stats().WarmMisses

		var stream []serveReq
		start := time.Now()
		blocks := 0
		run := s.closedLoop(bt, func() []serveReq {
			if blocks*draws >= b.minReps() && time.Since(start).Seconds()*float64(draws) >= batcherShare*b.cfg.Seconds {
				return nil
			}
			blocks++
			blk := s.shuffled(rng)
			stream = append(stream, blk...)
			return blk
		}, nil)
		st := bt.Stats()
		err = bt.Close()
		if err == nil {
			err = checkConservation(st)
		}
		if err != nil {
			return err
		}
		b.checkPools(s)
		replayed := max(2, blocks/3)
		classicalBlocks += replayed
		classicalWall += s.classicalLoop(stream[:replayed*len(s.block)], w)

		misses += st.WarmMisses - before
		b.detailList("shares", map[string]any{"blocks": blocks, "wall_s": run.Wall.Seconds(),
			"ops_s": float64(run.Requests) / run.Wall.Seconds(), "latency": summarize(run.Latencies)})
		b.env.Repetitions += blocks
		total.Requests += run.Requests
		total.Failed += run.Failed
		total.Flops += run.Flops
		total.Wall += run.Wall
		total.Latencies = append(total.Latencies, run.Latencies...)
		runtime.GC() // the closed Batcher's warm pool goes before the next cold start
	}
	b.attempted += total.Requests
	b.failed += total.Failed
	// Scale the replayed blocks' time to the whole stream's.
	classicalWall = time.Duration(float64(classicalWall) * float64(b.env.Repetitions) / float64(classicalBlocks))

	ls := summarize(total.Latencies)
	b.detail["setup_s"] = seconds(setups)
	b.detail["latency"] = ls
	b.detail["batcher_wall_s"] = total.Wall.Seconds()
	b.detail["classical_wall_s"] = classicalWall.Seconds()
	b.detail["warm_misses_in_timed_phase"] = misses

	b.set("setup_s", medianDuration(setups).Seconds())
	b.set("eff_gflops", total.Flops/total.Wall.Seconds()/1e9)
	b.set("classical_gflops", total.Flops/classicalWall.Seconds()/1e9)
	b.set("speedup_vs_classical", classicalWall.Seconds()/total.Wall.Seconds())
	b.set("throughput_ops_s", float64(total.Requests)/total.Wall.Seconds())
	b.set("latency_p50_ms", ls.Median*1e3)
	b.set("latency_p95_ms", ls.P95*1e3)
	return nil
}
