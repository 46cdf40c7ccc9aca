package main

import (
	"sync"
	"time"

	"fastmm/internal/addchain"
	"fastmm/internal/algo"
	"fastmm/internal/core"
	"fastmm/internal/gemm"
	"fastmm/internal/mat"
	"fastmm/internal/op"
)

// This file prices a plan from outside: it walks the recursion the executor
// would run for one (op, shape) — same peeling, same cutoff, same scheduler
// rules — and lists the calls it would make into the two layers below it,
// gemm (leaf and fix-up products) and mat (S/T/M additions, transposes).
// Replaying the two lists as standalone calls gives gemm.leaf_s and
// mat.add_s; what the executor takes beyond their sum — scheduling, peeling
// bookkeeping, imbalance, idle workers, and the symmetric recursion's own
// transpose and mirror loops — is core.self_s.

type itemKind int

const (
	leafGemm  itemKind = iota // one base-case or fix-up gemm.Dispatch
	leafFused                 // one gemm.DispatchFused product of a fused level
	addS                      // form S_r (mat.Combine / Scale+Axpy)
	addT                      // form T_r
	addC                      // combine the M_r into the C blocks
	addStream                 // streaming formation of a whole S or T family
)

func (k itemKind) isLeaf() bool { return k == leafGemm || k == leafFused }

// item is one replayable call. Width is the workers inside the call; a pooled
// item is a one-wide task of a BFS/HYBRID fan-out, W of which run at a time.
type item struct {
	kind    itemKind
	level   int
	r       int // product index (leafFused, addS, addT); addStream: 0 for S, 1 for T
	m, k, n int // leafGemm: the product's dims; otherwise the level's peeled core
	acc     bool
	width   int
	pooled  bool
}

// walker holds what the walk needs to know about a plan.
type walker struct {
	alg      *algo.Algorithm
	splan    *addchain.Plan
	tplan    *addchain.Plan
	cplan    *addchain.Plan
	steps    int
	minDim   int
	mode     core.Parallel
	strategy addchain.Strategy
	fused    bool
	workers  int
	be       gemm.Backend

	items   []item
	leafIdx int
	dims    [][3]int // per level: the largest peeled core p, q, r any item works on
}

func newWalker(a *algo.Algorithm, o core.Options, be gemm.Backend) *walker {
	return &walker{
		alg: a, splan: addchain.FromColumns(a.U), tplan: addchain.FromColumns(a.V), cplan: addchain.FromRows(a.W),
		steps: o.Steps, minDim: 128, mode: o.Parallel, strategy: o.Strategy,
		fused: o.Fused && gemm.CanFuse(be), workers: max(o.Workers, 1), be: be,
	}
}

func (w *walker) parallel() bool { return w.mode != core.Sequential }
func (w *walker) tasks() bool    { return w.mode == core.BFS || w.mode == core.Hybrid }

func (w *walker) recurse(level, p, q, r int) bool {
	b := w.alg.Base
	return p >= b.M && q >= b.K && r >= b.N && level < w.steps
}

// totalLeaves is R^steps, HYBRID's load-balance denominator.
func (w *walker) totalLeaves() int {
	n := 1
	for l := 0; l < w.steps; l++ {
		n *= w.alg.Rank()
	}
	return n
}

func (w *walker) emit(it item) { w.items = append(w.items, it) }

// walkOp lists the calls of one operation on its gemm-equivalent triple.
func (w *walker) walkOp(o op.Op, m, k, n int) {
	if o.Symmetric() {
		if w.mode == core.Hybrid {
			w.mode = core.BFS // the executor degrades HYBRID for the symmetric recursion
		}
		w.sym(m, k)
		return
	}
	w.multiply(0, m, k, n, o == op.MultiplyAdd, false)
}

// addWidth is the width of S/T additions and transposes: DFS parallelises
// them, every other scheduler runs them inside the current task.
func (w *walker) addWidth() int {
	if w.mode == core.DFS {
		return w.workers
	}
	return 1
}

// sym mirrors core's symRecurse: diagonal blocks recurse, the lower
// off-diagonal block is a general multiply, the upper is its mirror.
func (w *walker) sym(p, q int) {
	if p < 2*w.minDim || p < 2 {
		width := 1
		if w.mode == core.DFS {
			width = w.workers
		}
		w.emit(item{kind: leafGemm, m: p, k: q, n: p, width: width})
		return
	}
	h := p / 2
	w.sym(h, q)
	w.sym(p-h, q)
	w.leafIdx = 0
	w.multiply(0, p-h, q, h, false, false)
}

// multiply mirrors core's multiply/fastStep for a p×q by q×r product at one
// recursion level. inTask says the call already runs inside a spawned task.
func (w *walker) multiply(level, p, q, r int, acc, inTask bool) {
	if !w.recurse(level, p, q, r) {
		w.leaf(p, q, r, acc)
		return
	}
	b := w.alg.Base
	R := w.alg.Rank()
	pc, qc, rc := p-p%b.M, q-q%b.K, r-r%b.N
	bm, bk, bn := pc/b.M, qc/b.K, rc/b.N
	for len(w.dims) <= level {
		w.dims = append(w.dims, [3]int{})
	}
	d := &w.dims[level]
	d[0], d[1], d[2] = max(d[0], pc), max(d[1], qc), max(d[2], rc)
	proto := item{level: level, m: pc, k: qc, n: rc, acc: acc}
	emit := func(kind itemKind, i, width int, pooled bool) {
		it := proto
		it.kind, it.r, it.width, it.pooled = kind, i, width, pooled
		w.emit(it)
	}
	top := level == 0
	wide := w.mode == core.DFS || (top && w.parallel())

	switch {
	case w.fused && !w.recurse(level+1, bm, bk, bn):
		width := 1
		if wide {
			width = w.workers
		}
		for i := 0; i < R; i++ {
			emit(leafFused, i, width, !wide && w.tasks())
		}
	default:
		streaming := w.strategy == addchain.Streaming
		if streaming {
			emit(addStream, 0, w.addWidth(), inTask)
			emit(addStream, 1, w.addWidth(), inTask) // r = 1 marks the T family
		}
		spawn := w.tasks()
		for i := 0; i < R; i++ {
			if !streaming {
				emit(addS, i, w.addWidth(), spawn || inTask)
				emit(addT, i, w.addWidth(), spawn || inTask)
			}
			w.multiply(level+1, bm, bk, bn, false, spawn || inTask)
		}
		width := 1
		if wide {
			width = w.workers
		}
		emit(addC, 0, width, w.tasks() && !top)
	}

	// Dynamic peeling: the borders are classical products. Top-level fix-ups
	// run outside the task tree at full width; deeper ones inside their task.
	fix := func(m, k, n int, acc bool) {
		it := item{kind: leafGemm, m: m, k: k, n: n, acc: acc, width: 1}
		switch {
		case w.mode == core.DFS, top && w.parallel():
			it.width = w.workers
		case w.tasks():
			it.pooled = true
		}
		w.emit(it)
	}
	if qc < q {
		fix(pc, q-qc, rc, true)
	}
	if rc < r {
		fix(pc, qc, r-rc, acc)
		if qc < q {
			fix(pc, q-qc, r-rc, true)
		}
	}
	if pc < p {
		fix(p-pc, q, r, acc)
	}
}

// leaf mirrors core's leafMultiply: one gemm whose width the scheduler sets.
func (w *walker) leaf(p, q, r int, acc bool) {
	it := item{kind: leafGemm, m: p, k: q, n: r, acc: acc, width: 1}
	switch w.mode {
	case core.DFS:
		it.width = w.workers
	case core.BFS:
		it.pooled = true
	case core.Hybrid:
		// Leaves past the balanced prefix run afterwards with all workers.
		total := w.totalLeaves()
		if cut := total - total%w.workers; w.leafIdx >= cut {
			it.width = w.workers
		} else {
			it.pooled = true
		}
	}
	w.leafIdx++
	w.emit(it)
}

// scratch is one worker's replay buffers: per recursion level an A, B and C
// as large as any core the level works on, the M_r and the S/T destinations;
// plus leaf operands la (m×k), lb (k×n) and lc (m×n) large enough for every
// leaf. Buffers hold arbitrary finite values — the replay measures time, not
// results.
type scratch struct {
	levels     []levelBufs
	la, lb, lc *mat.Dense
}

type levelBufs struct {
	a, b, c    *mat.Dense
	ms         []*mat.Dense
	sfam, tfam []*mat.Dense // S_r / T_r destinations (one each unless streaming)
}

// blocksOf cuts the top-left rows×cols of m into an mb×nb grid of views.
func blocksOf(m *mat.Dense, rows, cols, mb, nb int) []*mat.Dense {
	rb, cb := rows/mb, cols/nb
	out := make([]*mat.Dense, 0, mb*nb)
	for i := 0; i < mb; i++ {
		for j := 0; j < nb; j++ {
			out = append(out, m.View(i*rb, j*cb, rb, cb))
		}
	}
	return out
}

// corners returns the top-left rows×cols view of every matrix in ms.
func corners(ms []*mat.Dense, rows, cols int) []*mat.Dense {
	out := make([]*mat.Dense, len(ms))
	for i, m := range ms {
		out[i] = m.View(0, 0, rows, cols)
	}
	return out
}

func filled(r, c int) *mat.Dense {
	m := mat.New(r, c)
	m.Fill(0.5)
	return m
}

func (w *walker) newScratch() *scratch {
	s := &scratch{}
	b := w.alg.Base
	R := w.alg.Rank()
	var lm, lk, ln int
	for _, it := range w.items {
		if it.kind == leafGemm {
			lm, lk, ln = max(lm, it.m), max(lk, it.k), max(ln, it.n)
		}
	}
	for _, d := range w.dims {
		pc, qc, rc := d[0], d[1], d[2]
		bm, bk, bn := pc/b.M, qc/b.K, rc/b.N
		lv := levelBufs{a: filled(pc, qc), b: filled(qc, rc), c: filled(pc, rc)}
		for r := 0; r < R; r++ {
			lv.ms = append(lv.ms, filled(bm, bn))
		}
		fam := 1
		if w.strategy == addchain.Streaming {
			fam = R
		}
		for r := 0; r < fam; r++ {
			lv.sfam = append(lv.sfam, filled(bm, bk))
			lv.tfam = append(lv.tfam, filled(bk, bn))
		}
		s.levels = append(s.levels, lv)
	}
	if lm > 0 {
		s.la, s.lb, s.lc = filled(lm, lk), filled(lk, ln), filled(lm, ln)
	}
	return s
}

// rowSplit runs f over `width` row slabs concurrently, like core's parCombine.
func rowSplit(rows, width int, f func(lo, n int)) {
	if width <= 1 || rows < 128 {
		f(0, rows)
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < width; i++ {
		lo, hi := i*rows/width, (i+1)*rows/width
		if hi > lo {
			wg.Add(1)
			go func() {
				defer wg.Done()
				f(lo, hi-lo)
			}()
		}
	}
	wg.Wait()
}

// formChain replays one addition chain into dst under the plan's strategy.
func (w *walker) formChain(dst *mat.Dense, ch addchain.Chain, src []*mat.Dense, width int, acc bool) {
	rowSplit(dst.Rows(), width, func(lo, n int) {
		d := dst.View(lo, 0, n, dst.Cols())
		views := make([]*mat.Dense, len(ch.Terms))
		coeffs := make([]float64, len(ch.Terms))
		for i, t := range ch.Terms {
			views[i], coeffs[i] = src[t.Src].View(lo, 0, n, dst.Cols()), t.Coeff
		}
		switch {
		case acc:
			for i := range views {
				mat.Axpy(d, coeffs[i], views[i])
			}
		case w.strategy == addchain.WriteOnce:
			mat.Combine(d, coeffs, views)
		default: // pairwise, and streaming's scatter: one scale then axpys
			mat.Scale(d, coeffs[0], views[0])
			for i := 1; i < len(views); i++ {
				mat.Axpy(d, coeffs[i], views[i])
			}
		}
	})
}

// materialized reports whether the executor forms the chain in a buffer
// rather than aliasing a scaled source block.
func materialized(ch addchain.Chain) bool { return len(ch.Terms) > 1 }

// run replays one item on a worker's scratch.
func (w *walker) run(it item, s *scratch) {
	if it.kind == leafGemm {
		a, b, c := s.la.View(0, 0, it.m, it.k), s.lb.View(0, 0, it.k, it.n), s.lc.View(0, 0, it.m, it.n)
		gemm.Dispatch(w.be, c, 1, a, b, it.acc, it.width)
		return
	}
	base := w.alg.Base
	lv := s.levels[it.level]
	bm, bk, bn := it.m/base.M, it.k/base.K, it.n/base.N
	ab := blocksOf(lv.a, it.m, it.k, base.M, base.K)
	bb := blocksOf(lv.b, it.k, it.n, base.K, base.N)
	cb := blocksOf(lv.c, it.m, it.n, base.M, base.N)
	switch it.kind {
	case leafFused:
		var as, bs, cs []mat.Scaled
		for _, t := range w.splan.Outputs[it.r].Terms {
			as = append(as, mat.Scaled{M: ab[t.Src], Coeff: t.Coeff})
		}
		for _, t := range w.tplan.Outputs[it.r].Terms {
			bs = append(bs, mat.Scaled{M: bb[t.Src], Coeff: t.Coeff})
		}
		for j, ch := range w.cplan.Outputs {
			for _, t := range ch.Terms {
				if t.Src == it.r {
					cs = append(cs, mat.Scaled{M: cb[j], Coeff: t.Coeff})
				}
			}
		}
		gemm.DispatchFused(w.be, cs, 1, as, bs, true, it.width)
	case addS:
		if ch := w.splan.Outputs[it.r]; materialized(ch) {
			w.formChain(lv.sfam[0].View(0, 0, bm, bk), ch, ab, it.width, false)
		}
	case addT:
		if ch := w.tplan.Outputs[it.r]; materialized(ch) {
			w.formChain(lv.tfam[0].View(0, 0, bk, bn), ch, bb, it.width, false)
		}
	case addStream:
		plan, src, fam := w.splan, ab, corners(lv.sfam, bm, bk)
		if it.r == 1 {
			plan, src, fam = w.tplan, bb, corners(lv.tfam, bk, bn)
		}
		for r, ch := range plan.Outputs {
			if materialized(ch) {
				w.formChain(fam[r], ch, src, it.width, false)
			}
		}
	case addC:
		ms := corners(lv.ms, bm, bn)
		for j, ch := range w.cplan.Outputs {
			if len(ch.Terms) > 0 {
				w.formChain(cb[j], ch, ms, it.width, it.acc)
			}
		}
	}
}

// replay runs the items of one kind class — leaves or additions — and returns
// the time they took: wide items one after another, each stretch of pooled
// items W at a time. Items of the other class are skipped, so the two classes
// are timed apart and do not contend with each other as they may in a real
// BFS fan-out.
func (w *walker) replay(leaves bool, pool []*scratch) time.Duration {
	var total time.Duration
	var batch []item
	flush := func() {
		if len(batch) == 0 {
			return
		}
		start := time.Now()
		next := make(chan item)
		var wg sync.WaitGroup
		for _, s := range pool {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for it := range next {
					w.run(it, s)
				}
			}()
		}
		for _, it := range batch {
			next <- it
		}
		close(next)
		wg.Wait()
		total += time.Since(start)
		batch = batch[:0]
	}
	for _, it := range w.items {
		if it.kind.isLeaf() != leaves {
			continue
		}
		if it.pooled {
			batch = append(batch, it)
			continue
		}
		flush()
		start := time.Now()
		w.run(it, pool[0])
		total += time.Since(start)
	}
	flush()
	return total
}

// leafFlops is the Eq. 3 flop count of the leaf and fix-up products.
func (w *walker) leafFlops() (flops float64, calls int) {
	b := w.alg.Base
	for _, it := range w.items {
		switch it.kind {
		case leafGemm:
			flops += eq3(it.m, it.k, it.n)
			calls++
		case leafFused:
			flops += eq3(it.m/b.M, it.k/b.K, it.n/b.N)
			calls++
		}
	}
	return flops, calls
}
