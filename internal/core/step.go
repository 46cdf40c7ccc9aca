package core

import (
	"sync"

	"fastmm/internal/addchain"
	"fastmm/internal/algo"
	"fastmm/internal/gemm"
	"fastmm/internal/mat"
	"fastmm/internal/trace"
	"fastmm/internal/workspace"
)

// One recursion step is one walk over its level's product list, the way
// fmm-gen (Huang et al., arXiv:1611.01120) derives its Naive, AB and ABC
// variants from one [U,V,W]. At construction each schedule level lowers its
// algorithm to R products M_r = S_r·T_r, each with its S and T chains (CSE
// aux temporaries kept as named nodes) and its C destinations. step walks
// the list in order and lowers each product:
//
//   - an operand is aliased (a scaled copy of one source block, piped to
//     the base case as a scalar, §3.1), formed (pairwise, write-once, or
//     the streaming pre-pass, §3.2), or fused (aux nodes expanded back into
//     source blocks, summed inside the leaf's packing pass);
//   - the destinations are materialised (M_r into workspace by a recursive
//     multiply, then the combine of the W rows) or an epilogue (the fused
//     leaf scatter-adds the product into the C blocks from the
//     micro-kernel, so the level holds no S/T/M temporary).
//
// A level fuses and runs the epilogue when it is an executor's last and
// Options.Fused holds on a backend that can fuse; every other level forms
// and materialises.

// levelPlan is one schedule entry, lowered at construction.
type levelPlan struct {
	alg   *algo.Algorithm
	splan *addchain.Plan // S_r from blocks of A (columns of U)
	tplan *addchain.Plan // T_r from blocks of B (columns of V)
	cplan *addchain.Plan // C blocks from the M_r (rows of W), for the combine
	prods []product
	// zero lists the C blocks no product that runs writes (possible only for
	// degenerate W rows): an overwriting step clears them before its
	// products.
	zero []int
}

// product is one rank-r product. s and t are output r's chains of the S and
// T plans, over the plan's nodes. c is the W column inverted: the C blocks
// the product adds into and their weights. first marks a block's first
// touch in walk order among products that do not vanish, so an overwriting
// step writes it outright instead of zeroing it and then adding.
type product struct {
	s, t []addchain.Term
	c    []dest
}

type dest struct {
	blk   int
	coeff float64
	first bool
}

// vanished reports whether an operand of the product is empty, so the
// product is zero.
func (p *product) vanished() bool { return len(p.s) == 0 || len(p.t) == 0 }

// newLevel builds a level's plans and product list.
func newLevel(a *algo.Algorithm, cse bool) levelPlan {
	lp := levelPlan{
		alg:   a,
		splan: addchain.FromColumns(a.U),
		tplan: addchain.FromColumns(a.V),
		cplan: addchain.FromRows(a.W),
		prods: make([]product, a.Rank()),
	}
	if cse {
		lp.splan.ApplyCSE()
		lp.tplan.ApplyCSE()
	}
	// Product r's destinations are column r of W, in block order; they share
	// one array, so the level allocates a few times, not once per product.
	n := 0
	for _, ch := range lp.cplan.Outputs {
		n += len(ch.Terms)
	}
	dests := make([]dest, 0, n)
	for r := range lp.prods {
		p := &lp.prods[r]
		p.s, p.t = lp.splan.Outputs[r].Terms, lp.tplan.Outputs[r].Terms
		start := len(dests)
		for j := 0; j < a.W.Rows(); j++ {
			if v := a.W.At(j, r); v != 0 {
				dests = append(dests, dest{blk: j, coeff: v})
			}
		}
		p.c = dests[start:len(dests):len(dests)]
	}
	covered := make([]bool, len(lp.cplan.Outputs))
	for r := range lp.prods {
		p := &lp.prods[r]
		for i := range p.c {
			if !p.vanished() && !covered[p.c[i].blk] {
				covered[p.c[i].blk], p.c[i].first = true, true
			}
		}
	}
	for j, c := range covered {
		if !c {
			lp.zero = append(lp.zero, j)
		}
	}
	return lp
}

// stepState is what one step's lowerings share.
type stepState struct {
	lp      *levelPlan
	a, b, c []*mat.Dense // the A, B and C block grids
	s, t    []mat.Scaled // the streamed S and T families, or nil
	ms      []*mat.Dense // the materialised M_r; nil on a fused level
	alpha   float64
	acc     bool
	level   int
	// leafBase is the subtree's first leaf in preorder and span the leaves
	// under one product (HYBRID's numbering).
	leafBase, span int
}

// step runs level lv's recursion step on its peeled core, whose dimensions
// divide the base case exactly, lowered as lv.Fused says. All temporaries
// come from ar; the step's mark is released on return, so a DFS traversal
// reuses one level's buffers across siblings while spawned BFS/HYBRID
// branches draw their own arenas from the call's pool (the M_r stay in this
// arena: the parent outlives its children and combines their results).
func (e *Executor) step(ctx *runContext, ar *workspace.Arena, lv *Level, C, A, B *mat.Dense, alpha float64, leafBase int, acc bool) {
	mark := ar.Mark()
	defer ar.Release(mark)
	level := lv.Depth
	if ctx.tr != nil {
		ctx.tr.Add(trace.Span{
			Kind:  trace.KindStep,
			Level: int32(level),
			M:     int32(A.Rows()),
			K:     int32(A.Cols()),
			N:     int32(B.Cols()),
			Mark:  ar.LiveFloatBytes(),
		})
	}
	lp, b := lv.lp, lv.Alg.Base
	st := stepState{
		lp: lp, a: blocks(ar, A, b.M, b.K), b: blocks(ar, B, b.K, b.N), c: blocks(ar, C, b.M, b.N),
		alpha: alpha, acc: acc, level: level, leafBase: leafBase,
	}
	if !lv.Fused {
		// Materialise. The streaming pre-pass (§3.2 method 3) forms every
		// S_r and T_r in one pass over the source blocks, at the cost of
		// keeping all R alive; otherwise each product forms its own.
		if e.opts.Strategy == addchain.Streaming {
			aw := ctx.additionWorkers()
			st.s = e.streamFamily(ctx, ar, lp.splan, st.a, alpha, aw)
			st.t = e.streamFamily(ctx, ar, lp.tplan, st.b, 1, aw)
		}
		st.ms = ar.Ptrs(len(lp.prods))
		for r := range st.ms {
			st.ms[r] = ar.Matrix(lv.BM, lv.BN)
		}
		st.span = int(e.leaves(level+1, lv.BM, lv.BK, lv.BN).Count)
		if ctx.mode == BFS || ctx.mode == Hybrid {
			e.fanOut(ctx, st)
		} else {
			e.walk(ctx, ar, &st, 1)
		}
	}
	// Writing C (the combine, or the epilogue products) is serial in the
	// products, since two may write one block. It runs on every worker under
	// DFS and at the top level (§4.2) and on one otherwise; a deeper
	// BFS/HYBRID level runs it as one bounded task, its parallelism coming
	// from the sibling branches above.
	switch {
	case ctx.mode == DFS || (level == 0 && ctx.mode != Sequential):
		e.writeC(ctx, ar, &st, ctx.workers)
	case ctx.mode == Sequential:
		e.writeC(ctx, ar, &st, 1)
	default:
		//fastmm:allow BFS/HYBRID bounded-compute section; DFS takes the first branch
		ctx.compute(func() { e.writeC(ctx, ar, &st, 1) })
	}
}

// writeC writes the step's C blocks: an overwriting step's zero pass, then
// the fused walk, whose epilogues write C, or the combine of the M_r.
func (e *Executor) writeC(ctx *runContext, ar *workspace.Arena, st *stepState, workers int) {
	if !st.acc {
		for _, j := range st.lp.zero {
			parZero(st.c[j], workers)
		}
	}
	if st.ms == nil {
		e.walk(ctx, ar, st, workers)
	} else {
		e.combine(ctx, ar, st, workers)
	}
}

// walk runs the products in order: as fused leaf calls workers wide, or by
// materialising each M_r with a recursive multiply (the scheduler sets its
// widths).
func (e *Executor) walk(ctx *runContext, ar *workspace.Arena, st *stepState, workers int) {
	for r := 0; r < len(st.lp.prods) && !ctx.stopped(); r++ {
		mark := ar.Mark()
		if st.ms == nil {
			e.fuse(ctx, ar, st, r, workers)
		} else {
			s, t := e.operands(ctx, ar, st, r)
			e.multiply(ctx, ar, st.ms[r], s.M, t.M, s.Coeff*t.Coeff, st.level+1, st.leafBase+r*st.span, false)
		}
		ar.Release(mark)
	}
}

// fanOut materialises the products as BFS/HYBRID tasks, each in its own
// arena. It lives apart from step so the goroutine closure's captures are
// heap-moved only on spawning paths: a DFS traversal through step must stay
// allocation-free.
//
//fastmm:allow BFS/HYBRID spawn path: allocates per task by design
func (e *Executor) fanOut(ctx *runContext, st stepState) {
	var wg sync.WaitGroup
	for r := range st.lp.prods {
		if s := e.opts.Stats; s != nil {
			s.add(&s.TasksSpawned, 1)
		}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			car := ctx.arenas.Get()
			defer ctx.arenas.Put(car)
			// Forming an operand is bounded work; a streamed one is formed.
			var s, t mat.Scaled
			if st.s != nil {
				s, t = e.operands(ctx, car, &st, r)
			} else {
				ctx.compute(func() { s, t = e.operands(ctx, car, &st, r) })
			}
			e.multiply(ctx, car, st.ms[r], s.M, t.M, s.Coeff*t.Coeff, st.level+1, st.leafBase+r*st.span, false)
		}(r)
	}
	wg.Wait()
}

// fuse runs product r as one fused leaf call (gemm.DispatchFused). Its S and
// T sum inside the packing pass, and its destinations are the epilogue's
// scatter list, whose first touches overwrite when the step does, so no
// zeroing pass runs over the covered blocks.
func (e *Executor) fuse(ctx *runContext, ar *workspace.Arena, st *stepState, r, workers int) {
	// Counted as started even when it vanished: the budget's left flops
	// include every product of the level.
	ctx.startLeaf(st.a[0].Rows(), st.a[0].Cols(), st.b[0].Cols())
	p := &st.lp.prods[r]
	if p.vanished() || len(p.c) == 0 {
		return
	}
	dsts := ar.Scaleds(len(p.c))
	for i, d := range p.c {
		dsts[i] = mat.Scaled{M: st.c[d.blk], Coeff: d.coeff, Overwrite: d.first && !st.acc}
	}
	if s := e.opts.Stats; s != nil {
		s.add(&s.FusedCalls, 1)
	}
	gemm.DispatchFusedTraced(e.fbe, dsts, st.alpha, sources(ar, st.lp.splan, p.s, st.a), sources(ar, st.lp.tplan, p.t, st.b), true, workers, ctx.tr)
}

// sources lowers a chain to the fused packer's source list. The packers read
// source blocks only, so a CSE aux node expands back into its terms.
func sources(ar *workspace.Arena, p *addchain.Plan, terms []addchain.Term, src []*mat.Dense) []mat.Scaled {
	out := ar.Scaleds(len(src))
	return out[:expand(out, 0, p, terms, 1, src)]
}

// expand writes scale × the chain's terms into out from index n and returns
// the new length. Aux terms name only earlier nodes, so the recursion ends,
// and a chain names each source block once (CSE only regroups a column's
// terms), so no two entries share a block.
func expand(out []mat.Scaled, n int, p *addchain.Plan, terms []addchain.Term, scale float64, src []*mat.Dense) int {
	for _, t := range terms {
		if t.Src < p.NumSources {
			out[n] = mat.Scaled{M: src[t.Src], Coeff: scale * t.Coeff}
			n++
		} else {
			n = expand(out, n, p, p.Aux[t.Src-p.NumSources].Terms, scale*t.Coeff, src)
		}
	}
	return n
}

// operands lowers product r's S and T for a materialised M_r: streamed, or
// each aliased or formed. alpha is the step's pending scale; it rides S.
func (e *Executor) operands(ctx *runContext, ar *workspace.Arena, st *stepState, r int) (s, t mat.Scaled) {
	if st.s != nil {
		return st.s[r], st.t[r]
	}
	p := &st.lp.prods[r]
	return e.formOperand(ctx, ar, st.lp.splan, p.s, st.a, st.alpha), e.formOperand(ctx, ar, st.lp.tplan, p.t, st.b, 1)
}

// formOperand materializes one S_r (or T_r) chain per the configured
// strategy, or returns an aliased block with a scalar factor when the chain
// is a scaled copy (§3.1). alpha is a pending scale of the source operand
// and multiplies into the formed combination.
func (e *Executor) formOperand(ctx *runContext, ar *workspace.Arena, plan *addchain.Plan, terms []addchain.Term, src []*mat.Dense, alpha float64) mat.Scaled {
	if len(terms) == 0 {
		z := ar.Matrix(src[0].Rows(), src[0].Cols())
		z.Zero()
		return mat.Scaled{M: z}
	}
	if aliasedOutput(plan, terms) {
		return mat.Scaled{M: src[terms[0].Src], Coeff: alpha * terms[0].Coeff}
	}
	workers := ctx.additionWorkers()
	nodes := e.nodes(ar, plan, src, workers)
	dst := ar.Matrix(src[0].Rows(), src[0].Cols())
	coeffs, srcs := gather(ar, terms, nodes, alpha)
	e.sum(dst, coeffs, srcs, false, workers)
	return mat.Scaled{M: dst, Coeff: 1}
}

// streamFamily forms all outputs of a plan in one pass over the source
// blocks: for each node, scatter its contribution into every destination
// that uses it (§3.2 method 3). Scaled copies are still aliased.
func (e *Executor) streamFamily(ctx *runContext, ar *workspace.Arena, plan *addchain.Plan, src []*mat.Dense, alpha float64, workers int) []mat.Scaled {
	rows, cols := src[0].Rows(), src[0].Cols()
	nodes := e.nodes(ar, plan, src, workers)
	out := ar.Scaleds(len(plan.Outputs))
	touched := ar.Bools(len(plan.Outputs))
	for r, ch := range plan.Outputs {
		switch {
		case len(ch.Terms) == 0:
			out[r] = mat.Scaled{M: ar.Matrix(rows, cols)}
			out[r].M.Zero()
		case aliasedOutput(plan, ch.Terms):
			out[r] = mat.Scaled{M: src[ch.Terms[0].Src], Coeff: alpha * ch.Terms[0].Coeff}
		default:
			out[r] = mat.Scaled{M: ar.Matrix(rows, cols), Coeff: 1}
		}
	}
	for n, node := range nodes {
		if ctx.stopped() {
			break
		}
		for r, ch := range plan.Outputs {
			if out[r].Coeff != 1 || aliasedOutput(plan, ch.Terms) {
				continue // aliased or zero output
			}
			for _, t := range ch.Terms {
				if t.Src != n {
					continue
				}
				if !touched[r] {
					parScale(out[r].M, alpha*t.Coeff, node, workers)
					touched[r] = true
				} else {
					parAxpy(out[r].M, alpha*t.Coeff, node, workers)
				}
			}
		}
	}
	return out
}

// nodes resolves plan node ids to matrices, materializing CSE temporaries on
// demand (write-once, in dependency order).
func (e *Executor) nodes(ar *workspace.Arena, plan *addchain.Plan, src []*mat.Dense, workers int) []*mat.Dense {
	if len(plan.Aux) == 0 {
		return src
	}
	nodes := ar.Ptrs(plan.NumNodes())
	copy(nodes, src)
	for _, aux := range plan.Aux {
		d := ar.Matrix(src[0].Rows(), src[0].Cols())
		coeffs, srcs := gather(ar, aux.Terms, nodes, 1)
		parCombine(d, coeffs, srcs, workers)
		nodes[aux.Dst] = d
	}
	return nodes
}

// combine forms the C blocks from the M_r per the configured strategy. With
// acc the blocks accumulate (C_j += Σ w·M_r) instead of being overwritten:
// MultiplyAdd's beta path reaching the combine epilogue. Streaming walks
// each M_r once and scatters it into the product's destinations.
func (e *Executor) combine(ctx *runContext, ar *workspace.Arena, st *stepState, workers int) {
	if e.opts.Strategy == addchain.Streaming {
		for r := range st.lp.prods {
			if ctx.stopped() {
				return
			}
			for _, d := range st.lp.prods[r].c {
				if d.first && !st.acc {
					parScale(st.c[d.blk], d.coeff, st.ms[r], workers)
				} else {
					parAxpy(st.c[d.blk], d.coeff, st.ms[r], workers)
				}
			}
		}
		return
	}
	mark := ar.Mark()
	defer ar.Release(mark)
	for j, ch := range st.lp.cplan.Outputs {
		if ctx.stopped() {
			return
		}
		if len(ch.Terms) > 0 { // an empty row is on the zero list
			coeffs, srcs := gather(ar, ch.Terms, st.ms, 1)
			e.sum(st.c[j], coeffs, srcs, st.acc, workers)
		}
	}
}

// sum sets dst to Σ coeffs[i]·srcs[i], or adds it with acc: in one
// write-once pass, or as a scale and then an axpy per further term
// (pairwise, and every accumulating sum).
func (e *Executor) sum(dst *mat.Dense, coeffs []float64, srcs []*mat.Dense, acc bool, workers int) {
	if !acc && e.opts.Strategy != addchain.Pairwise {
		parCombine(dst, coeffs, srcs, workers)
		return
	}
	for i := range srcs {
		if i == 0 && !acc {
			parScale(dst, coeffs[0], srcs[0], workers)
		} else {
			parAxpy(dst, coeffs[i], srcs[i], workers)
		}
	}
}

// gather resolves chain terms to arena coefficient and matrix lists, each
// coefficient times scale.
func gather(ar *workspace.Arena, terms []addchain.Term, nodes []*mat.Dense, scale float64) ([]float64, []*mat.Dense) {
	coeffs, srcs := ar.Floats(len(terms)), ar.Ptrs(len(terms))
	for i, t := range terms {
		coeffs[i], srcs[i] = scale*t.Coeff, nodes[t.Src]
	}
	return coeffs, srcs
}

// blocks slices m into an mb×nb grid of equal arena-backed views (dims must
// divide).
func blocks(ar *workspace.Arena, m *mat.Dense, mb, nb int) []*mat.Dense {
	rb, cb := m.Rows()/mb, m.Cols()/nb
	out := ar.Ptrs(mb * nb)
	for i := 0; i < mb; i++ {
		for j := 0; j < nb; j++ {
			out[i*nb+j] = ar.View(m, i*rb, j*cb, rb, cb)
		}
	}
	return out
}
