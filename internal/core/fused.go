package core

import (
	"fastmm/internal/addchain"
	"fastmm/internal/gemm"
	"fastmm/internal/mat"
	"fastmm/internal/trace"
	"fastmm/internal/workspace"
)

// This file is the executor side of the fused-operand engine (Huang et al.,
// arXiv:1611.01120): at the last recursion level the S_r/T_r operand sums
// and the M_r products are never materialized. Each rank-r product becomes
// one gemm.DispatchFused call — the U/V columns as multi-source packing
// operands, the W row inverted into a scatter-add destination list — so the
// level's entire [U,V,W] application happens inside the blocked kernel's
// packing pass and epilogue.

// fusedTerm is one (block index, coefficient) pair of a fused operand or
// destination list. For destination terms, first marks the block's first
// touch across the level's product order: when the step overwrites C, that
// touch writes the block outright (Scaled.Overwrite), so no zeroing pass runs
// and no first-touch read-modify-write is paid.
type fusedTerm struct {
	idx   int
	coeff float64
	first bool
}

// fusedProduct is the complete description of one rank-r leaf product:
// which A blocks sum into the left operand, which B blocks into the right,
// and which C blocks the product scatter-adds into with which W weights.
type fusedProduct struct {
	as, bs []fusedTerm // S_r/T_r expanded to pure source blocks
	cs     []fusedTerm // destinations: C block index, W coefficient
}

// fusedPlan is one schedule level's products, precomputed at executor
// construction so the hot path only walks flat slices. zero lists the C
// blocks no runnable product touches (possible only for degenerate W rows):
// an overwriting step must still clear them.
type fusedPlan struct {
	prods []fusedProduct
	zero  []int
}

// buildFusedPlan lowers one level's addition plans into fused products. CSE
// aux temporaries are expanded back into pure source terms — the fused
// packers read sources directly, so shared subexpressions hold no value
// there — and duplicate sources are merged.
func buildFusedPlan(lp levelPlan) fusedPlan {
	R := lp.alg.Rank()
	fp := fusedPlan{prods: make([]fusedProduct, R)}
	for r := 0; r < R; r++ {
		fp.prods[r].as = expandChain(lp.splan, lp.splan.Outputs[r].Terms)
		fp.prods[r].bs = expandChain(lp.tplan, lp.tplan.Outputs[r].Terms)
	}
	// Invert the C plan (rows of W): output j uses M_r with weight w ⇒
	// product r scatters into block j with weight w. FromRows plans carry no
	// aux nodes, so the terms are already pure.
	for j, ch := range lp.cplan.Outputs {
		for _, t := range ch.Terms {
			fp.prods[t.Src].cs = append(fp.prods[t.Src].cs, fusedTerm{idx: j, coeff: t.Coeff})
		}
	}
	// Mark each block's first touch across the serial product order —
	// products that vanished (empty operand list) never run, so they cannot
	// carry a first touch. Blocks left uncovered go on the explicit zero
	// list.
	covered := make([]bool, len(lp.cplan.Outputs))
	for r := range fp.prods {
		pr := &fp.prods[r]
		if len(pr.as) == 0 || len(pr.bs) == 0 {
			continue
		}
		for i := range pr.cs {
			if !covered[pr.cs[i].idx] {
				covered[pr.cs[i].idx] = true
				pr.cs[i].first = true
			}
		}
	}
	for j, c := range covered {
		if !c {
			fp.zero = append(fp.zero, j)
		}
	}
	return fp
}

// expandChain resolves a chain's terms to pure source indices, expanding aux
// (CSE) nodes recursively — aux terms reference only earlier nodes, so the
// expansion terminates — and merging duplicates. Terms that cancel drop out.
func expandChain(p *addchain.Plan, terms []addchain.Term) []fusedTerm {
	var out []fusedTerm
	var walk func(terms []addchain.Term, scale float64)
	walk = func(terms []addchain.Term, scale float64) {
		for _, t := range terms {
			if t.Src < p.NumSources {
				out = append(out, fusedTerm{idx: t.Src, coeff: scale * t.Coeff})
				continue
			}
			walk(p.Aux[t.Src-p.NumSources].Terms, scale*t.Coeff)
		}
	}
	walk(terms, 1)
	// Merge duplicate sources and drop cancelled ones (quadratic, but plans
	// are tiny and this runs once at construction).
	merged := out[:0]
	for _, t := range out {
		found := false
		for i := range merged {
			if merged[i].idx == t.idx {
				merged[i].coeff += t.coeff
				found = true
				break
			}
		}
		if !found {
			merged = append(merged, t)
		}
	}
	kept := merged[:0]
	for _, t := range merged {
		if t.coeff != 0 {
			kept = append(kept, t)
		}
	}
	return kept
}

// fusedStep runs one recursion level entirely through the fused engine: no
// operand formation, no M_r, no combine — R DispatchFused calls against
// views of A, B, and C. Products run serially with respect to each other
// (two products may scatter into the same C block), with intra-call
// parallelism following the scheduler: Sequential products run one-wide, DFS
// and top-level BFS/HYBRID products use all workers, deeper BFS/HYBRID
// products run inside one bounded task.
func (e *Executor) fusedStep(ctx *runContext, ar *workspace.Arena, lp levelPlan, C, A, B *mat.Dense, alpha float64, level int, acc bool) {
	b := lp.alg.Base

	mark := ar.Mark()
	defer ar.Release(mark)
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

	ablocks := blocks(ar, A, b.M, b.K)
	bblocks := blocks(ar, B, b.K, b.N)
	cblocks := blocks(ar, C, b.M, b.N)
	fp := e.fplans[level%len(e.schedule)]

	wide := ctx.mode == DFS || (level == 0 && ctx.mode != Sequential)
	if wide || ctx.mode == Sequential {
		workers := 1
		if wide {
			workers = ctx.workers
		}
		if !acc {
			for _, j := range fp.zero {
				parZero(cblocks[j], workers)
			}
		}
		for r := 0; r < len(fp.prods) && !ctx.stopped(); r++ {
			e.runFusedProduct(ctx, ar, &fp.prods[r], cblocks, ablocks, bblocks, alpha, acc, workers)
		}
		return
	}
	// Deeper BFS/HYBRID: the whole level is one bounded task — products
	// scatter into shared C blocks, so they cannot fan out against each
	// other; parallelism comes from the sibling branches above this level.
	//fastmm:allow BFS/HYBRID bounded-compute section; DFS takes the branch above
	ctx.compute(func() {
		if !acc {
			for _, j := range fp.zero {
				cblocks[j].Zero()
			}
		}
		for r := 0; r < len(fp.prods) && !ctx.stopped(); r++ {
			e.runFusedProduct(ctx, ar, &fp.prods[r], cblocks, ablocks, bblocks, alpha, acc, 1)
		}
	})
}

// runFusedProduct issues one rank-r product as a fused leaf call. The
// operand lists are arena Scaled scratch; when the step overwrites C
// (acc=false) the first-touch marks become Scaled.Overwrite flags, so no
// separate zeroing pass runs over the covered blocks.
func (e *Executor) runFusedProduct(ctx *runContext, ar *workspace.Arena, pr *fusedProduct, cblocks, ablocks, bblocks []*mat.Dense, alpha float64, acc bool, workers int) {
	// Counted as started even when it vanished: the budget's left flops
	// include every product of the level.
	ctx.startLeaf(ablocks[0].Rows(), ablocks[0].Cols(), bblocks[0].Cols())
	if len(pr.as) == 0 || len(pr.bs) == 0 || len(pr.cs) == 0 {
		return // a vanished product contributes nothing
	}
	mark := ar.Mark()
	defer ar.Release(mark)
	dsts := scaledDsts(ar, pr.cs, cblocks, !acc)
	asrcs := scaledList(ar, pr.as, ablocks)
	bsrcs := scaledList(ar, pr.bs, bblocks)
	if s := e.opts.Stats; s != nil {
		s.add(&s.FusedCalls, 1)
	}
	gemm.DispatchFusedTraced(e.fbe, dsts, alpha, asrcs, bsrcs, true, workers, ctx.tr)
}

// scaledList resolves fused terms to (block view, coefficient) pairs in
// arena scratch.
func scaledList(ar *workspace.Arena, terms []fusedTerm, blocks []*mat.Dense) []mat.Scaled {
	out := ar.Scaleds(len(terms))
	for i, t := range terms {
		out[i] = mat.Scaled{M: blocks[t.idx], Coeff: t.coeff}
	}
	return out
}

// scaledDsts is scaledList for destinations: first-touch terms carry the
// Overwrite mark when the step overwrites.
func scaledDsts(ar *workspace.Arena, terms []fusedTerm, blocks []*mat.Dense, overwrite bool) []mat.Scaled {
	out := ar.Scaleds(len(terms))
	for i, t := range terms {
		out[i] = mat.Scaled{M: blocks[t.idx], Coeff: t.coeff, Overwrite: t.first && overwrite}
	}
	return out
}
