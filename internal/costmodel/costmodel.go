// Package costmodel prices an executor's recursion with the analytic cost
// terms of Benson & Ballard: arithmetic flops (§2.1), the block reads and
// writes of the addition phases under each strategy (§3.2), and the leaf
// products. It folds core's Walk — the levels, peeled cores, addition plans
// and lowerings the executor itself runs — so it follows the same recursion
// as the executor. The counts cover the divisible core the recursion runs
// without peeling, and PredictTime prices the rest as classical gemm time
// and deploys the workers as the scheduler the call runs as
// (core.Executor.RunsAs), so the model has no scheduler table of its own.
// The executor's WorkspaceBytes is the one workspace model. The test suite
// pins the counts against the paper's closed forms (e.g. F_Strassen(N) =
// 7·N^log₂7 − 6·N²).
package costmodel

import (
	"fmt"

	"fastmm/internal/addchain"
	"fastmm/internal/algo"
	"fastmm/internal/core"
)

// Cost aggregates the model's predictions for one multiplication.
type Cost struct {
	// MulFlops counts scalar multiply-add flops spent in base-case
	// (classical) multiplications: 2mkn − mn per call.
	MulFlops float64
	// AddFlops counts scalar flops spent in the S/T/C addition chains.
	AddFlops float64
	// Reads and Writes count scalar block-element transfers performed by
	// the addition phases under the chosen strategy (§3.2's metric).
	Reads, Writes float64
	// BaseCalls is the number of leaf gemm invocations (R^steps).
	BaseCalls float64
}

// Flops returns total arithmetic.
func (c Cost) Flops() float64 { return c.MulFlops + c.AddFlops }

// Evaluate is the cost of the executor's p×q by q×r call over its
// divisible core, peeling excluded (see fold).
func Evaluate(e *core.Executor, p, q, r int) Cost {
	cm, ck, cn := divisibleCore(e, p, q, r)
	c, _ := fold(e, cm, ck, cn)
	return c
}

// divisibleCore is the part of a p×q by q×r call the executor's recursion
// covers without peeling at any level: the leaves' dims of its walk times
// the base dims of the levels above them.
func divisibleCore(e *core.Executor, p, q, r int) (cm, ck, cn int) {
	cm, ck, cn = 1, 1, 1
	w := e.Walk(p, q, r)
	for w.Next() {
		b := w.Alg.Base
		cm, ck, cn = cm*b.M, ck*b.K, cn*b.N
	}
	return cm * w.M, ck * w.K, cn * w.N
}

// fold folds the executor's walk of a p×q by q×r call that peels nothing
// into its cost, and returns the walk's end, the leaves. Per level, Count
// subproblems each pay the level's addition flops and traffic on its block
// elements: an unfused level its S/T/C plans' Plan.Cost under the
// executor's strategy; a fused level one streaming read per packing source
// beyond the one the gemm reads anyway and one read-modify-write per
// scatter term, since it forms no S/T temporary, materialises no M_r and
// reads nothing back for a combine. Each leaf costs 2mkn − mn multiply
// flops.
func fold(e *core.Executor, p, q, r int) (Cost, core.Level) {
	var c Cost
	strat := e.Opts().Strategy
	w := e.Walk(p, q, r)
	for w.Next() {
		n := float64(w.Count)
		sElems := float64(w.BM) * float64(w.BK)
		tElems := float64(w.BK) * float64(w.BN)
		cElems := float64(w.BM) * float64(w.BN)
		c.AddFlops += n * (float64(w.S.Additions())*sElems + float64(w.T.Additions())*tElems + float64(w.C.Additions())*cElems)
		if w.Fused {
			R := float64(w.Alg.Rank())
			cTerms := totalTerms(w.C)
			c.Reads += n * ((totalTerms(w.S)-R)*sElems + (totalTerms(w.T)-R)*tElems + cTerms*cElems)
			c.Writes += n * cTerms * cElems
		} else {
			sc, tc, cc := w.S.Cost(strat), w.T.Cost(strat), w.C.Cost(strat)
			c.Reads += n * (float64(sc.Reads)*sElems + float64(tc.Reads)*tElems + float64(cc.Reads)*cElems)
			c.Writes += n * (float64(sc.Writes)*sElems + float64(tc.Writes)*tElems + float64(cc.Writes)*cElems)
		}
	}
	c.BaseCalls = float64(w.Count)
	c.MulFlops = c.BaseCalls * gemmFlops(w.M, w.K, w.N)
	return c, w.Level
}

// gemmFlops is Equation (3)'s classical count, 2pqr − pr.
func gemmFlops(p, q, r int) float64 {
	return 2*float64(p)*float64(q)*float64(r) - float64(p)*float64(r)
}

// totalTerms counts the source terms across a plan's outputs (aux expansion
// ignored: the fused executor expands CSE temporaries back to sources, and
// real catalog plans change term counts only marginally under CSE).
func totalTerms(p *addchain.Plan) float64 {
	n := 0
	for _, ch := range p.Outputs {
		n += len(ch.Terms)
	}
	return float64(n)
}

// Model prices one algorithm under fixed addition options at any explicit
// depth: Evaluate builds the executor of that depth and folds its walk.
type Model struct {
	alg  *algo.Algorithm
	opts core.Options
}

// New builds a cost model. CSE mirrors the executor's option (applied to the
// S and T plans only, per §3.3).
func New(a *algo.Algorithm, strat addchain.Strategy, cse bool) (*Model, error) {
	if err := a.Verify(); err != nil {
		return nil, fmt.Errorf("costmodel: %w", err)
	}
	return NewTrusted(a, strat, cse), nil
}

// NewTrusted builds a cost model without re-verifying the algorithm against
// its tensor; passing an unverified algorithm prices the wrong product.
func NewTrusted(a *algo.Algorithm, strat addchain.Strategy, cse bool) *Model {
	return NewTrustedFused(a, strat, cse, false)
}

// NewTrustedFused is NewTrusted with the executor's Fused option: with
// fused set, the last level fuses wherever the default backend can (see
// core.Options.Fused), and the model prices it as fold says.
func NewTrustedFused(a *algo.Algorithm, strat addchain.Strategy, cse, fused bool) *Model {
	return &Model{alg: a, opts: core.Options{Strategy: strat, CSE: cse, Fused: fused}}
}

// Evaluate computes the cost of multiplying P×Q by Q×R with the given number
// of recursive steps. Dimensions must be divisible by the base case at every
// level (the model ignores peeling).
func (m *Model) Evaluate(p, q, r, steps int) (Cost, error) {
	b := m.alg.Base
	cp, cq, cr := p, q, r
	for s := 0; s < steps; s++ {
		if cp%b.M != 0 || cq%b.K != 0 || cr%b.N != 0 {
			return Cost{}, fmt.Errorf("costmodel: %d×%d×%d not divisible by %v at step %d", p, q, r, b, s)
		}
		cp, cq, cr = cp/b.M, cq/b.K, cr/b.N
	}
	if steps == 0 { // an executor's Steps 0 is the automatic cutoff
		return Cost{MulFlops: gemmFlops(p, q, r), BaseCalls: 1}, nil
	}
	o := m.opts
	o.Steps = steps
	e, err := core.NewTrusted(m.alg, o)
	if err != nil {
		return Cost{}, fmt.Errorf("costmodel: %w", err)
	}
	return Evaluate(e, p, q, r), nil
}

// MulRatio returns the classical-to-fast multiplication flop ratio at the
// given square size and depth — the realized speedup upper bound if
// additions were free (Table 2's "multiplication speedup per recursive
// step", compounded).
func (m *Model) MulRatio(n, steps int) (float64, error) {
	c, err := m.Evaluate(n, n, n, steps)
	if err != nil {
		return 0, err
	}
	return gemmFlops(n, n, n) / c.MulFlops, nil
}
