// Package addchain plans the matrix-addition phases of a fast algorithm: the
// formation of the temporaries S_r and T_r from blocks of A and B, and of the
// output blocks C_ij from the products M_r (Benson & Ballard §3.2). A Plan is
// a small dependency DAG of linear combinations ("addition chains") that the
// executor evaluates with one of the paper's three strategies — pairwise,
// write-once, or streaming — and that can be rewritten by the greedy
// length-two common-subexpression elimination of §3.3.
//
// The package also implements the read/write cost model the paper uses to
// compare the strategies (and to argue when CSE pays for itself).
package addchain

import (
	"fmt"
	"sort"

	"fastmm/internal/mat"
)

// Term is one summand coeff·node of an addition chain. Src identifies a node:
// 0..NumSources-1 are the original source blocks; NumSources.. are auxiliary
// temporaries introduced by CSE.
type Term struct {
	Src   int
	Coeff float64
}

// Chain forms one destination as a linear combination of nodes.
type Chain struct {
	Dst   int // output index (S_r / T_r / C-block index) or aux node id
	Terms []Term
}

// Plan is the addition DAG for one family of combinations (all S_r, all T_r,
// or all C blocks).
type Plan struct {
	NumSources int
	// Aux lists CSE temporaries in dependency order; Aux[i].Dst ==
	// NumSources+i. Their terms refer only to earlier nodes.
	Aux []Chain
	// Outputs lists the final combinations; Outputs[i].Dst is the output
	// index (column r for S/T plans, row j for C plans).
	Outputs []Chain
}

// FromColumns builds the plan whose r-th output is Σ_i F[i][r]·source_i —
// the S_r/T_r formation pattern for factor matrices U and V.
func FromColumns(f *mat.Dense) *Plan {
	return fromFactor(f.Cols(), f.Rows(), func(o, i int) float64 { return f.At(i, o) })
}

// FromRows builds the plan whose j-th output is Σ_r F[j][r]·source_r — the
// C-block formation pattern for the factor matrix W (sources are the M_r).
func FromRows(f *mat.Dense) *Plan {
	return fromFactor(f.Rows(), f.Cols(), f.At)
}

// fromFactor builds the plan whose o-th of outs outputs sums coeff(o, s) ×
// source s over the nonzero coefficients. The chains share one array of
// terms, so an executor's construction — which the tuner pays for every
// candidate it ranks — allocates three times per plan, not once per term.
func fromFactor(outs, srcs int, coeff func(o, s int) float64) *Plan {
	n := 0
	for o := 0; o < outs; o++ {
		for s := 0; s < srcs; s++ {
			if coeff(o, s) != 0 {
				n++
			}
		}
	}
	p := &Plan{NumSources: srcs, Outputs: make([]Chain, outs)}
	terms := make([]Term, 0, n)
	for o := range p.Outputs {
		start := len(terms)
		for s := 0; s < srcs; s++ {
			if v := coeff(o, s); v != 0 {
				terms = append(terms, Term{Src: s, Coeff: v})
			}
		}
		p.Outputs[o].Dst = o
		if len(terms) > start {
			p.Outputs[o].Terms = terms[start:len(terms):len(terms)]
		}
	}
	return p
}

// Additions returns the total number of block additions the plan performs: a
// chain with t terms costs t−1 additions, plus the additions of the aux
// chains. Scalar multiplications are not counted (they fuse into the adds).
func (p *Plan) Additions() int {
	n := 0
	for _, c := range p.Aux {
		if len(c.Terms) > 1 {
			n += len(c.Terms) - 1
		}
	}
	for _, c := range p.Outputs {
		if len(c.Terms) > 1 {
			n += len(c.Terms) - 1
		}
	}
	return n
}

// NumNodes returns the total node count (sources + aux temporaries).
func (p *Plan) NumNodes() int { return p.NumSources + len(p.Aux) }

// Validate checks internal consistency: aux chains reference only earlier
// nodes, and all terms are in range with nonzero coefficients.
func (p *Plan) Validate() error {
	for i, c := range p.Aux {
		if c.Dst != p.NumSources+i {
			return fmt.Errorf("addchain: aux %d has dst %d, want %d", i, c.Dst, p.NumSources+i)
		}
		for _, t := range c.Terms {
			if t.Src < 0 || t.Src >= c.Dst {
				return fmt.Errorf("addchain: aux %d references node %d (not earlier)", i, t.Src)
			}
			if t.Coeff == 0 {
				return fmt.Errorf("addchain: aux %d has zero coefficient", i)
			}
		}
	}
	for i, c := range p.Outputs {
		for _, t := range c.Terms {
			if t.Src < 0 || t.Src >= p.NumNodes() {
				return fmt.Errorf("addchain: output %d references unknown node %d", i, t.Src)
			}
			if t.Coeff == 0 {
				return fmt.Errorf("addchain: output %d has zero coefficient", i)
			}
		}
	}
	return nil
}

// Evaluate computes the numeric value of every output given per-source scalar
// values — the scalar shadow of the block computation, used by tests to prove
// plan rewrites preserve semantics.
func (p *Plan) Evaluate(sources []float64) []float64 {
	if len(sources) != p.NumSources {
		panic(fmt.Sprintf("addchain: %d sources, want %d", len(sources), p.NumSources))
	}
	vals := make([]float64, p.NumNodes())
	copy(vals, sources)
	for _, c := range p.Aux {
		var s float64
		for _, t := range c.Terms {
			s += t.Coeff * vals[t.Src]
		}
		vals[c.Dst] = s
	}
	out := make([]float64, len(p.Outputs))
	for i, c := range p.Outputs {
		var s float64
		for _, t := range c.Terms {
			s += t.Coeff * vals[t.Src]
		}
		out[i] = s
	}
	return out
}

// pairKey identifies a length-two subexpression up to scalar multiplication:
// the ordered node pair (a < b) and the ratio coeff_b/coeff_a.
type pairKey struct {
	a, b  int
	ratio float64
}

// CSEStats reports what a greedy elimination pass did (Table 3's columns).
type CSEStats struct {
	OriginalAdditions int
	FinalAdditions    int
	Eliminated        int // distinct subexpressions turned into temporaries
	AdditionsSaved    int
}

// ApplyCSE greedily eliminates length-two common subexpressions, following
// §3.3: repeatedly find the pair (up to scale) occurring in the most chains,
// hoist it into an auxiliary temporary, and rewrite the chains; stop when no
// pair occurs at least twice. Returns statistics in the shape of Table 3.
func (p *Plan) ApplyCSE() CSEStats {
	stats := CSEStats{OriginalAdditions: p.Additions()}
	for {
		counts := map[pairKey]int{}
		for _, c := range p.Outputs {
			chainPairs(c, func(k pairKey) { counts[k]++ })
		}
		best, bestCount := pairKey{}, 1
		// Deterministic tie-break: sort keys.
		keys := make([]pairKey, 0, len(counts))
		for k := range counts {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].a != keys[j].a {
				return keys[i].a < keys[j].a
			}
			if keys[i].b != keys[j].b {
				return keys[i].b < keys[j].b
			}
			return keys[i].ratio < keys[j].ratio
		})
		for _, k := range keys {
			if counts[k] > bestCount {
				best, bestCount = k, counts[k]
			}
		}
		if bestCount < 2 {
			break
		}
		// Create the temporary Y = a + ratio·b.
		aux := Chain{Dst: p.NumNodes(), Terms: []Term{{Src: best.a, Coeff: 1}, {Src: best.b, Coeff: best.ratio}}}
		p.Aux = append(p.Aux, aux)
		stats.Eliminated++
		// Rewrite every chain containing the pair: replace coeff_a·a +
		// coeff_b·b (with coeff_b/coeff_a == ratio) by coeff_a·Y.
		for ci := range p.Outputs {
			p.Outputs[ci] = rewriteChain(p.Outputs[ci], best, aux.Dst)
		}
	}
	stats.FinalAdditions = p.Additions()
	stats.AdditionsSaved = stats.OriginalAdditions - stats.FinalAdditions
	return stats
}

// chainPairs enumerates the normalized pair keys of a chain.
func chainPairs(c Chain, visit func(pairKey)) {
	for x := 0; x < len(c.Terms); x++ {
		for y := x + 1; y < len(c.Terms); y++ {
			tx, ty := c.Terms[x], c.Terms[y]
			a, ca, b, cb := tx.Src, tx.Coeff, ty.Src, ty.Coeff
			if a > b {
				a, ca, b, cb = b, cb, a, ca
			}
			visit(pairKey{a: a, b: b, ratio: cb / ca})
		}
	}
}

// rewriteChain replaces one occurrence of the pair k in c by the aux node.
func rewriteChain(c Chain, k pairKey, auxNode int) Chain {
	var ia, ib = -1, -1
	for i, t := range c.Terms {
		if t.Src == k.a && ia < 0 {
			ia = i
		} else if t.Src == k.b && ib < 0 {
			ib = i
		}
	}
	if ia < 0 || ib < 0 {
		return c
	}
	ca, cb := c.Terms[ia].Coeff, c.Terms[ib].Coeff
	if cb/ca != k.ratio {
		return c
	}
	terms := make([]Term, 0, len(c.Terms)-1)
	for i, t := range c.Terms {
		if i == ia {
			terms = append(terms, Term{Src: auxNode, Coeff: ca})
		} else if i != ib {
			terms = append(terms, t)
		}
	}
	return Chain{Dst: c.Dst, Terms: terms}
}

// Strategy selects how the executor evaluates the plan's chains (§3.2). The
// zero value is WriteOnce, the paper's practical choice.
type Strategy int

const (
	// WriteOnce evaluates each chain in a single fused pass, writing every
	// destination element exactly once (§3.2 method 2 — the paper's best).
	WriteOnce Strategy = iota
	// Pairwise evaluates each chain as a copy followed by repeated axpy
	// calls (the daxpy method, §3.2 method 1).
	Pairwise
	// Streaming walks each source block once, scattering updates into all
	// destination temporaries (§3.2 method 3).
	Streaming
)

func (s Strategy) String() string {
	switch s {
	case Pairwise:
		return "pairwise"
	case WriteOnce:
		return "write-once"
	case Streaming:
		return "streaming"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Costs is the block read/write count of evaluating a plan — the quantity the
// paper uses to compare strategies (§3.2) and to reason about when CSE helps
// (§3.3). Counts are in units of full blocks.
type Costs struct {
	Reads, Writes int
}

// Cost returns the read/write cost of evaluating the plan with the given
// strategy. Copies (single-term chains) are not materialized and cost
// nothing, matching the executor's behaviour.
func (p *Plan) Cost(s Strategy) Costs {
	var c Costs
	var used map[int]bool // Streaming: the distinct source nodes read
	if s == Streaming {
		used = map[int]bool{}
	}
	for _, chains := range [2][]Chain{p.Aux, p.Outputs} {
		for _, ch := range chains {
			t := len(ch.Terms)
			if t <= 1 {
				continue
			}
			switch s {
			case Pairwise:
				// copy (1R+1W) then t−1 axpys (2R+1W each)
				c.Reads += 1 + 2*(t-1)
				c.Writes += t
			case WriteOnce:
				c.Reads += t
				c.Writes++
			case Streaming:
				// Each distinct source node is read once; each multi-term
				// destination is written once (updates accumulate in cache
				// in the idealized model of §3.2).
				for _, term := range ch.Terms {
					used[term.Src] = true
				}
				c.Writes++
			}
		}
	}
	if s == Streaming {
		c.Reads = len(used)
	}
	return c
}
