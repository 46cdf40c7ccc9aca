package gemm

import (
	"fmt"
	"sync"

	"fastmm/internal/mat"
)

// maxMR/maxNR bound the micro-tile dims a blocked engine may use: the
// widest register tile any kernel here has (8×24 fills the 32 zmm registers).
const (
	maxMR = 8
	maxNR = 24
)

// microKernelFunc computes a full mr×nr tile of C at (i0, j0):
// C[i0:i0+mr, j0:j0+nr] += Ap·Bp over kb rank-1 terms, with Ap and Bp in the
// packed micro-panel layouts produced by packA/packB. With overwrite set it
// stores C[i0:i0+mr, j0:j0+nr] = Ap·Bp and never reads C, so neither a
// zeroing pass nor a stale NaN precedes the first k-panel.
type microKernelFunc func(C *mat.Dense, i0, j0, kb int, ap, bp []float64, overwrite bool)

// blockedBackend is the shared GotoBLAS/BLIS-structured engine: everything —
// panel blocking, packing, slab parallelism, the scatter epilogue — is
// generic, and only the full-tile micro-kernel (plus its MR×NR shape) differs
// per machine, the BLIS thesis applied to this repository. There is no edge
// kernel: the packed panels are zero-padded to whole micro-tiles, so a border
// tile is the same full-tile kernel call aimed at the scratch tile.
type blockedBackend struct {
	name         string
	accel        bool
	mr, nr       int
	kern         microKernelFunc
	apLen, bpLen int // packing-slab sizes in float64s
	pool         sync.Pool
}

// newBlocked builds a blocked engine around one micro-kernel. The packing
// slabs are sized for the worst-case panel (mc and nc rounded up to whole
// micro-tiles), so any mr/nr ≤ maxMR/maxNR works with the shared blocking
// parameters.
func newBlocked(name string, accel bool, mr, nr int, kern microKernelFunc) *blockedBackend {
	if mr < 1 || nr < 1 || mr > maxMR || nr > maxNR {
		panic(fmt.Sprintf("gemm: micro-tile %d×%d outside supported 1..%d×1..%d", mr, nr, maxMR, maxNR))
	}
	bk := &blockedBackend{
		name:  name,
		accel: accel,
		mr:    mr,
		nr:    nr,
		kern:  kern,
		apLen: ((mc + mr - 1) / mr) * mr * kcMax,
		bpLen: kcMax * ((nc + nr - 1) / nr) * nr,
	}
	// Pooling pointers (not bare slices) keeps steady-state Get/Put
	// allocation-free — storing a []float64 in the pool's `any` would box a
	// fresh slice header on every Put.
	bk.pool.New = func() any {
		return &packBufs{
			a:    make([]float64, bk.apLen),
			b:    make([]float64, bk.bpLen),
			tile: mat.New(mr, nr),
			sS:   &mat.Dense{}, sT: &mat.Dense{}, sP: &mat.Dense{},
		}
	}
	return bk
}

// packBufs is one worker's scratch: the A and B panel buffers together (one
// pool round-trip per call), the mr×nr micro-tile that border tiles and
// scattered products are computed into, and three matrix headers the small
// path stamps over the slabs.
type packBufs struct {
	a, b       []float64
	tile       *mat.Dense
	sS, sT, sP *mat.Dense
}

func (bk *blockedBackend) Name() string               { return bk.name }
func (bk *blockedBackend) Accelerated() bool          { return bk.accel }
func (bk *blockedBackend) PackFloatsPerWorker() int64 { return int64(bk.apLen + bk.bpLen) }

// Tile reports the micro-kernel's register tile. "simd" names three kernels
// (see pickSIMDKernel); this is how `fmmtune show` says which one ran.
func (bk *blockedBackend) Tile() (mr, nr int) { return bk.mr, bk.nr }

// Gemm is the one-source, one-destination, unit-weight call of the engine.
// The sequential branch keeps its one-entry lists in separate stack arrays:
// parallelSlabs hands its lists to goroutines, so sharing them with that
// branch would move them to the heap on the zero-allocation path.
func (bk *blockedBackend) Gemm(C *mat.Dense, alpha float64, A, B *mat.Dense, accumulate bool, workers int) {
	if workers == 1 {
		d, a, b := [1]Scaled{{M: C, Coeff: 1}}, [1]Scaled{{M: A, Coeff: 1}}, [1]Scaled{{M: B, Coeff: 1}}
		bk.leaf(d[:], alpha, a[:], b[:], accumulate)
		return
	}
	ops := []Scaled{{M: C, Coeff: 1}, {M: A, Coeff: 1}, {M: B, Coeff: 1}}
	bk.parallelSlabs(ops[:1], alpha, ops[1:2], ops[2:], accumulate, workers)
}

// GemmFused implements FusedBackend for every blocked backend.
func (bk *blockedBackend) GemmFused(dsts []Scaled, alpha float64, asrcs, bsrcs []Scaled, accumulate bool, workers int) {
	if workers == 1 {
		bk.leaf(dsts, alpha, asrcs, bsrcs, accumulate)
		return
	}
	bk.parallelSlabs(dsts, alpha, asrcs, bsrcs, accumulate, workers)
}

// leaf is the sequential blocked engine — the innermost leaf of every
// multiply, plain or fused. The S/T sums form inside the packing pass (one
// extra read per extra source, no temporary), and the product reaches the
// destinations one of three ways: straight through the micro-kernel when one
// destination can absorb it (a lone destination, or an overwritten ±1-weight
// primary the others are derived from), or via the pooled scratch tile whose
// epilogue scatters into every destination with its W coefficient. All
// scratch comes from the pool, so steady state allocates nothing; fmmvet
// holds it (and everything it calls) to that.
//
//fastmm:zeroalloc
func (bk *blockedBackend) leaf(dsts []Scaled, alpha float64, asrcs, bsrcs []Scaled, accumulate bool) {
	m, k, n := asrcs[0].M.Rows(), asrcs[0].M.Cols(), bsrcs[0].M.Cols()
	tiny := m <= naiveMax && n <= naiveMax && k <= naiveMax
	if tiny && len(dsts) == 1 && len(asrcs) == 1 && len(bsrcs) == 1 &&
		dsts[0].Coeff == 1 && asrcs[0].Coeff == 1 && bsrcs[0].Coeff == 1 {
		// Plain gemm below the blocked cutoff: nothing to sum and nothing to
		// scatter, so the scratch round trip would be pure overhead.
		small(dsts[0].M, alpha, asrcs[0].M, bsrcs[0].M, accumulate && !dsts[0].Overwrite)
		return
	}
	pb := bk.pool.Get().(*packBufs)
	defer bk.pool.Put(pb)
	if tiny {
		smallSummed(pb, dsts, alpha, asrcs, bsrcs, accumulate)
		return
	}
	// An overwritten ±1-weight destination takes the whole product straight
	// from the micro-kernel — AVX2 included — across every k-panel, and the
	// other destinations are derived from it in one block-sized sweep each;
	// the per-panel scalar scatter disappears entirely.
	for i, d := range dsts {
		if (d.Coeff == 1 || d.Coeff == -1) && overwrites(d, true, accumulate) {
			bk.nest(pb, dsts[i:i+1], alpha, asrcs, bsrcs, accumulate, layout{})
			for j, o := range dsts {
				if j == i {
					continue
				}
				// d holds d.Coeff·alpha·P with d.Coeff = ±1, so
				// o.Coeff·alpha·P = (o.Coeff·d.Coeff)·d — exact, no division.
				w := o.Coeff * d.Coeff
				if overwrites(o, true, accumulate) {
					mat.Scale(o.M, w, d.M)
				} else {
					mat.Axpy(o.M, w, d.M)
				}
			}
			return
		}
	}
	bk.nest(pb, dsts, alpha, asrcs, bsrcs, accumulate, layout{})
}

// layout is how one call of the loop nest reads its operands and which of
// its tiles it computes; the zero value is the general product.
type layout struct {
	// trA (trB) says the A (B) sources hold the operand's transpose. It is
	// packed by the other side's packer, which lays out exactly the panel
	// wanted: packB of X is the packed A-panel of Xᵗ, and packA of X the
	// packed B-panel of Xᵗ — same values, same order, no transposed copy.
	trA, trB bool
	// lower computes only the micro-tiles that reach the diagonal or below
	// it: row blocks, column strips and tiles wholly above it are cut off by
	// loop bounds. diag is the global row of the destination's row 0 (its
	// column 0 is global column 0).
	lower bool
	diag  int
}

// dims is the m×k×n of the product the operands a and b stand for.
func (l layout) dims(a, b *mat.Dense) (m, k, n int) {
	m, k, n = a.Rows(), a.Cols(), b.Cols()
	if l.trA {
		m, k = k, m
	}
	if l.trB {
		n = b.Rows()
	}
	return m, k, n
}

// nest is the blocked loop nest: for each k-panel (kPanels splits k) by
// nc-wide panel of Σc·B and mc-row panel of alpha·Σc·A, pack (the first
// source overwrites the slab, the rest accumulate into it) and run the
// macro-kernel.
//
// A lone destination takes full tiles straight from the micro-kernel, its W
// coefficient folded into the packed-A scale. It keeps one mark, Overwrite:
// the micro-kernel stores the first k-panel's tiles into it and adds the
// later ones, so an overwritten destination is never zeroed or read. A
// lower-triangle layout leaves the tiles above the diagonal unwritten; its
// caller's mirror fills them. Several destinations are scattered to from the
// scratch tile.
func (bk *blockedBackend) nest(pb *packBufs, dsts []Scaled, alpha float64, asrcs, bsrcs []Scaled, accumulate bool, lay layout) {
	m, k, n := lay.dims(asrcs[0].M, bsrcs[0].M)
	direct := len(dsts) == 1
	var lone [1]Scaled
	if direct {
		d := dsts[0]
		alpha *= d.Coeff
		lone[0] = Scaled{M: d.M, Coeff: 1, Overwrite: overwrites(d, true, accumulate)}
		dsts, accumulate = lone[:], true
	}
	np := kPanels(k)
	for p := 0; p < np; p++ {
		pc, kb := kPanel(k, np, p)
		for jc := 0; jc < n; jc += nc {
			nb := min(nc, n-jc)
			for t, s := range bsrcs {
				if lay.trB {
					packA(pb.b, s.M, jc, pc, nb, kb, bk.nr, s.Coeff, t > 0)
				} else {
					packB(pb.b, s.M, pc, jc, kb, nb, bk.nr, s.Coeff, t > 0)
				}
			}
			ic0 := 0
			if lay.lower {
				// Row blocks ending above this panel's first column hold
				// no tile that reaches the diagonal.
				ic0 = max(0, (jc-lay.diag)/mc*mc)
			}
			for ic := ic0; ic < m; ic += mc {
				mb := min(mc, m-ic)
				for t, s := range asrcs {
					if lay.trA {
						packB(pb.a, s.M, pc, ic, kb, mb, bk.mr, alpha*s.Coeff, t > 0)
					} else {
						packA(pb.a, s.M, ic, pc, mb, kb, bk.mr, alpha*s.Coeff, t > 0)
					}
				}
				// Only the first k-panel may overwrite: later panels
				// accumulate the remaining rank-1 terms on top.
				bk.macroKernel(dsts, direct, pb, ic, jc, mb, nb, kb, p == 0, accumulate, lay)
			}
		}
	}
}

// packA packs the mb×kb panel of scale·A at (ic, pc) into ap in micro-panel
// order: for each group of mr rows, the kb columns are stored k-major
// ([k*mr + i]), zero-padded to a multiple of mr rows. With add set the panel
// is accumulated onto what an earlier source packed (padding included), so
// the S temporary of the explicit path becomes one extra streaming read per
// extra source.
//
// Rows are gathered four at a time, so each pass writes a 4-wide group per k
// and sweeps the micro-panel in order: ⌈mr/4⌉ passes over its cache lines
// instead of the mr strided ones of a row at a time. mr is a micro-tile
// height, or a width when packA packs a transposed B panel.
func packA(ap []float64, A *mat.Dense, ic, pc, mb, kb, mr int, scale float64, add bool) {
	for ir := 0; ir < mb; ir += mr {
		rows := min(mr, mb-ir)
		panel := ap[:mr*kb]
		ap = ap[mr*kb:]
		i := 0
		for ; i+4 <= rows; i += 4 {
			r0 := A.Row(ic + ir + i)[pc : pc+kb : pc+kb]
			// Same length as r0: no bounds checks in the loops.
			r1 := A.Row(ic + ir + i + 1)[pc : pc+kb][:len(r0)]
			r2 := A.Row(ic + ir + i + 2)[pc : pc+kb][:len(r0)]
			r3 := A.Row(ic + ir + i + 3)[pc : pc+kb][:len(r0)]
			if add {
				for kk, v := range r0 {
					d := panel[kk*mr+i : kk*mr+i+4 : kk*mr+i+4]
					d[0] += scale * v
					d[1] += scale * r1[kk]
					d[2] += scale * r2[kk]
					d[3] += scale * r3[kk]
				}
				continue
			}
			for kk, v := range r0 {
				d := panel[kk*mr+i : kk*mr+i+4 : kk*mr+i+4]
				d[0] = scale * v
				d[1] = scale * r1[kk]
				d[2] = scale * r2[kk]
				d[3] = scale * r3[kk]
			}
		}
		for ; i < mr; i++ {
			dst := panel[i:]
			switch {
			case i >= rows:
				if !add {
					for kk := 0; kk < kb; kk++ {
						dst[kk*mr] = 0
					}
				}
			case add:
				for kk, v := range A.Row(ic + ir + i)[pc : pc+kb] {
					dst[kk*mr] += scale * v
				}
			default:
				for kk, v := range A.Row(ic + ir + i)[pc : pc+kb] {
					dst[kk*mr] = scale * v
				}
			}
		}
	}
}

// packB packs the kb×nb panel of scale·B at (pc, jc) into bp in micro-panel
// order: for each group of nr columns, the kb rows are stored k-major
// ([k*nr + j]), zero-padded to a multiple of nr columns. add as for packA:
// the T temporary of the explicit path is never formed.
//
// The walk is row by row — k outer, the nr-wide strips inner — so each
// source row is read once, front to back, and each full strip is a
// fixed-width store of nr values rather than a memmove call; only the
// ragged last strip is zero-padded. nr is a micro-tile width, or a height
// when packB packs a transposed A panel.
func packB(bp []float64, B *mat.Dense, pc, jc, kb, nb, nr int, scale float64, add bool) {
	full := nb - nb%nr
	for kk := 0; kk < kb; kk++ {
		src := B.Row(pc + kk)[jc : jc+nb : jc+nb]
		// Row kk of strip j/nr starts at (j/nr)·nr·kb + kk·nr = j·kb + kk·nr.
		o := kk * nr
		for j := 0; j < full; j += nr {
			s := src[j : j+nr : j+nr]
			d := bp[o : o+nr : o+nr][:len(s)] // same length as s: no bounds checks in the loops
			switch {
			case add:
				for t, v := range s {
					d[t] += scale * v
				}
			case scale == 1:
				for t, v := range s {
					d[t] = v
				}
			default:
				for t, v := range s {
					d[t] = scale * v
				}
			}
			o += nr * kb
		}
		if full == nb {
			continue
		}
		// The ragged last strip, zero-padded to nr wide.
		s := src[full:]
		d := bp[o : o+nr : o+nr]
		switch {
		case add:
			for t, v := range s {
				d[t] += scale * v
			}
			continue
		case scale == 1:
			copy(d, s)
		default:
			for t, v := range s {
				d[t] = scale * v
			}
		}
		clear(d[len(s):])
	}
}

// macroKernel multiplies the packed mb×kb A panel by the packed kb×nb B
// panel into the destinations at (ic, jc). With direct set, full tiles go
// from the backend's micro-kernel straight into the one destination, stored
// on an overwritten destination's first k-panel and added otherwise; in every
// other case — and for border tiles always — the same kernel stores the whole
// tile into the scratch tile (the panels' zero padding makes the rows and
// columns past the border exact zeros) and the epilogue folds the valid
// rows×cols of it into every destination.
//
// A lower-triangle layout only narrows the loop bounds: strips that start
// right of the block's last row, and in each strip the tiles that end above
// its first column, lie wholly above the diagonal and are not computed. A
// tile the diagonal crosses runs whole, exactly as in the general product.
func (bk *blockedBackend) macroKernel(dsts []Scaled, direct bool, pb *packBufs, ic, jc, mb, nb, kb int, first, accumulate bool, lay layout) {
	mr, nr := bk.mr, bk.nr
	ap, bp, tile, C := pb.a, pb.b, pb.tile, dsts[0].M
	store := direct && overwrites(dsts[0], first, accumulate)
	jrEnd := nb
	if lay.lower {
		jrEnd = min(nb, lay.diag+ic+mb-jc)
	}
	for jr := 0; jr < jrEnd; jr += nr {
		cols := min(nr, nb-jr)
		bpanel := bp[(jr/nr)*nr*kb:]
		ir0 := 0
		if lay.lower {
			ir0 = max(0, (jc+jr-lay.diag-ic)/mr*mr)
		}
		for ir := ir0; ir < mb; ir += mr {
			rows := min(mr, mb-ir)
			apanel := ap[(ir/mr)*mr*kb:]
			if direct && rows == mr && cols == nr {
				bk.kern(C, ic+ir, jc+jr, kb, apanel, bpanel, store) //fastmm:allow static micro-kernel func pointer, bound at registry init
				continue
			}
			bk.kern(tile, 0, 0, kb, apanel, bpanel, true) //fastmm:allow static micro-kernel func pointer, bound at registry init
			scatterTile(dsts, tile, ic+ir, jc+jr, rows, cols, first, accumulate)
		}
	}
}

// overwrites reports whether the destination is written (=) rather than
// accumulated (+=) on the first k-panel: either the whole call overwrites or
// the destination carries the executor's first-touch mark.
func overwrites(d Scaled, first, accumulate bool) bool {
	return first && (!accumulate || d.Overwrite)
}

// scatterTile folds coeff·tile[0:rows, 0:cols] into each destination at
// (i0, j0) — the epilogue. Overwriting destinations are written outright on
// the first k-panel, so no zeroing pass ever precedes the scatter.
func scatterTile(dsts []Scaled, tile *mat.Dense, i0, j0, rows, cols int, first, accumulate bool) {
	for _, d := range dsts {
		w := d.Coeff
		ow := overwrites(d, first, accumulate)
		for i := 0; i < rows; i++ {
			src := tile.Row(i)[:cols:cols]
			dst := d.M.Row(i0 + i)[j0 : j0+cols : j0+cols]
			switch {
			case ow && w == 1:
				copy(dst, src)
			case ow && w == -1:
				for j, v := range src {
					dst[j] = -v
				}
			case ow:
				for j, v := range src {
					dst[j] = w * v
				}
			case w == 1:
				for j, v := range src {
					dst[j] += v
				}
			case w == -1:
				for j, v := range src {
					dst[j] -= v
				}
			default:
				for j, v := range src {
					dst[j] += w * v
				}
			}
		}
	}
}

// smallSummed handles operand sums below the blocked cutoff: S, T, and the
// product are formed in pooled scratch (they fit — naiveMax² floats each,
// far under one packing slab) and the product is folded into the
// destinations.
func smallSummed(pb *packBufs, dsts []Scaled, alpha float64, asrcs, bsrcs []Scaled, accumulate bool) {
	m, k, n := asrcs[0].M.Rows(), asrcs[0].M.Cols(), bsrcs[0].M.Cols()
	sumInto(pb.sS, pb.a[:m*k], m, k, asrcs)
	sumInto(pb.sT, pb.b[:k*n], k, n, bsrcs)
	pb.sP.Reset(m, n, pb.a[m*k:m*k+m*n])
	small(pb.sP, alpha, pb.sS, pb.sT, false)
	for _, d := range dsts {
		if !accumulate || d.Overwrite {
			mat.Scale(d.M, d.Coeff, pb.sP)
		} else {
			mat.Axpy(d.M, d.Coeff, pb.sP)
		}
	}
}

// sumInto stamps hdr over buf as an r×c matrix holding Σ c_t·M_t.
func sumInto(hdr *mat.Dense, buf []float64, r, c int, srcs []Scaled) {
	hdr.Reset(r, c, buf)
	mat.Scale(hdr, srcs[0].Coeff, srcs[0].M)
	for _, s := range srcs[1:] {
		mat.Axpy(hdr, s.Coeff, s.M)
	}
}

// parallelSlabs runs the call as independent sequential leaves over slabs of
// the destinations, one goroutine each, so no reductions are needed: row
// slabs (narrowing dsts and asrcs) when the problem is tall, column slabs
// (narrowing dsts and bsrcs) when wide. A slab is at least one micro-tile
// high or wide. The narrowed lists and their view headers are carved from
// two per-call allocations — spawn-path cost, like the goroutines.
func (bk *blockedBackend) parallelSlabs(dsts []Scaled, alpha float64, asrcs, bsrcs []Scaled, accumulate bool, workers int) {
	m, k, n := asrcs[0].M.Rows(), asrcs[0].M.Cols(), bsrcs[0].M.Cols()
	byRows := m >= n && m >= 2*bk.mr
	if !byRows && n < 2*bk.nr {
		bk.leaf(dsts, alpha, asrcs, bsrcs, accumulate)
		return
	}
	split, total, unit := asrcs, m, bk.mr
	if !byRows {
		split, total, unit = bsrcs, n, bk.nr
	}
	nslabs := min(workers, (total+unit-1)/unit)
	ops := make([]Scaled, nslabs*(len(dsts)+len(split)))
	hdrs := make([]mat.Dense, len(ops))
	narrow := func(list []Scaled, i, j, r, c int) []Scaled {
		out := ops[:len(list):len(list)]
		for t, s := range list {
			s.M.ViewInto(&hdrs[t], i, j, r, c)
			s.M = &hdrs[t]
			out[t] = s
		}
		ops, hdrs = ops[len(list):], hdrs[len(list):]
		return out
	}
	var wg sync.WaitGroup
	for s := 0; s < nslabs; s++ {
		lo, hi := s*total/nslabs, (s+1)*total/nslabs
		d, a, b := dsts, asrcs, bsrcs
		if byRows {
			d, a = narrow(dsts, lo, 0, hi-lo, n), narrow(asrcs, lo, 0, hi-lo, k)
		} else {
			d, b = narrow(dsts, 0, lo, m, hi-lo), narrow(bsrcs, 0, lo, k, hi-lo)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			bk.leaf(d, alpha, a, b, accumulate)
		}()
	}
	wg.Wait()
}
