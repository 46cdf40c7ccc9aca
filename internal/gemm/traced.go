//fastmm:clocked — gemm reads the clock only to time traced leaves; the one
// sanctioned site is DispatchTraced below.

package gemm

import (
	"time"

	"fastmm/internal/mat"
	"fastmm/internal/trace"
)

// TraceLeaf records one kernel call into tr: sp's kind (trace.KindLeaf;
// trace.KindFusedLeaf, so consumers can tell which leaves ran multi-source
// packing and the scatter epilogue; or trace.KindFixup) and level, with the
// backend, the gemm-equivalent dims and the duration filled in. Nil-safe
// and allocation-free: the kind and backend name are static strings and
// the span sink is fixed-capacity, so traced leaves stay inside the
// engine's zero-allocation budget.
func TraceLeaf(tr *trace.Spans, sp trace.Span, be Backend, m, k, n int, d time.Duration) {
	if tr == nil {
		return
	}
	sp.Backend = be.Name() //fastmm:allow interface read of the static registry name
	sp.M, sp.K, sp.N, sp.Nanos = int32(m), int32(k), int32(n), int64(d)
	tr.Add(sp)
}

// DispatchTraced is Dispatch with a span like sp recorded into tr when
// non-nil (see TraceLeaf) — the hook the recursive core's leaves and
// fix-ups and the classical baseline thread a request's trace sink
// through. With a nil sink it is exactly Dispatch plus one pointer check
// (no clock reads).
//
//fastmm:wallclock leaf timing is the span payload; monotonic Now/Since only
func DispatchTraced(be Backend, C *mat.Dense, alpha float64, A, B *mat.Dense, accumulate bool, workers int, tr *trace.Spans, sp trace.Span) {
	if tr == nil {
		Dispatch(be, C, alpha, A, B, accumulate, workers)
		return
	}
	start := time.Now()
	Dispatch(be, C, alpha, A, B, accumulate, workers)
	TraceLeaf(tr, sp, be, A.Rows(), A.Cols(), B.Cols(), time.Since(start))
}

// DispatchFusedTraced is DispatchFused with a fused-leaf span recorded into
// tr when non-nil — the fused analog of DispatchTraced.
//
//fastmm:wallclock leaf timing is the span payload; monotonic Now/Since only
func DispatchFusedTraced(be Backend, dsts []Scaled, alpha float64, asrcs, bsrcs []Scaled, accumulate bool, workers int, tr *trace.Spans) {
	if tr == nil {
		DispatchFused(be, dsts, alpha, asrcs, bsrcs, accumulate, workers)
		return
	}
	start := time.Now()
	DispatchFused(be, dsts, alpha, asrcs, bsrcs, accumulate, workers)
	m, k := asrcs[0].M.Rows(), asrcs[0].M.Cols()
	TraceLeaf(tr, trace.Span{Kind: trace.KindFusedLeaf}, be, m, k, bsrcs[0].M.Cols(), time.Since(start))
}
