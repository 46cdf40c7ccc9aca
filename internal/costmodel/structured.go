package costmodel

// Structured-operation pricing: the adjustments the tuner applies on top of
// the general-multiply time model when ranking candidates for the ATA/Syrk
// and MultiplyAdd operations.

// MoveSeconds predicts the seconds needed to stream `floats` float64 values
// through memory at the add bandwidth available to w workers. Callers count
// reads and writes separately (a copy of n values moves 2n).
func (ma Machine) MoveSeconds(floats float64, w int) float64 {
	rate := ma.AddRate(w)
	if rate <= 0 {
		return 0
	}
	return floats * 8 / (rate * 1e9)
}

// StructuredOverheadSeconds prices the extra data movement the executor's
// symmetric recursion pays beyond its multiply work: materializing the
// transpose of the ar×ac operand (read + write) plus the mirror epilogues
// over the cdim×cdim result (read half, write half).
func (ma Machine) StructuredOverheadSeconds(ar, ac, cdim, w int) float64 {
	transpose := 2 * float64(ar) * float64(ac)
	mirror := float64(cdim) * float64(cdim)
	return ma.MoveSeconds(transpose+mirror, w)
}

// AccumulateOverheadSeconds prices the epilogue of a MultiplyAdd: one axpy
// sweep over the m×n result (read the product temporary, read C, write C).
func (ma Machine) AccumulateOverheadSeconds(m, n, w int) float64 {
	return ma.MoveSeconds(3*float64(m)*float64(n), w)
}

// SymmetricTime predicts the seconds of the classical symmetric product
// (gemm.ATA or gemm.Syrk) whose gemm-equivalent triple is ⟨p,q,p⟩, on the
// named backend with w workers. A backend whose leaf engine has an nr-wide
// micro-tile runs one lower-triangle pass — the triangle, plus the tiles
// the diagonal crosses, run whole: about nr/2 more columns a row, so
// (½ + nr/2p) of the general product's flops — and then the mirror sweep.
// nr = 0 is a backend without that pass, which multiplies a materialized
// transpose in full before the mirror.
//
// It prices the tuner's classical ATA/Syrk plan and the symmetric walk's
// diagonal leaves, and seeds the batcher's admission estimate and drift
// baseline for symmetric classes that have never been measured.
func (ma Machine) SymmetricTime(backend string, p, q, nr, w int) float64 {
	full := ma.ClassicalTimeFor(backend, p, q, p, w)
	if nr <= 0 {
		return full + ma.StructuredOverheadSeconds(p, q, p, w)
	}
	share := min(1, 0.5+float64(nr)/(2*float64(p)))
	return share*full + ma.MoveSeconds(float64(p)*float64(p), w)
}
