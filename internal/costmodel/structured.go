package costmodel

// Structured-operation pricing: the time the tuner and the batcher predict
// for the classical ATA/Syrk operations.

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

// SymmetricTime predicts the seconds of the classical symmetric product
// (gemm.ATA or gemm.Syrk) whose gemm-equivalent triple is ⟨p,q,p⟩, with w
// workers. A backend whose leaf engine has an nr-wide
// micro-tile runs one lower-triangle pass — the triangle, plus the tiles
// the diagonal crosses, run whole: about nr/2 more columns a row, so
// (½ + nr/2p) of the general product's flops — and then the mirror sweep.
// nr = 0 is a backend without that pass, which multiplies a materialized
// transpose in full before the mirror: the transpose moves the p×q operand
// (read + write), the mirror the p×p result (read half, write half).
//
// It prices the tuner's ATA/Syrk plan, and seeds the batcher's admission
// estimate and drift baseline for symmetric classes that have never been
// measured.
func (ma Machine) SymmetricTime(p, q, nr, w int) float64 {
	full := ma.ClassicalTimeFor(p, q, p, w)
	mirror := float64(p) * float64(p)
	if nr <= 0 {
		return full + ma.MoveSeconds(2*float64(p)*float64(q)+mirror, w)
	}
	share := min(1, 0.5+float64(nr)/(2*float64(p)))
	return share*full + ma.MoveSeconds(mirror, w)
}
