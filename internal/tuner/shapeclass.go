package tuner

import (
	"fmt"
	"math/bits"
)

// ShapeClass is a bucketed problem shape: every ⟨m,k,n⟩ whose dimensions
// round up to the same grid points shares one class, and therefore — in the
// batched dispatcher built on top of the tuner — one tuning decision and one
// warm executor. The class dimensions are themselves the representative
// shape the class is tuned at.
//
// The grid is geometric with step ratio ≤ 5/4 (values v = µ·2^e with
// mantissa µ ∈ [4,7]; the widest step is 4·2^e → 5·2^e), so a class
// representative overstates any member dimension by less than 25%. That is inside the tuner's own decision noise:
// the (algorithm, steps, scheduler, fused) winner is stable across a
// bucket even where the exact timings are not, and the executor itself
// handles any member shape via dynamic peeling, so sharing a plan across a
// class costs accuracy in the plan choice only, never correctness.
type ShapeClass struct {
	M int `json:"m"`
	K int `json:"k"`
	N int `json:"n"`
}

// ClassOf buckets a shape into its class. Dimensions must be positive (the
// callers validate; non-positive dimensions map to the smallest bucket).
func ClassOf(m, k, n int) ShapeClass {
	return ShapeClass{M: bucketDim(m), K: bucketDim(k), N: bucketDim(n)}
}

// Dims returns the class's representative shape — the one to tune at.
func (c ShapeClass) Dims() (m, k, n int) { return c.M, c.K, c.N }

func (c ShapeClass) String() string { return fmt.Sprintf("%dx%dx%d", c.M, c.K, c.N) }

// maxBucketExp caps the grid exponent so 7<<e and the mantissa arithmetic
// below stay within int: e ≤ word size − 5 keeps 7·2^e < 2^(size−2), leaving
// headroom for the ceiling add. Without the cap, a huge d made the search
// loop spin forever once 7<<e wrapped (shift counts ≥ the word size yield 0
// in Go, so the condition never turned false).
const maxBucketExp = bits.UintSize - 5

// bucketDim rounds d up to the nearest grid value µ·2^e, µ ∈ [4,7]. The
// result is always ≥ d — a class representative never understates the work
// of a member shape — except for astronomical d beyond the largest grid
// value (≥ 7·2^59 on 64-bit), which clamp to the top grid point instead of
// overflowing. No representable matrix reaches that regime; the clamp is an
// overflow guard, not a tuning path.
func bucketDim(d int) int {
	if d <= 4 {
		return 4
	}
	e := uint(0)
	for e < maxBucketExp && d > 7<<e {
		e++
	}
	if d > 7<<e {
		return 7 << maxBucketExp
	}
	// d ∈ (7·2^(e-1), 7·2^e], so ceil(d/2^e) ∈ [4,7].
	mant := (d + 1<<e - 1) >> e
	return mant << e
}
