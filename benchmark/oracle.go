package main

import (
	"math"
	"math/rand"

	"fastmm/internal/catalog"
	"fastmm/internal/mat"
	"fastmm/internal/op"
	"fastmm/internal/tuner"
)

const (
	// oracleEntries is how many seeded entries of each output are recomputed.
	oracleEntries = 2048
	// oracleTol bounds max|C−Ĉ| / (k·‖A‖max·‖B‖max), the normalisation of
	// internal/stability, for plans built on exact algorithms.
	oracleTol = 1e-12
)

// tolerance is the oracle's bound for outputs of the dispatcher whose tuning
// cache is current. The catalog holds one algorithm found by numerical search
// whose coefficients are exact only to least-squares precision
// (algo.Algorithm.Numeric); when the tuner picked it for any shape, outputs
// are held to the accuracy the catalog itself verified it to, not to 1e-12 —
// the loss still shows in stability.rel_err_max.
func tolerance() float64 {
	tol := oracleTol
	for _, p := range tuner.Entries() {
		if a, err := catalog.Get(p.Algorithm); err == nil && a.Numeric {
			tol = max(tol, a.ApproxTol())
		}
	}
	return tol
}

// oracleResult is the verdict on one output matrix.
type oracleResult struct {
	RelErr  float64
	Checked int
	OK      bool
}

// checkOutput recomputes seeded entries of req.C — the result of
// C = Alpha·op(A,B) + Beta·C0 — by compensated dot products of the operand
// rows and columns, and passes the output iff every one is within tol. c0 is
// C before the call and is read only when the request accumulates. A NaN or
// Inf anywhere in the sampled entries fails.
func checkOutput(req op.Request, c0 *mat.Dense, seed int64, tol float64) oracleResult {
	req = req.Normalized()
	m, k, n := req.Shape()
	rng := rand.New(rand.NewSource(seed))
	entries := min(oracleEntries, m*n)

	a, b := req.A, req.B
	scale := math.Abs(req.Alpha) * float64(k) * a.MaxAbs()
	if b != nil {
		scale *= b.MaxAbs()
	} else {
		scale *= a.MaxAbs()
	}
	if scale == 0 {
		scale = 1
	}

	res := oracleResult{Checked: entries, OK: true}
	for e := 0; e < entries; e++ {
		i, j := rng.Intn(m), rng.Intn(n)
		var sum, comp float64
		for p := 0; p < k; p++ {
			var x, y float64
			switch req.Op {
			case op.ATA: // C = AᵗA: column i · column j
				x, y = a.At(p, i), a.At(p, j)
			case op.Syrk: // C = A·Aᵗ: row i · row j
				x, y = a.At(i, p), a.At(j, p)
			default:
				x, y = a.At(i, p), b.At(p, j)
			}
			t := x*y - comp
			s := sum + t
			comp = (s - sum) - t
			sum = s
		}
		want := req.Alpha * sum
		if req.Beta != 0 {
			want += req.Beta * c0.At(i, j)
		}
		rel := math.Abs(req.C.At(i, j)-want) / scale
		if math.IsNaN(rel) || math.IsInf(rel, 0) {
			rel = math.MaxFloat64 // keeps the report encodable as JSON
		}
		if rel > tol {
			res.OK = false
		}
		res.RelErr = max(res.RelErr, rel)
	}
	return res
}
