// Package bench is the measurement harness behind every table and figure of
// the paper's evaluation (§5). It times executors with the median-of-trials
// protocol the paper uses, reports the effective-GFLOPS metric of Equation
// (3), and renders aligned text tables whose rows correspond to the points of
// the original plots. cmd/fmmbench drives it from the command line and the
// repository-root benchmarks drive it from `go test -bench`.
package bench

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"fastmm/internal/core"
	"fastmm/internal/gemm"
	"fastmm/internal/mat"
)

// Config controls problem sizes and measurement effort.
type Config struct {
	// Trials per measurement; the reported time is the median (§5).
	Trials int
	// Scale multiplies every problem dimension (1 = repository defaults,
	// sized for a pure-Go kernel; larger approaches paper-scale shapes).
	Scale float64
	// Workers is the "all cores" count (paper: 24); SmallWorkers the
	// low-core configuration that avoids the bandwidth wall (paper: 6).
	Workers      int
	SmallWorkers int
	// Quick shrinks sweeps to smoke-test size (used by unit tests).
	Quick bool
	// Out receives the rendered tables; nil discards them.
	Out io.Writer
}

func (c Config) withDefaults() Config {
	if c.Trials == 0 {
		c.Trials = 3
	}
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.Workers == 0 {
		c.Workers = min(24, runtime.GOMAXPROCS(0))
	}
	if c.SmallWorkers == 0 {
		c.SmallWorkers = min(6, runtime.GOMAXPROCS(0))
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
	return c
}

func (c Config) scaled(n int) int {
	v := int(float64(n) * c.Scale)
	if v < 1 {
		return 1
	}
	return v
}

// Point is one measured datum: a point on one series of one figure.
type Point struct {
	Series  string
	X       int // the swept dimension (the paper's x axis)
	P, Q, R int // problem shape actually multiplied
	Workers int
	Seconds float64
	Eff     float64 // effective GFLOPS, Equation (3)
	EffCore float64 // effective GFLOPS per core
}

// effective implements Equation (3).
func effective(p, q, r int, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return (2*float64(p)*float64(q)*float64(r) - float64(p)*float64(r)) / seconds * 1e-9
}

// operands returns deterministic random matrices for a problem shape, cached
// per call site via the caller (they are cheap relative to the multiplies).
func operands(p, q, r int) (*mat.Dense, *mat.Dense, *mat.Dense) {
	rng := rand.New(rand.NewSource(int64(p)*1_000_003 + int64(q)*1_009 + int64(r)))
	A := mat.New(p, q)
	B := mat.New(q, r)
	A.FillRandom(rng)
	B.FillRandom(rng)
	return A, B, mat.New(p, r)
}

// medianTime runs f trials times and returns the median duration in seconds.
func medianTime(trials int, f func()) float64 {
	if trials < 1 {
		trials = 1
	}
	ts := make([]float64, 0, trials)
	for i := 0; i < trials; i++ {
		start := time.Now()
		f()
		ts = append(ts, time.Since(start).Seconds())
	}
	sort.Float64s(ts)
	return ts[len(ts)/2]
}

// runSpec describes one executor configuration to time.
type runSpec struct {
	exec    *core.Executor
	workers int
}

// bestOf times each spec (median of trials) and returns the fastest time —
// the paper's "best of one, two, or three steps of recursion" and "best of
// BFS and HYBRID" protocol.
func bestOf(cfg Config, C, A, B *mat.Dense, specs []runSpec) float64 {
	best := -1.0
	for _, s := range specs {
		t := medianTime(cfg.Trials, func() {
			if err := s.exec.Multiply(C, A, B); err != nil {
				panic(err)
			}
		})
		if best < 0 || t < best {
			best = t
		}
	}
	return best
}

// classicalTime times the gemm baseline.
func classicalTime(cfg Config, C, A, B *mat.Dense, workers int) float64 {
	return medianTime(cfg.Trials, func() {
		if workers <= 1 {
			gemm.Mul(C, A, B)
		} else {
			gemm.MulParallel(C, 1, A, B, workers)
		}
	})
}

// table renders points grouped by X (rows) and series (columns).
func table(w io.Writer, title, metric string, pts []Point) {
	fmt.Fprintf(w, "\n%s\n", title)
	if len(pts) == 0 {
		fmt.Fprintln(w, "  (no data)")
		return
	}
	var xs []int
	var series []string
	seenX := map[int]bool{}
	seenS := map[string]bool{}
	for _, p := range pts {
		if !seenX[p.X] {
			seenX[p.X] = true
			xs = append(xs, p.X)
		}
		if !seenS[p.Series] {
			seenS[p.Series] = true
			series = append(series, p.Series)
		}
	}
	sort.Ints(xs)
	val := map[[2]interface{}]float64{}
	for _, p := range pts {
		v := p.Eff
		if metric == "eff/core" {
			v = p.EffCore
		} else if metric == "seconds" {
			v = p.Seconds
		}
		val[[2]interface{}{p.X, p.Series}] = v
	}
	fmt.Fprintf(w, "  %-8s", "N")
	for _, s := range series {
		fmt.Fprintf(w, " %12s", s)
	}
	fmt.Fprintf(w, "   [%s]\n", metric)
	for _, x := range xs {
		fmt.Fprintf(w, "  %-8d", x)
		for _, s := range series {
			if v, ok := val[[2]interface{}{x, s}]; ok {
				fmt.Fprintf(w, " %12.3f", v)
			} else {
				fmt.Fprintf(w, " %12s", "-")
			}
		}
		fmt.Fprintln(w)
	}
}
