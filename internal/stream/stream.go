//fastmm:clocked — the only clock use is Run's own measurement (waived there);
// anything else would perturb what the benchmark reports.

// Package stream is a McCalpin-STREAM-style memory bandwidth microbenchmark.
// Benson & Ballard use STREAM (§4.5) to show that on their node memory
// bandwidth scales ~5× from 1 to 24 cores while gemm scales ~24×, which makes
// the (bandwidth-bound) matrix additions of fast algorithms the parallel
// bottleneck. This package reproduces that measurement for the machine the
// repository runs on.
package stream

import (
	"sync"
	"time"
)

// Kernel identifies one STREAM operation.
type Kernel int

const (
	Copy  Kernel = iota // c[i] = a[i]
	Scale               // b[i] = s·c[i]
	Add                 // c[i] = a[i] + b[i]
	Triad               // a[i] = b[i] + s·c[i]
)

func (k Kernel) String() string {
	switch k {
	case Copy:
		return "copy"
	case Scale:
		return "scale"
	case Add:
		return "add"
	case Triad:
		return "triad"
	}
	return "unknown"
}

// bytesMoved returns the bytes read+written per element by the kernel.
func (k Kernel) bytesMoved() int {
	switch k {
	case Copy, Scale:
		return 16
	default:
		return 24
	}
}

// Result is one bandwidth measurement.
type Result struct {
	Kernel  Kernel
	Workers int
	GBps    float64
}

// Run measures the bandwidth of the kernel over n float64 elements using the
// given number of goroutines, best of trials.
//
//fastmm:wallclock the measured wall time is the benchmark's output
func Run(k Kernel, n, workers, trials int) Result {
	if workers < 1 {
		workers = 1
	}
	a := make([]float64, n)
	b := make([]float64, n)
	c := make([]float64, n)
	for i := range a {
		a[i] = 1
		b[i] = 2
		c[i] = 0
	}
	const s = 3.0

	run := func() time.Duration {
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo, hi := w*n/workers, (w+1)*n/workers
			if lo >= hi {
				continue
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				av, bv, cv := a[lo:hi], b[lo:hi], c[lo:hi]
				switch k {
				case Copy:
					copy(cv, av)
				case Scale:
					for i := range bv {
						bv[i] = s * cv[i]
					}
				case Add:
					for i := range cv {
						cv[i] = av[i] + bv[i]
					}
				case Triad:
					for i := range av {
						av[i] = bv[i] + s*cv[i]
					}
				}
			}(lo, hi)
		}
		wg.Wait()
		return time.Since(start)
	}

	run() // warm-up
	best := run()
	for t := 1; t < trials; t++ {
		if d := run(); d < best {
			best = d
		}
	}
	gb := float64(n) * float64(k.bytesMoved()) / 1e9
	return Result{Kernel: k, Workers: workers, GBps: gb / best.Seconds()}
}
