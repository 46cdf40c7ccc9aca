// Quickstart: multiply two matrices with Strassen's algorithm through the
// public API, check the result against the classical kernel, and compare
// times.
//
//	go run ./examples/quickstart [N]
package main

import (
	"fmt"
	"log"
	"math"
	"os"
	"strconv"
	"time"

	"fastmm"
)

func main() {
	n := 1024
	if len(os.Args) > 1 {
		if v, err := strconv.Atoi(os.Args[1]); err == nil {
			n = v
		}
	}

	A := fastmm.RandomMatrix(n, n, 1)
	B := fastmm.RandomMatrix(n, n, 2)

	// Classical baseline (the repository's blocked gemm).
	ref := fastmm.NewMatrix(n, n)
	start := time.Now()
	fastmm.Classical(ref, A, B)
	classicalTime := time.Since(start)

	// Strassen with two recursive steps, write-once additions.
	C := fastmm.NewMatrix(n, n)
	exec, err := fastmm.NewExecutor("strassen", fastmm.Options{Steps: 2})
	if err != nil {
		log.Fatal(err)
	}
	start = time.Now()
	if err := exec.Multiply(C, A, B); err != nil {
		log.Fatal(err)
	}
	strassenTime := time.Since(start)

	// Verify.
	var maxDiff float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			// A NaN on either side counts as +Inf, so it can never pass.
			d := math.Abs(C.At(i, j) - ref.At(i, j))
			if math.IsNaN(d) {
				d = math.Inf(1)
			}
			if d > maxDiff {
				maxDiff = d
			}
		}
	}

	fmt.Printf("N = %d\n", n)
	fmt.Printf("classical: %8.3fs  (%.2f effective GFLOPS)\n",
		classicalTime.Seconds(), fastmm.EffectiveGFLOPS(n, n, n, classicalTime.Seconds()))
	fmt.Printf("strassen:  %8.3fs  (%.2f effective GFLOPS)\n",
		strassenTime.Seconds(), fastmm.EffectiveGFLOPS(n, n, n, strassenTime.Seconds()))
	fmt.Printf("speedup: %.2f×, max |diff| = %.2e\n",
		classicalTime.Seconds()/strassenTime.Seconds(), maxDiff)
}
