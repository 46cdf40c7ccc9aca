// Package hot exercises the zeroalloc analyzer: roots, transitive callees,
// each allocation kind, the allowlist, and both waiver forms.
package hot

import (
	"fmt"
	"math"
	"sync/atomic"
)

type buf struct {
	data []float64
	n    int64
}

// Step is the steady-state kernel: it and everything it calls in-module must
// not allocate.
//
//fastmm:zeroalloc
func Step(b *buf, x float64) float64 {
	atomic.AddInt64(&b.n, 1) // allowlisted package
	y := math.Sqrt(x)        // allowlisted package

	b.data = append(b.data, y) // want `append may grow and reallocate`
	s := make([]float64, 4)    // want `make allocates`
	m := map[int]int{}         // want `map literal allocates`
	p := &buf{}                // want `&composite literal escapes to the heap`
	msg := "x" + fmt.Sprint(x) // want `string concatenation allocates` `call to fmt.Sprint is outside the allocation-free allowlist`

	helper(b)      // transitive callee: findings appear inside helper
	spawnWaived(b) // allow-marked callee: pruned from the graph

	_, _, _, _ = s, m, p, msg
	return y + leaf(x)
}

func helper(b *buf) {
	b.data = make([]float64, 1) // want `make allocates`
}

func leaf(x float64) float64 { return x * 2 }

// spawnWaived allocates per task by design; the directive prunes it (and
// everything only it reaches) from the zeroalloc graph.
//
//fastmm:allow spawn path allocates per task by design
func spawnWaived(b *buf) {
	b.data = append(b.data, 0)
}

// cold is unreachable from any zeroalloc root: free to allocate.
func cold() []int {
	return make([]int, 8)
}

//fastmm:zeroalloc
func Closed(xs []float64) func() float64 {
	f := func() float64 { return xs[0] } // want `closure captures variables and allocates its header`
	return f
}

//fastmm:zeroalloc
func Dyn(f func() int) int {
	return f() // want `dynamic call: cannot prove the target allocation-free`
}

//fastmm:zeroalloc
func Spawn(b *buf) {
	go spawnWaived(b) // want `go statement allocates a goroutine`
}

//fastmm:zeroalloc
func Pinned() *buf {
	b := newBuf() //fastmm:allow the one pinned allocation per run
	return b
}

// newBuf is only reached through the waived call above, so its allocation
// is not reported.
func newBuf() *buf { return &buf{} }

//fastmm:zeroalloc
func Box(x int) any {
	return any(x) // want `conversion to interface boxes the value`
}

//fastmm:zeroalloc
func Str(b []byte) string {
	return string(b) // want `to string conversion allocates`
}

// The blocked leaf engine's shape (gemm's blockedBackend.leaf): one packing
// pass per entry of a preallocated operand list — the first overwrites the
// packed panel, the rest add into it — then an epilogue dispatched through
// an interface whose call site carries an inline waiver. The pack loop
// itself must prove clean — no findings.

type operand struct {
	src   []float64
	coeff float64
}

type epilogue interface {
	scatter(dst []float64, w float64)
}

//fastmm:zeroalloc
func PackFused(dst []float64, ops []operand, ep epilogue) {
	for i, o := range ops {
		if i == 0 {
			for j := range dst {
				dst[j] = o.coeff * o.src[j]
			}
			continue
		}
		for j := range dst {
			dst[j] += o.coeff * o.src[j]
		}
	}
	ep.scatter(dst, 0.5) //fastmm:allow epilogue interface dispatch; implementations are vetted separately
}

//fastmm:zeroalloc
func PackFusedUnwaived(dst []float64, ep epilogue) {
	ep.scatter(dst, 1) // want `dynamic call: cannot prove the target allocation-free`
}
