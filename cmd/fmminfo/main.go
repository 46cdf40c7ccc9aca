// Command fmminfo prints the static reproductions of the paper's Table 2
// (algorithm summary) and Table 3 (CSE savings), plus per-algorithm detail:
// factor sparsity, addition plans, and read/write costs under the three
// addition strategies of §3.2.
//
// Usage:
//
//	fmminfo -table2
//	fmminfo -table3
//	fmminfo -alg fast424          # one algorithm in depth
//	fmminfo -alg fast424 -model   # plus its priced walk and workspace
//	fmminfo                       # everything
package main

import (
	"flag"
	"fmt"
	"os"

	"fastmm/internal/addchain"
	"fastmm/internal/algo"
	"fastmm/internal/bench"
	"fastmm/internal/catalog"
	"fastmm/internal/core"
	"fastmm/internal/costmodel"
)

func main() {
	t2 := flag.Bool("table2", false, "print the Table 2 reproduction")
	t3 := flag.Bool("table3", false, "print the Table 3 reproduction")
	alg := flag.String("alg", "", "print detail for one algorithm")
	dump := flag.Bool("dump", false, "with -alg: dump the U, V, W coefficient file")
	model := flag.Bool("model", false, "with -alg: print the analytic cost model across sizes")
	flag.Parse()

	cfg := bench.Config{Out: os.Stdout}
	all := !*t2 && !*t3 && *alg == ""

	if *t2 || all {
		if _, err := bench.Run("table2", cfg); err != nil {
			fatal(err)
		}
	}
	if *t3 || all {
		if _, err := bench.Run("table3", cfg); err != nil {
			fatal(err)
		}
	}
	if *alg != "" {
		a, err := catalog.Get(*alg)
		if err != nil {
			fatal(err)
		}
		detail(a)
		if *model {
			printModel(a)
		}
		if *dump {
			fmt.Println()
			if err := algo.Format(os.Stdout, a); err != nil {
				fatal(err)
			}
		}
	}
}

// printModel prices the algorithm across a size sweep through the
// executor's own walk: total flops relative to classical, addition share,
// the multiplication ratio, and the executor's WorkspaceBytes (in MiB,
// packing slabs included) for a sequential depth-first and a BFS traversal.
func printModel(a *algo.Algorithm) {
	b := a.Base
	fmt.Printf("\n  analytic cost model (write-once additions, no CSE; workspace in MiB):\n")
	fmt.Printf("  %6s %5s %12s %9s %9s %12s %12s\n",
		"N", "steps", "flops/cls", "add%", "mulRatio", "ws(DFS)", "ws(BFS)")
	for _, steps := range []int{1, 2, 3} {
		// Pick N so every level divides evenly.
		base := b.M * b.K * b.N
		n := 1
		for i := 0; i < steps; i++ {
			n *= base
		}
		if n < 64 {
			n *= 64 / n
		}
		// Round n up to a multiple of the per-dimension products.
		dm, dk, dn := pow(b.M, steps), pow(b.K, steps), pow(b.N, steps)
		l := lcm(lcm(dm, dk), dn)
		n = ((n + l - 1) / l) * l
		seq, bfs := executor(a, steps, core.Sequential), executor(a, steps, core.BFS)
		c := costmodel.Evaluate(seq, n, n, n)
		nf := float64(n)
		classical := 2*nf*nf*nf - nf*nf
		const mib = 1 << 20
		fmt.Printf("  %6d %5d %12.4f %8.2f%% %9.3f %12.3f %12.3f\n",
			n, steps, c.Flops()/classical, 100*c.AddFlops/c.Flops(), classical/c.MulFlops,
			float64(seq.WorkspaceBytes(n, n, n))/mib, float64(bfs.WorkspaceBytes(n, n, n))/mib)
	}
}

// executor builds the write-once executor of the given depth and scheduler.
func executor(a *algo.Algorithm, steps int, par core.Parallel) *core.Executor {
	e, err := core.New(a, core.Options{Steps: steps, Parallel: par})
	if err != nil {
		fatal(err)
	}
	return e
}

func pow(b, e int) int {
	out := 1
	for i := 0; i < e; i++ {
		out *= b
	}
	return out
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b int) int { return a / gcd(a, b) * b }

func detail(a *algo.Algorithm) {
	u, v, w := a.NNZ()
	fmt.Printf("\n%s: base %v, rank %d (classical %d), speedup/step %.1f%%, exponent %.3f\n",
		a.Name, a.Base, a.Rank(), a.ClassicalMults(), (a.SpeedupPerStep()-1)*100, a.Exponent())
	fmt.Printf("  nnz(U,V,W) = %d + %d + %d = %d; flat additions %d\n", u, v, w, u+v+w, a.Additions())

	splan := addchain.FromColumns(a.U)
	tplan := addchain.FromColumns(a.V)
	cplan := addchain.FromRows(a.W)
	fmt.Printf("  %-14s %9s %9s %9s\n", "strategy", "S reads/w", "T reads/w", "C reads/w")
	for _, s := range []addchain.Strategy{addchain.Pairwise, addchain.WriteOnce, addchain.Streaming} {
		cs, ct, cc := splan.Cost(s), tplan.Cost(s), cplan.Cost(s)
		fmt.Printf("  %-14s %5d/%-4d %5d/%-4d %5d/%-4d\n", s,
			cs.Reads, cs.Writes, ct.Reads, ct.Writes, cc.Reads, cc.Writes)
	}
	st1 := splan.ApplyCSE()
	st2 := tplan.ApplyCSE()
	fmt.Printf("  CSE on S/T: %d subexpressions eliminated, %d additions saved (%d → %d)\n",
		st1.Eliminated+st2.Eliminated, st1.AdditionsSaved+st2.AdditionsSaved,
		st1.OriginalAdditions+st2.OriginalAdditions, st1.FinalAdditions+st2.FinalAdditions)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
