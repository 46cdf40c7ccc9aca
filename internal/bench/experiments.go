package bench

import (
	"fmt"
	"sort"

	"fastmm/internal/addchain"
	"fastmm/internal/algo"
	"fastmm/internal/catalog"
	"fastmm/internal/core"
)

// Experiment regenerates one table or figure of the paper.
type Experiment struct {
	Name  string
	Title string
	Run   func(cfg Config) ([]Point, error)
}

var experiments []Experiment

func registerExperiment(name, title string, run func(Config) ([]Point, error)) {
	experiments = append(experiments, Experiment{Name: name, Title: title, Run: run})
}

// Names lists the registered experiment ids in registration order.
func Names() []string {
	out := make([]string, len(experiments))
	for i, e := range experiments {
		out[i] = e.Name
	}
	return out
}

// Lookup returns the experiment with the given id.
func Lookup(name string) (Experiment, error) {
	for _, e := range experiments {
		if e.Name == name {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (known: %v)", name, Names())
}

// Run executes one experiment by id.
func Run(name string, cfg Config) ([]Point, error) {
	e, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	return e.Run(cfg.withDefaults())
}

func init() {
	registerExperiment("table2", "Table 2: algorithm summary (rank, classical mults, speedup per step)", runTable2)
	registerExperiment("table3", "Table 3: greedy length-2 CSE savings on S/T formation", runTable3)
	registerExperiment("fig1", "Fig. 1: sequential Strassen vs classical on N×N×N", runFig1)
	registerExperiment("fig2", "Fig. 2: addition strategies × CSE for <4,2,4> and <4,2,3>", runFig2)
	registerExperiment("fig3", "Fig. 3: classical gemm ramp-up curves (3 shapes, seq + parallel)", runFig3)
	registerExperiment("fig4", "Fig. 4: DFS vs BFS vs HYBRID on three algorithm/shape pairs", runFig4)
	registerExperiment("fig5", "Fig. 5: sequential performance of the full catalog", runFig5)
	registerExperiment("fig6", "Fig. 6: parallel performance on square problems", runFig6)
	registerExperiment("fig7", "Fig. 7: parallel performance on rectangular problems", runFig7)
	registerExperiment("square54", "§5.2: composed <54,54,54> (asymptotically fastest) vs Strassen", runSquare54)
	registerExperiment("stream", "§4.5: memory bandwidth vs gemm scaling with cores", runStream)
	registerExperiment("stability", "§6: forward error of fast algorithms vs recursion depth", runStability)
	registerExperiment("nnz", "§6 ablation: rank vs factor sparsity (<3,2,3> rank 17 sparse vs rank 15 dense)", runNNZ)
}

// runNNZ is an ablation supporting the paper's §6 conclusion 3: for a given
// rank, the number of nonzeros in JU,V,WK (the communication cost of the
// additions) decides practical performance. The repo's search found a
// rank-15 ⟨3,2,3⟩ decomposition — matching Table 2's rank — but with dense
// factors; the sparse rank-17 construction beats it despite doing more
// multiplications.
func runNNZ(cfg Config) ([]Point, error) {
	k0 := cfg.scaled(256)
	sizes := cfg.sizes([]int{768, 1280, 1792})
	if cfg.Quick {
		sizes = []int{192}
	}
	var pts []Point
	w := cfg.Out
	fmt.Fprintf(w, "\n§6 ablation: <3,2,3> algorithms on N×%d×N\n", k0)
	for _, name := range []string{"fast323", "fast323n"} {
		a := catalog.MustGet(name)
		u, v, wz := a.NNZ()
		fmt.Fprintf(w, "  %-10s rank %2d, nnz %3d, flat additions %d\n", name, a.Rank(), u+v+wz, a.Additions())
		p, err := sweepFast(cfg, name, a, sizes, outer(k0), []int{1, 2}, core.Options{})
		if err != nil {
			return nil, err
		}
		pts = append(pts, p...)
	}
	table(cfg.Out, "rank-15-dense vs rank-17-sparse, effective GFLOPS", "eff", pts)
	fmt.Fprintln(w, "  expectation: at moderate N the sparse rank-17 entry wins — nnz(U,V,W)")
	fmt.Fprintln(w, "  drives the bandwidth-bound addition phase (§6). As N grows the O(N^ω)")
	fmt.Fprintln(w, "  multiplication saving of the lower rank amortizes the O(N²) additions")
	fmt.Fprintln(w, "  and the dense rank-15 entry crosses over.")
	return pts, nil
}

// ---------------------------------------------------------------- tables

func runTable2(cfg Config) ([]Point, error) {
	w := cfg.Out
	fmt.Fprintf(w, "\nTable 2 (reproduction): fast algorithm summary\n")
	fmt.Fprintf(w, "  %-12s %-9s %5s %5s %9s %9s %9s %6s\n",
		"algorithm", "base", "rank", "cls", "paperRank", "speedup", "exponent", "nnz")
	names := catalog.Names()
	sort.Slice(names, func(i, j int) bool {
		a, b := catalog.MustGet(names[i]), catalog.MustGet(names[j])
		return a.SpeedupPerStep() < b.SpeedupPerStep()
	})
	for _, n := range names {
		a := catalog.MustGet(n)
		u, v, wz := a.NNZ()
		paper := "-"
		if pr := catalog.PaperRankOf(n); pr > 0 {
			paper = fmt.Sprintf("%d", pr)
		}
		fmt.Fprintf(w, "  %-12s %-9s %5d %5d %9s %8.0f%% %9.3f %6d\n",
			n, a.Base.String(), a.Rank(), a.ClassicalMults(), paper,
			(a.SpeedupPerStep()-1)*100, a.Exponent(), u+v+wz)
	}
	return nil, nil
}

// table3Set is the algorithm set of the paper's Table 3.
var table3Set = []string{"fast333", "fast424", "fast432", "fast433", "fast522"}

func runTable3(cfg Config) ([]Point, error) {
	w := cfg.Out
	fmt.Fprintf(w, "\nTable 3 (reproduction): CSE on the S/T addition chains\n")
	fmt.Fprintf(w, "  %-10s %9s %6s %11s %6s\n", "algorithm", "original", "CSE", "eliminated", "saved")
	for _, n := range table3Set {
		a := catalog.MustGet(n)
		sp := addchain.FromColumns(a.U)
		tp := addchain.FromColumns(a.V)
		orig := sp.Additions() + tp.Additions()
		s1 := sp.ApplyCSE()
		s2 := tp.ApplyCSE()
		fmt.Fprintf(w, "  %-10s %9d %6d %11d %6d\n",
			n, orig, sp.Additions()+tp.Additions(), s1.Eliminated+s2.Eliminated, s1.AdditionsSaved+s2.AdditionsSaved)
	}
	return nil, nil
}

// ---------------------------------------------------------------- helpers

// fastSpecs builds one runSpec per entry in stepsList.
func fastSpecs(a *algo.Algorithm, stepsList []int, opts core.Options) ([]runSpec, error) {
	var specs []runSpec
	for _, s := range stepsList {
		o := opts
		o.Steps = s
		e, err := core.New(a, o)
		if err != nil {
			return nil, err
		}
		specs = append(specs, runSpec{exec: e, workers: o.Workers})
	}
	return specs, nil
}

// sweepFast measures one algorithm series over sizes.
func sweepFast(cfg Config, series string, a *algo.Algorithm, sizes []int, shape func(n int) (int, int, int), stepsList []int, opts core.Options) ([]Point, error) {
	specs, err := fastSpecs(a, stepsList, opts)
	if err != nil {
		return nil, err
	}
	var pts []Point
	for _, n := range sizes {
		p, q, r := shape(n)
		A, B, C := operands(p, q, r)
		secs := bestOf(cfg, C, A, B, specs)
		w := opts.Workers
		if w == 0 {
			w = 1
		}
		eff := effective(p, q, r, secs)
		pts = append(pts, Point{Series: series, X: n, P: p, Q: q, R: r,
			Workers: w, Seconds: secs, Eff: eff, EffCore: eff / float64(w)})
	}
	return pts, nil
}

// sweepClassical measures the gemm baseline over sizes.
func sweepClassical(cfg Config, series string, sizes []int, shape func(n int) (int, int, int), workers int) []Point {
	var pts []Point
	for _, n := range sizes {
		p, q, r := shape(n)
		A, B, C := operands(p, q, r)
		secs := classicalTime(cfg, C, A, B, workers)
		eff := effective(p, q, r, secs)
		pts = append(pts, Point{Series: series, X: n, P: p, Q: q, R: r,
			Workers: workers, Seconds: secs, Eff: eff, EffCore: eff / float64(workers)})
	}
	return pts
}

func square(n int) (int, int, int) { return n, n, n }

func outer(k int) func(int) (int, int, int) {
	return func(n int) (int, int, int) { return n, k, n }
}

func tsss(k int) func(int) (int, int, int) { // tall-skinny times small-square
	return func(n int) (int, int, int) { return n, k, k }
}

func (c Config) sizes(all []int) []int {
	if c.Quick {
		return all[:1]
	}
	out := make([]int, len(all))
	for i, n := range all {
		out[i] = c.scaled(n)
	}
	return out
}

// ---------------------------------------------------------------- figures

func runFig1(cfg Config) ([]Point, error) {
	sizes := cfg.sizes([]int{256, 512, 768, 1024})
	if cfg.Quick {
		sizes = []int{128}
	}
	var pts []Point
	pts = append(pts, sweepClassical(cfg, "classical", sizes, square, 1)...)
	steps := []int{1, 2, 3}
	for _, s := range []struct {
		series string
		name   string
		cse    bool
	}{
		{"strassen", "strassen", false},
		{"winograd+cse", "winograd", true},
	} {
		a := catalog.MustGet(s.name)
		p, err := sweepFast(cfg, s.series, a, sizes, square, steps, core.Options{CSE: s.cse})
		if err != nil {
			return nil, err
		}
		pts = append(pts, p...)
	}
	if gen := generatedStrassenSeries; gen != nil {
		p, err := gen(cfg, sizes)
		if err != nil {
			return nil, err
		}
		pts = append(pts, p...)
	}
	table(cfg.Out, "Fig. 1: sequential N×N×N, effective GFLOPS (Eq. 3)", "eff", pts)
	return pts, nil
}

// generatedStrassenSeries is installed by callers that link the generated
// Strassen implementation (cmd/fmmbench, bench_test), keeping this package
// decoupled from the codegen output.
var generatedStrassenSeries func(cfg Config, sizes []int) ([]Point, error)

// SetGeneratedStrassen installs the generated-code series for fig1.
func SetGeneratedStrassen(f func(cfg Config, sizes []int) ([]Point, error)) {
	generatedStrassenSeries = f
}

func runFig2(cfg Config) ([]Point, error) {
	type variant struct {
		label string
		strat addchain.Strategy
		cse   bool
	}
	variants := []variant{
		{"write-once", addchain.WriteOnce, false},
		{"write-once+cse", addchain.WriteOnce, true},
		{"streaming", addchain.Streaming, false},
		{"streaming+cse", addchain.Streaming, true},
		{"pairwise", addchain.Pairwise, false},
		{"pairwise+cse", addchain.Pairwise, true},
	}
	var all []Point
	for _, panel := range []struct {
		title string
		alg   string
		shape func(int) (int, int, int)
		sizes []int
		steps int
	}{
		{"Fig. 2 (left pair): <4,2,4> on N×K×N", "fast424", outer(cfg.scaled(384)), cfg.sizes([]int{512, 896, 1280}), 1},
		{"Fig. 2 (left pair): <4,2,4> on N×K×N, two steps", "fast424", outer(cfg.scaled(384)), cfg.sizes([]int{512, 896, 1280}), 2},
		{"Fig. 2 (right pair): <4,2,3> on N×N×N", "fast423", square, cfg.sizes([]int{384, 640, 896}), 1},
		{"Fig. 2 (right pair): <4,2,3> on N×N×N, two steps", "fast423", square, cfg.sizes([]int{384, 640, 896}), 2},
	} {
		a := catalog.MustGet(panel.alg)
		var pts []Point
		for _, v := range variants {
			p, err := sweepFast(cfg, v.label, a, panel.sizes, panel.shape, []int{panel.steps},
				core.Options{Strategy: v.strat, CSE: v.cse})
			if err != nil {
				return nil, err
			}
			pts = append(pts, p...)
		}
		table(cfg.Out, panel.title+", effective GFLOPS", "eff", pts)
		all = append(all, pts...)
		if cfg.Quick {
			break
		}
	}
	return all, nil
}

func runFig3(cfg Config) ([]Point, error) {
	k0 := cfg.scaled(256)
	seqSizes := cfg.sizes([]int{128, 256, 512, 768, 1024, 1536})
	parSizes := cfg.sizes([]int{512, 1024, 1536, 2048, 2816})
	if cfg.Quick {
		seqSizes, parSizes = []int{192}, []int{384}
	}
	shapes := []struct {
		label string
		shape func(int) (int, int, int)
	}{
		{"NxKxK", tsss(k0)},
		{"NxKxN", outer(k0)},
		{"NxNxN", square},
	}
	var all []Point
	var seq []Point
	for _, s := range shapes {
		seq = append(seq, sweepClassical(cfg, s.label, seqSizes, s.shape, 1)...)
	}
	table(cfg.Out, fmt.Sprintf("Fig. 3 (left): sequential gemm, K=%d, GFLOPS", k0), "eff", seq)
	all = append(all, seq...)
	var par []Point
	for _, s := range shapes {
		par = append(par, sweepClassical(cfg, s.label, parSizes, s.shape, cfg.Workers)...)
	}
	table(cfg.Out, fmt.Sprintf("Fig. 3 (right): parallel gemm (%d workers), K=%d, GFLOPS/core", cfg.Workers, k0), "eff/core", par)
	return append(all, par...), nil
}
