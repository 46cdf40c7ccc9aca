package bench

import (
	"fmt"

	"fastmm/internal/algo"
	"fastmm/internal/catalog"
	"fastmm/internal/core"
	"fastmm/internal/gemm"
	"fastmm/internal/stability"
	"fastmm/internal/stream"
)

// runFig4 compares the three schedulers (§4.6) on the paper's three
// algorithm/shape pairs, at the low and high worker counts.
func runFig4(cfg Config) ([]Point, error) {
	panels := []struct {
		title string
		alg   string
		shape func(int) (int, int, int)
		sizes []int
	}{
		{"Fig. 4 (left): Strassen on N×N×N", "strassen", square, cfg.sizes([]int{768, 1280, 1792})},
		{"Fig. 4 (middle): <4,2,4> on N×K×N", "fast424", outer(cfg.scaled(448)), cfg.sizes([]int{1024, 1536, 2048})},
		{"Fig. 4 (right): <4,3,3> on N×K×K", "fast433", tsss(cfg.scaled(480)), cfg.sizes([]int{1024, 1536, 2048})},
	}
	if cfg.Quick {
		panels = panels[:1]
		panels[0].sizes = []int{256}
	}
	schedulers := []core.Parallel{core.DFS, core.BFS, core.Hybrid}
	workerCounts := []int{cfg.SmallWorkers, cfg.Workers}
	stepsList := []int{1, 2}
	var all []Point
	for _, panel := range panels {
		a := catalog.MustGet(panel.alg)
		var pts []Point
		for _, w := range workerCounts {
			pts = append(pts, sweepClassical(cfg, fmt.Sprintf("classical/%dw", w), panel.sizes, panel.shape, w)...)
			for _, sched := range schedulers {
				p, err := sweepFast(cfg, fmt.Sprintf("%v/%dw", sched, w), a, panel.sizes, panel.shape,
					stepsList, core.Options{Resources: core.Resources{Workers: w}, Parallel: sched})
				if err != nil {
					return nil, err
				}
				pts = append(pts, p...)
			}
		}
		table(cfg.Out, panel.title+", effective GFLOPS/core", "eff/core", pts)
		all = append(all, pts...)
	}
	return all, nil
}

// fig5 series sets, mirroring the paper's three square panels plus the two
// rectangular panels. Where an entry's rank exceeds the paper's, the provenance
// comment at its register call in internal/catalog says why.
var fig5Square = []string{
	"strassen", "winograd", "fast422", "fast323", "fast332", "fast522", "fast252",
	"fast322", "fast324", "fast423", "fast342", "fast333", "fast424", "fast234",
	"fast442", "fast433", "fast343", "fast336", "fast363", "fast633",
}

var fig5Rect = []string{"fast424", "fast433", "fast323", "fast423", "strassen"}

func runFig5(cfg Config) ([]Point, error) {
	sqSizes := cfg.sizes([]int{256, 512, 768, 1024})
	series := fig5Square
	if cfg.Quick {
		sqSizes = []int{128}
		series = series[:3]
	}
	stepsList := []int{1, 2}
	var all []Point

	var pts []Point
	pts = append(pts, sweepClassical(cfg, "classical", sqSizes, square, 1)...)
	for _, name := range series {
		p, err := sweepFast(cfg, name, catalog.MustGet(name), sqSizes, square, stepsList, core.Options{})
		if err != nil {
			return nil, err
		}
		pts = append(pts, p...)
	}
	table(cfg.Out, "Fig. 5 (top row): sequential N×N×N, effective GFLOPS", "eff", pts)
	all = append(all, pts...)
	if cfg.Quick {
		return all, nil
	}

	for _, panel := range []struct {
		title string
		shape func(int) (int, int, int)
		sizes []int
	}{
		{"Fig. 5 (bottom left): sequential N×K×N (outer-product shape)", outer(cfg.scaled(320)), cfg.sizes([]int{768, 1280, 1792})},
		{"Fig. 5 (bottom right): sequential N×K×K (tall-skinny × small)", tsss(cfg.scaled(480)), cfg.sizes([]int{1280, 1792, 2304})},
	} {
		var pts []Point
		pts = append(pts, sweepClassical(cfg, "classical", panel.sizes, panel.shape, 1)...)
		for _, name := range fig5Rect {
			p, err := sweepFast(cfg, name, catalog.MustGet(name), panel.sizes, panel.shape, stepsList, core.Options{})
			if err != nil {
				return nil, err
			}
			pts = append(pts, p...)
		}
		table(cfg.Out, panel.title+", effective GFLOPS", "eff", pts)
		all = append(all, pts...)
	}
	return all, nil
}

// fig6/7: the paper takes best of BFS+HYBRID at 6 cores and best of
// DFS+HYBRID at 24 cores.
func parallelSpecs(name string, stepsList []int, workers, smallWorkers int) func(w int) []core.Options {
	return func(w int) []core.Options {
		var scheds []core.Parallel
		if w == smallWorkers {
			scheds = []core.Parallel{core.BFS, core.Hybrid}
		} else {
			scheds = []core.Parallel{core.DFS, core.Hybrid}
		}
		var opts []core.Options
		for _, sc := range scheds {
			for _, st := range stepsList {
				opts = append(opts, core.Options{Resources: core.Resources{Workers: w}, Parallel: sc, Steps: st})
			}
		}
		return opts
	}
}

func sweepFastMulti(cfg Config, series string, name string, sizes []int, shape func(int) (int, int, int), optsList []core.Options) ([]Point, error) {
	a := catalog.MustGet(name)
	var specs []runSpec
	for _, o := range optsList {
		e, err := core.New(a, o)
		if err != nil {
			return nil, err
		}
		specs = append(specs, runSpec{exec: e, workers: o.Workers})
	}
	var pts []Point
	for _, n := range sizes {
		p, q, r := shape(n)
		A, B, C := operands(p, q, r)
		secs := bestOf(cfg, C, A, B, specs)
		w := optsList[0].Workers
		eff := effective(p, q, r, secs)
		pts = append(pts, Point{Series: series, X: n, P: p, Q: q, R: r,
			Workers: w, Seconds: secs, Eff: eff, EffCore: eff / float64(w)})
	}
	return pts, nil
}

var fig6Series = []string{"strassen", "winograd", "fast333", "fast424", "fast433", "fast442", "fast322"}

func runFig6(cfg Config) ([]Point, error) {
	sizes := cfg.sizes([]int{1280, 1792, 2304})
	series := fig6Series
	if cfg.Quick {
		sizes = []int{320}
		series = series[:2]
	}
	stepsList := []int{1, 2}
	var all []Point
	for _, w := range []int{cfg.SmallWorkers, cfg.Workers} {
		var pts []Point
		pts = append(pts, sweepClassical(cfg, "classical", sizes, square, w)...)
		for _, name := range series {
			optsList := parallelSpecs(name, stepsList, cfg.Workers, cfg.SmallWorkers)(w)
			p, err := sweepFastMulti(cfg, name, name, sizes, square, optsList)
			if err != nil {
				return nil, err
			}
			pts = append(pts, p...)
		}
		table(cfg.Out, fmt.Sprintf("Fig. 6: parallel N×N×N with %d workers, effective GFLOPS/core", w), "eff/core", pts)
		all = append(all, pts...)
	}
	return all, nil
}

func runFig7(cfg Config) ([]Point, error) {
	panels := []struct {
		title string
		shape func(int) (int, int, int)
		sizes []int
	}{
		{"Fig. 7 (left): parallel N×K×N", outer(cfg.scaled(448)), cfg.sizes([]int{1536, 2048, 2560})},
		{"Fig. 7 (right): parallel N×K×K", tsss(cfg.scaled(480)), cfg.sizes([]int{1792, 2304, 2816})},
	}
	series := fig5Rect
	if cfg.Quick {
		panels = panels[:1]
		panels[0].sizes = []int{384}
		series = series[:2]
	}
	stepsList := []int{1, 2}
	var all []Point
	for _, panel := range panels {
		for _, w := range []int{cfg.SmallWorkers, cfg.Workers} {
			var pts []Point
			pts = append(pts, sweepClassical(cfg, "classical", panel.sizes, panel.shape, w)...)
			for _, name := range series {
				optsList := parallelSpecs(name, stepsList, cfg.Workers, cfg.SmallWorkers)(w)
				p, err := sweepFastMulti(cfg, name, name, panel.sizes, panel.shape, optsList)
				if err != nil {
					return nil, err
				}
				pts = append(pts, p...)
			}
			table(cfg.Out, fmt.Sprintf("%s, %d workers, effective GFLOPS/core", panel.title, w), "eff/core", pts)
			all = append(all, pts...)
		}
	}
	return all, nil
}

// runSquare54 reproduces the §5.2 experiment: the composed
// ⟨3,3,6⟩∘⟨3,6,3⟩∘⟨6,3,3⟩ algorithm is asymptotically the fastest in the
// catalog yet loses at every practical size.
func runSquare54(cfg Config) ([]Point, error) {
	sizes := cfg.sizes([]int{540, 1080})
	if cfg.Quick {
		sizes = []int{162}
	}
	w := cfg.SmallWorkers
	var pts []Point
	pts = append(pts, sweepClassical(cfg, "classical", sizes, square, w)...)

	strassenOpts := []core.Options{
		{Parallel: core.BFS, Resources: core.Resources{Workers: w}, Steps: 2},
		{Parallel: core.Hybrid, Resources: core.Resources{Workers: w}, Steps: 2},
		{Parallel: core.Hybrid, Resources: core.Resources{Workers: w}, Steps: 3},
	}
	p, err := sweepFastMulti(cfg, "strassen", "strassen", sizes, square, strassenOpts)
	if err != nil {
		return nil, err
	}
	pts = append(pts, p...)

	exec, err := buildSchedule([]string{"fast336", "fast363", "fast633"},
		core.Options{Resources: core.Resources{Workers: w}, Parallel: core.BFS, Steps: 3})
	if err != nil {
		return nil, err
	}
	for _, n := range sizes {
		p, q, r := square(n)
		A, B, C := operands(p, q, r)
		secs := medianTime(cfg.Trials, func() {
			if err := exec.Multiply(C, A, B); err != nil {
				panic(err)
			}
		})
		eff := effective(p, q, r, secs)
		pts = append(pts, Point{Series: "composed54", X: n, P: p, Q: q, R: r,
			Workers: w, Seconds: secs, Eff: eff, EffCore: eff / float64(w)})
	}
	comp := catalog.MustGet("fast336")
	fmt.Fprintf(cfg.Out, "\n§5.2: composed <54,54,54> exponent = %.3f (paper: 2.775 with rank-40 <3,3,6>; this repo's <3,3,6> has rank %d)\n",
		comp.Exponent(), comp.Rank())
	table(cfg.Out, fmt.Sprintf("§5.2: square multiplication, %d workers, effective GFLOPS/core", w), "eff/core", pts)
	return pts, nil
}

// buildSchedule assembles a level-cycling executor from catalog names.
func buildSchedule(names []string, opts core.Options) (*core.Executor, error) {
	list := make([]*algo.Algorithm, 0, len(names))
	for _, n := range names {
		a, err := catalog.Get(n)
		if err != nil {
			return nil, err
		}
		list = append(list, a)
	}
	return core.NewSchedule(list, opts)
}

// runStream reproduces the §4.5 bandwidth argument: triad bandwidth and gemm
// throughput, both normalized to their single-worker value.
func runStream(cfg Config) ([]Point, error) {
	counts := []int{1, 2, 4, 8, 16, cfg.Workers}
	n := 1 << 25
	gemmN := cfg.scaled(768)
	if cfg.Quick {
		counts = []int{1, 2}
		n = 1 << 20
		gemmN = 128
	}
	w := cfg.Out
	fmt.Fprintf(w, "\n§4.5: scaling of bandwidth (STREAM triad) vs compute (gemm %d³)\n", gemmN)
	fmt.Fprintf(w, "  %-8s %12s %12s %12s %12s\n", "workers", "triad GB/s", "triad ×", "gemm GF/s", "gemm ×")
	var base float64
	var gemmBase float64
	var pts []Point
	for _, c := range counts {
		r := stream.Run(stream.Triad, n, c, 3)
		A, B, C := operands(gemmN, gemmN, gemmN)
		gsecs := medianTime(cfg.Trials, func() { gemm.MulParallel(C, 1, A, B, c) })
		gf := effective(gemmN, gemmN, gemmN, gsecs)
		if base == 0 {
			base, gemmBase = r.GBps, gf
		}
		fmt.Fprintf(w, "  %-8d %12.2f %12.2f %12.2f %12.2f\n", c, r.GBps, r.GBps/base, gf, gf/gemmBase)
		pts = append(pts, Point{Series: "triad", X: c, Workers: c, Eff: r.GBps},
			Point{Series: "gemm", X: c, Workers: c, Eff: gf})
	}
	return pts, nil
}

var stabilitySet = []string{"strassen", "winograd", "fast424", "fast433", "fast336"}

func runStability(cfg Config) ([]Point, error) {
	n := cfg.scaled(192)
	maxSteps := 3
	set := stabilitySet
	if cfg.Quick {
		n, maxSteps = 64, 2
		set = set[:1]
	}
	w := cfg.Out
	fmt.Fprintf(w, "\n§6: normwise relative forward error on %d×%d×%d (×machine eps in parens)\n", n, n, n)
	fmt.Fprintf(w, "  %-10s", "steps")
	for _, name := range set {
		fmt.Fprintf(w, " %18s", name)
	}
	fmt.Fprintln(w)
	var pts []Point
	for s := 0; s <= maxSteps; s++ {
		fmt.Fprintf(w, "  %-10d", s)
		for _, name := range set {
			m, err := stability.Measure(catalog.MustGet(name), s, n, 99)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(w, " %9.2e (%5.0f)", m.RelError, stability.GrowthFactor(m))
			pts = append(pts, Point{Series: name, X: s, Eff: m.RelError})
		}
		fmt.Fprintln(w)
	}
	return pts, nil
}
