// Command benchmark is the repository benchmark: the paper's yardstick —
// effective GFLOPS (Eq. 3) of fastmm.Auto and the Batcher against the best
// classical gemm on the same machine — on four named workloads, with an
// outside-in attribution of the time to the repository's layers.
//
//	go run ./benchmark -seed 1                       every workload, both passes, each in a fresh process
//	go run ./benchmark -workload square-seq          one workload, end-to-end metrics
//	go run ./benchmark -workload square-seq -trace 1 the traced pass: per-layer metrics and a span file
//	go run ./benchmark -compare DIR_A DIR_B          two result sets against the bounds
//
// BENCHMARK.json at the repository root is the contract a driver runs this
// under; README.md in this directory explains every workload and metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// config is one invocation's command line.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Tiny     bool
	Out      string
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output: the contract with the driver.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result is what one run writes to <out>/<workload>.s<seed>.t<trace>.json.
type result struct {
	Workload string         `json:"workload"`
	Trace    int            `json:"trace"`
	Env      environment    `json:"environment"`
	Detail   map[string]any `json:"detail"`
	report
}

// bench is the state of one run of one workload.
type bench struct {
	cfg config
	wl  workload
	env environment
	tmp string    // scratch for tuning caches, removed when the run ends
	rec *recorder // nil in the untraced pass

	attempted, failed int
	metrics           map[string]metricValue
	detail            map[string]any
	relErrMax         float64
	checked           int
}

const (
	defaultSeconds = 10
	// fullSetupReps is how many cold set-ups a run makes. setup_s is their
	// median, and each one's dispatcher takes an equal share of the timed
	// phase (see callsEndToEnd for why one is not enough).
	fullSetupReps = 5
	// fullMinReps is the floor of timed repetitions per point.
	fullMinReps = 10
)

func (b *bench) setupReps() int {
	if b.cfg.Tiny {
		return 1
	}
	return fullSetupReps
}

func (b *bench) minReps() int {
	if b.cfg.Tiny {
		return 2
	}
	return fullMinReps
}

func (b *bench) set(name string, v float64) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				b.metrics[name] = metricValue{Value: v, Unit: d.Unit}
				return
			}
		}
	}
	panic("benchmark: metric " + name + " is not declared in spec.go")
}

// recordOracle folds one output's verdict into the run: an output outside
// tolerance counts as a failed operation.
func (b *bench) recordOracle(what string, r oracleResult, tol float64) {
	b.checked += r.Checked
	b.relErrMax = max(b.relErrMax, r.RelErr)
	if !r.OK {
		b.failed++
		fmt.Fprintf(os.Stderr, "benchmark: oracle: %s off by %.3g (tolerance %.0e)\n", what, r.RelErr, tol)
	}
}

// runWorkload measures one workload in this process and returns its result.
func runWorkload(cfg config) (*result, error) {
	wl, ok := findWorkload(cfg.Workload, cfg.Tiny)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	started := time.Now()
	if err := os.MkdirAll(cfg.Out, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.Out, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	b := &bench{cfg: cfg, wl: wl, env: pinEnvironment(), tmp: tmp,
		metrics: map[string]metricValue{}, detail: map[string]any{}}
	b.env.Seed, b.env.Seconds, b.env.Scale = cfg.Seed, cfg.Seconds, "full"
	if cfg.Tiny {
		b.env.Scale = "tiny"
	}
	b.env.SetupReps = b.setupReps()
	b.env.TuneCache = "a fresh directory per cold set-up under -out, removed at exit"

	defs := endToEnd
	switch {
	case !cfg.Trace && wl.Serve != nil:
		err = b.serveEndToEnd()
	case !cfg.Trace:
		err = b.callsEndToEnd()
	default:
		defs = perLayer
		b.rec = newRecorder()
		err = b.layers()
	}
	if err != nil {
		return nil, err
	}
	for _, d := range defs {
		if _, ok := b.metrics[d.Name]; !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
	}
	if len(b.metrics) != len(defs) {
		return nil, fmt.Errorf("measured %d metrics, want %d", len(b.metrics), len(defs))
	}

	b.env.WallSeconds = time.Since(started).Seconds()
	res := &result{Workload: wl.Name, Env: b.env, Detail: b.detail,
		report: report{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: b.metrics}}
	if cfg.Trace {
		res.Trace = 1
		if err := b.rec.write(filepath.Join(cfg.Out, wl.Name+".trace.json")); err != nil {
			return nil, err
		}
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("%s.s%d.t%d.json", wl.Name, cfg.Seed, res.Trace)
	return res, os.WriteFile(filepath.Join(cfg.Out, name), data, 0o644)
}

// print writes every metric as "name value unit", the failure counts, and —
// last — the one-line JSON report.
func (r *result) print(w io.Writer) error {
	defs := endToEnd
	if r.Trace == 1 {
		defs = perLayer
	}
	fmt.Fprintf(w, "workload %s seed %d trace %d W %d backend %s\n",
		r.Workload, r.Env.Seed, r.Trace, r.Env.W, r.Env.DefaultBackend)
	for _, d := range defs {
		fmt.Fprintf(w, "%-34s %s %s\n", d.Name, strconv.FormatFloat(r.Metrics[d.Name].Value, 'g', -1, 64), d.Unit)
	}
	if r.Trace == 0 { // the traced pass carries failed_share in its own table
		fmt.Fprintf(w, "%-34s %g share\n", "failed_share", float64(r.Failed)/float64(max(r.Attempted, 1)))
	}
	fmt.Fprintf(w, "failed %d of %d attempted, correct %t\n", r.Failed, r.Attempted, r.Correct)
	line, err := json.Marshal(r.report)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// runAll runs every workload, untraced then traced, each in a fresh child
// process so no pass inherits another's warm pools, caches or heap.
func runAll(cfg config) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	started := time.Now()
	for _, wl := range workloads(cfg.Tiny) {
		for trace := 0; trace <= 1; trace++ {
			args := []string{"-workload", wl.Name, "-seed", fmt.Sprint(cfg.Seed),
				"-seconds", fmt.Sprint(cfg.Seconds), "-trace", fmt.Sprint(trace), "-out", cfg.Out}
			if cfg.Tiny {
				args = append(args, "-scale", "tiny")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("workload %s trace %d: %w", wl.Name, trace, err)
			}
		}
	}
	fmt.Printf("total wall %.1f s; results in %s\n", time.Since(started).Seconds(), cfg.Out)
	return nil
}

func run() error {
	var cfg config
	var trace int
	var scale string
	var compare bool
	var baseline string
	flag.StringVar(&cfg.Workload, "workload", "", "workload to run in this process (default: all, each in a fresh child process)")
	flag.Int64Var(&cfg.Seed, "seed", 1, "seed of operand values and the request stream")
	flag.Float64Var(&cfg.Seconds, "seconds", defaultSeconds, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass: per-layer metrics and a span file")
	flag.StringVar(&scale, "scale", "full", "full, or tiny for the smoke test")
	flag.StringVar(&cfg.Out, "out", filepath.Join("benchmark", "out"), "directory results and scratch files are written under")
	flag.BoolVar(&compare, "compare", false, "compare two result directories given as arguments; exit 1 on a regression")
	flag.StringVar(&baseline, "baseline", "", "summarise the result directory into benchmark/baseline/<fingerprint>.json")
	flag.Parse()

	cfg.Trace, cfg.Tiny = trace == 1, scale == "tiny"
	switch {
	case trace != 0 && trace != 1, scale != "full" && scale != "tiny":
		return errors.New("-trace takes 0 or 1, -scale takes full or tiny")
	case compare:
		if flag.NArg() != 2 {
			return errors.New("-compare takes two result directories")
		}
		return compareSets(os.Stdout, flag.Arg(0), flag.Arg(1))
	case baseline != "":
		return writeBaseline(baseline, filepath.Join("benchmark", "baseline"))
	case cfg.Workload == "":
		return runAll(cfg)
	}
	res, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	return res.print(os.Stdout)
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
