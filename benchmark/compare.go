package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
)

// resultSet is the runs of one directory: workload → pass → metric → one
// value per run.
type resultSet struct {
	env    environment
	values map[string][2]map[string][]float64
}

// loadSet reads every result file of a directory.
func loadSet(dir string) (*resultSet, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.s*.t[01].json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("%s holds no result files", dir)
	}
	sort.Strings(paths)
	set := &resultSet{values: map[string][2]map[string][]float64{}}
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if i == 0 || (set.env.StreamBytes == 0 && r.Env.StreamBytes > 0) {
			set.env = r.Env // a traced run's record also holds the STREAM array size
		}
		passes := set.values[r.Workload]
		if passes[r.Trace] == nil {
			passes[r.Trace] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			passes[r.Trace][name] = append(passes[r.Trace][name], m.Value)
		}
		set.values[r.Workload] = passes
	}
	return set, nil
}

// summary is the centre and spread of one metric over a set's runs.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

func summarizeValues(xs []float64, unit string) summary {
	q1, q2, q3 := quartiles(xs)
	return summary{Median: q2, Q1: q1, Q3: q3, N: len(xs), Unit: unit}
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// verdict judges set B against set A on one metric: how much worse B's
// median is as a share of A's (negative when better), and whether that is
// within the bound. Where either set's own spread is wider than the bound
// the difference cannot be told from noise, and the metric is unresolved
// unless every run of one set reads better than every run of the other.
func verdict(d metricDef, a, b []float64) (worse float64, v string) {
	// Work in "lower is better" terms.
	if d.Better == "higher" {
		a, b = negated(a), negated(b)
	}
	sa, sb := summarizeValues(a, d.Unit), summarizeValues(b, d.Unit)
	worse = (sb.Median - sa.Median) / math.Abs(sa.Median)
	switch {
	case max(math.Abs(sa.spread()), math.Abs(sb.spread())) <= d.Bound:
		if worse > d.Bound {
			return worse, "regressed"
		}
		return worse, "ok"
	case slices.Max(b) < slices.Min(a):
		return worse, "ok"
	case slices.Min(b) > slices.Max(a) && worse > d.Bound:
		return worse, "regressed"
	}
	return worse, "unresolved"
}

func negated(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = -x
	}
	return out
}

var errRegressed = errors.New("at least one metric regressed")

// compareSets prints, per workload and end-to-end metric, both sets' medians
// and quartiles, B's difference as a share of A's median, the bound and the
// verdict. It returns errRegressed when any pair regressed.
func compareSets(w io.Writer, dirA, dirB string) error {
	a, err := loadSet(dirA)
	if err != nil {
		return err
	}
	b, err := loadSet(dirB)
	if err != nil {
		return err
	}
	if fa, fb := a.env.fingerprint(), b.env.fingerprint(); fa != fb {
		fmt.Fprintf(w, "note: the sets come from different machines (%s vs %s)\n", fa, fb)
	}
	fmt.Fprintf(w, "%-15s %-21s %-7s %31s %31s %22s %6s  %s\n",
		"workload", "metric", "unit", "A median [q1, q3] n", "B median [q1, q3] n", "B worse by (base A)", "bound", "verdict")
	regressed := false
	for _, wl := range workloads(false) {
		for _, d := range endToEnd {
			va, vb := a.values[wl.Name][0][d.Name], b.values[wl.Name][0][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			sa, sb := summarizeValues(va, d.Unit), summarizeValues(vb, d.Unit)
			worse, v := verdict(d, va, vb)
			regressed = regressed || v == "regressed"
			cell := func(s summary) string { return fmt.Sprintf("%.4g [%.4g, %.4g] %d", s.Median, s.Q1, s.Q3, s.N) }
			fmt.Fprintf(w, "%-15s %-21s %-7s %31s %31s %+21.1f%% %5.0f%%  %s (spread A %.1f%%, B %.1f%%)\n",
				wl.Name, d.Name, d.Unit, cell(sa), cell(sb), 100*worse, 100*d.Bound, v, 100*sa.spread(), 100*sb.spread())
		}
	}
	if regressed {
		return errRegressed
	}
	return nil
}

// baselineFile is the committed reference later changes are measured
// against: one machine's medians, under that machine's fingerprint.
type baselineFile struct {
	Fingerprint string      `json:"fingerprint"`
	Environment environment `json:"environment"`
	// Ceilings are the machine's own rates, medians over every traced run:
	// part of the fingerprint, since a result from a machine with other
	// ceilings says nothing against this baseline.
	Ceilings  map[string]float64           `json:"ceilings"`
	Workloads map[string]baselineWorkloads `json:"workloads"`
}

type baselineWorkloads struct {
	EndToEnd map[string]summary `json:"end_to_end"`
	PerLayer map[string]summary `json:"per_layer"`
}

// writeBaseline summarises a result directory into <into>/<fingerprint>.json.
func writeBaseline(dir, into string) error {
	set, err := loadSet(dir)
	if err != nil {
		return err
	}
	env := set.env
	env.Seed, env.WallSeconds, env.Repetitions = 0, 0, 0 // per-run fields mean nothing for a summary
	out := baselineFile{Fingerprint: env.fingerprint(), Environment: env,
		Ceilings: map[string]float64{}, Workloads: map[string]baselineWorkloads{}}
	for _, ceiling := range []string{"gemm.kernel_peak_gflops", "stream.triad_gbs_1w", "stream.triad_gbs_Ww"} {
		var all []float64
		for _, passes := range set.values {
			all = append(all, passes[1][ceiling]...)
		}
		if len(all) > 0 {
			out.Ceilings[ceiling] = median(all)
		}
	}
	for name, passes := range set.values {
		bw := baselineWorkloads{EndToEnd: map[string]summary{}, PerLayer: map[string]summary{}}
		for _, d := range endToEnd {
			if xs := passes[0][d.Name]; len(xs) > 0 {
				bw.EndToEnd[d.Name] = summarizeValues(xs, d.Unit)
			}
		}
		for _, d := range perLayer {
			if xs := passes[1][d.Name]; len(xs) > 0 {
				bw.PerLayer[d.Name] = summarizeValues(xs, d.Unit)
			}
		}
		out.Workloads[name] = bw
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(into, 0o755); err != nil {
		return err
	}
	path := filepath.Join(into, out.Fingerprint+".json")
	fmt.Println("wrote", path)
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
