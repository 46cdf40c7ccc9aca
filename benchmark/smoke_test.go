package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors the keys of the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readContract(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestContractMatchesSpec holds BENCHMARK.json and spec.go together: same
// workloads, same metrics, same units, directions and bounds.
func TestContractMatchesSpec(t *testing.T) {
	c := readContract(t)
	if !reflect.DeepEqual(c.Command, []string{"go", "run", "./benchmark"}) || !reflect.DeepEqual(c.Paths, []string{"benchmark"}) {
		t.Errorf("command %v paths %v", c.Command, c.Paths)
	}
	if c.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program defaults to %d", c.RunSeconds, defaultSeconds)
	}
	ws := workloads(false)
	if len(c.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(c.Workloads), len(ws))
	}
	for i, w := range ws {
		if c.Workloads[i].Name != w.Name || c.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, spec.go %q", i, c.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(c.EndToEnd) != len(endToEnd) || len(c.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts differ: %d/%d end-to-end, %d/%d per-layer",
			len(c.EndToEnd), len(endToEnd), len(c.PerLayer), len(perLayer))
	}
	for i, d := range endToEnd {
		if got := (metricDef{c.EndToEnd[i].Name, c.EndToEnd[i].Unit, c.EndToEnd[i].Better, c.EndToEnd[i].Bound}); got != d {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, spec.go %+v", i, got, d)
		}
	}
	for i, d := range perLayer {
		if got := (metricDef{Name: c.PerLayer[i].Name, Unit: c.PerLayer[i].Unit, Better: c.PerLayer[i].Better}); got != d {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, spec.go %+v", i, got, d)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload at tiny scale, both passes, and checks that
// each emits exactly the names BENCHMARK.json lists, each finite and with its
// unit, and that the last line printed is the report the driver parses.
func TestSmoke(t *testing.T) {
	c := readContract(t)
	out := t.TempDir()
	for _, wl := range c.Workloads {
		for trace := 0; trace <= 1; trace++ {
			want := map[string]string{}
			if trace == 0 {
				for _, m := range c.EndToEnd {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range c.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			res, err := runWorkload(config{Workload: wl.Name, Seed: 7, Seconds: 0.05, Trace: trace == 1, Tiny: true, Out: out})
			if err != nil {
				t.Fatalf("%s trace %d: %v", wl.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: correct %t, %d failed of %d", wl.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			for name, m := range res.Metrics {
				unit, ok := want[name]
				switch {
				case !ok:
					t.Errorf("%s trace %d: extra metric %s", wl.Name, trace, name)
				case m.Unit != unit || unit == "":
					t.Errorf("%s trace %d: %s has unit %q, want %q", wl.Name, trace, name, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace %d: %s is %v", wl.Name, trace, name, m.Value)
				case !nameRE.MatchString(name):
					t.Errorf("%s trace %d: bad metric name %q", wl.Name, trace, name)
				}
				delete(want, name)
			}
			for name := range want {
				t.Errorf("%s trace %d: missing metric %s", wl.Name, trace, name)
			}

			var buf bytes.Buffer
			if err := res.print(&buf); err != nil {
				t.Fatal(err)
			}
			lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
			var last map[string]json.RawMessage
			if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
				t.Fatalf("%s trace %d: last line is not JSON: %v", wl.Name, trace, err)
			}
			if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
				t.Errorf("%s trace %d: report keys %v", wl.Name, trace, last)
			}
		}
	}
	if _, err := os.Stat(out + "/square-seq.trace.json"); err != nil {
		t.Errorf("the traced pass wrote no span file: %v", err)
	}
}
