package bench

import (
	"bytes"
	"strings"
	"testing"
)

func quickCfg(buf *bytes.Buffer) Config {
	return Config{Trials: 1, Quick: true, Workers: 4, SmallWorkers: 2, Out: buf}
}

func TestEveryExperimentRunsQuick(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			pts, err := Run(name, quickCfg(&buf))
			if err != nil {
				t.Fatal(err)
			}
			// Tables produce no points; timed experiments must.
			if !strings.HasPrefix(name, "table") && len(pts) == 0 {
				t.Fatal("no points")
			}
			for _, p := range pts {
				if p.Seconds < 0 || p.Eff < 0 {
					t.Fatalf("nonsense point %+v", p)
				}
			}
			if buf.Len() == 0 {
				t.Fatal("no output rendered")
			}
		})
	}
}

// TestExperimentsArePaperArtifacts keeps this package to the paper's tables
// and figures; end-to-end and trend numbers belong to ./benchmark.
func TestExperimentsArePaperArtifacts(t *testing.T) {
	for _, name := range Names() {
		e, _ := Lookup(name)
		if !strings.HasPrefix(e.Title, "Table") && !strings.HasPrefix(e.Title, "Fig.") && !strings.HasPrefix(e.Title, "§") {
			t.Errorf("experiment %q is not a paper table, figure or section: %q", name, e.Title)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Run("not-an-experiment", Config{}); err == nil {
		t.Fatal("want error")
	}
}

func TestEffectiveMatchesEquation3(t *testing.T) {
	// 2·P·Q·R − P·R over time.
	got := effective(100, 200, 300, 2)
	want := (2*100.0*200*300 - 100*300) / 2 * 1e-9
	if d := got - want; d > 1e-15 || d < -1e-15 {
		t.Fatalf("got %v want %v", got, want)
	}
	if effective(1, 1, 1, 0) != 0 {
		t.Fatal("zero time")
	}
}

func TestMedianTime(t *testing.T) {
	n := 0
	medianTime(5, func() { n++ })
	if n != 5 {
		t.Fatalf("ran %d times", n)
	}
	if medianTime(0, func() {}) < 0 {
		t.Fatal("negative time")
	}
}

func TestOperandsDeterministic(t *testing.T) {
	a1, b1, _ := operands(10, 11, 12)
	a2, b2, _ := operands(10, 11, 12)
	if a1.At(3, 4) != a2.At(3, 4) || b1.At(5, 6) != b2.At(5, 6) {
		t.Fatal("operands must be deterministic")
	}
}

func TestTableRendering(t *testing.T) {
	var buf bytes.Buffer
	table(&buf, "title", "eff", []Point{
		{Series: "a", X: 10, Eff: 1.5},
		{Series: "b", X: 10, Eff: 2.5},
		{Series: "a", X: 20, Eff: 3.5},
	})
	out := buf.String()
	for _, want := range []string{"title", "a", "b", "1.500", "3.500", "-"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	var empty bytes.Buffer
	table(&empty, "t2", "eff", nil)
	if !strings.Contains(empty.String(), "no data") {
		t.Fatal("empty table should say so")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Trials != 3 || c.Scale != 1 || c.Workers < 1 || c.SmallWorkers < 1 || c.Out == nil {
		t.Fatalf("defaults: %+v", c)
	}
	if (Config{Scale: 0.5}).withDefaults().scaled(100) != 50 {
		t.Fatal("scaled")
	}
	if (Config{Scale: 0.001}).withDefaults().scaled(100) != 1 {
		t.Fatal("scaled floor")
	}
}
