package main

import (
	"math"
	"math/rand"
	"testing"

	"fastmm"
	"fastmm/internal/gemm"
	"fastmm/internal/op"
)

// sampledEntry returns the first entry checkOutput looks at for this seed.
func sampledEntry(seed int64, m, n int) (i, j int) {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(m), rng.Intn(n)
}

func TestOracle(t *testing.T) {
	const seed = 3
	cases := []opCase{
		mul(40, 30, 50),
		{Op: op.ATA, AR: 30, AC: 40},
		{Op: op.Syrk, AR: 40, AC: 30},
		{Op: op.MultiplyAdd, AR: 40, AC: 30, BC: 50, Alpha: -1},
	}
	for _, c := range cases {
		in := newInstance(c, rand.New(rand.NewSource(1)))
		req := in.request(in.C)
		classical(gemm.Default(), req, 1)
		if r := checkOutput(req, in.C0, seed, oracleTol); !r.OK || r.Checked == 0 {
			t.Errorf("%s: a correct output fails the oracle: %+v", c, r)
		}

		m, _, n := c.shape()
		i, j := sampledEntry(seed, m, n)
		good := in.C.At(i, j)
		b := &bench{}
		in.C.Set(i, j, good+1e-6)
		b.attempted = 1
		b.recordOracle(c.String(), checkOutput(req, in.C0, seed, oracleTol), oracleTol)
		if b.failed != 1 {
			t.Errorf("%s: one corrupted entry does not count as a failed operation", c)
		}
		in.C.Set(i, j, math.NaN())
		if r := checkOutput(req, in.C0, seed, oracleTol); r.OK {
			t.Errorf("%s: a NaN in C passes the oracle", c)
		}
	}
}

// TestRefusedRequestsCountAsFailed: a Batcher that refuses or fails a request
// — here by being closed; expiry and rejection arrive as a request error the
// same way — must show up in the failure count, never vanish.
func TestRefusedRequestsCountAsFailed(t *testing.T) {
	t.Setenv("FASTMM_TUNE_CACHE", "off")
	ws := workloads(true)
	s := newServer(ws[3].Serve, 1)
	bt, err := fastmm.NewBatcher(fastmm.BatchOptions{Resources: fastmm.Resources{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	bt.Close()
	run := s.closedLoop(bt, once(s.shuffled(rand.New(rand.NewSource(1)))), nil)
	if run.Requests == 0 || run.Failed != run.Requests {
		t.Errorf("%d of %d refused requests counted as failed", run.Failed, run.Requests)
	}
}

func TestVerdict(t *testing.T) {
	d := metricDef{Name: "eff_gflops", Unit: "GFLOPS", Better: "higher", Bound: 0.05}
	steady := []float64{100, 101, 99, 100, 100.5, 99.5, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, x := range steady {
			out[i] = f * x
		}
		return out
	}
	noisy := []float64{80, 120, 90, 110, 100, 70, 130, 95, 105, 100}
	for _, tc := range []struct {
		name string
		a, b []float64
		want string
	}{
		{"same", steady, scaled(1.01), "ok"},
		{"faster", steady, scaled(1.2), "ok"},
		{"slower", steady, scaled(0.9), "regressed"},
		{"noise hides it", noisy, scaled(0.9), "unresolved"},
		{"noisy but every run better", noisy, scaled(1.5), "ok"},
	} {
		if _, v := verdict(d, tc.a, tc.b); v != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, v, tc.want)
		}
	}
}
