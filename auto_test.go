// Tests for the public autotuning surface: fastmm.Auto, NewAutoExecutor,
// and AutoPlanFor. A synthetic calibration profile keeps them deterministic
// and free of machine measurement, and every option set carries
// NoDiskCache so no test touches the user's real cache (a test exercising
// the disk layer must t.Setenv(tuner.EnvCacheDir, t.TempDir()) itself).
package fastmm_test

import (
	"testing"
	"time"

	"fastmm"
	"fastmm/internal/costmodel"
	"fastmm/internal/mat"
	"fastmm/internal/tuner"
)

func autoTestProfile(workers int) *tuner.Profile {
	par := func(seq float64) float64 {
		if workers <= 1 {
			return seq
		}
		return seq * float64(workers) * 0.8
	}
	return &tuner.Profile{
		Version:    tuner.ProfileVersion,
		CreatedAt:  time.Now(),
		GOMAXPROCS: workers,
		Machine: costmodel.Machine{
			Workers: workers,
			Gemm: []costmodel.GemmSample{
				{N: 64, SeqGFLOPS: 1.2, ParGFLOPS: par(1.2)},
				{N: 256, SeqGFLOPS: 2.0, ParGFLOPS: par(2.0)},
				{N: 1024, SeqGFLOPS: 2.4, ParGFLOPS: par(2.4)},
			},
			AddSeqGBps: 6,
			AddParGBps: 14,
		},
	}
}

func autoTestOpts(workers int) fastmm.AutoOptions {
	return fastmm.AutoOptions{
		Resources:   fastmm.Resources{Workers: workers},
		Profile:     autoTestProfile(workers),
		ProbeTopK:   fastmm.AutoNoProbes,
		NoDiskCache: true,
	}
}

func TestAutoMatchesClassical(t *testing.T) {
	opts := autoTestOpts(2)
	for _, shape := range [][3]int{{160, 160, 160}, {257, 129, 191}, {96, 48, 64}} {
		m, k, n := shape[0], shape[1], shape[2]
		A := fastmm.RandomMatrix(m, k, int64(m))
		B := fastmm.RandomMatrix(k, n, int64(n))
		want := fastmm.NewMatrix(m, n)
		fastmm.Classical(want, A, B)
		got := fastmm.NewMatrix(m, n)
		if err := fastmm.Auto(got, A, B, opts); err != nil {
			t.Fatal(err)
		}
		if d := mat.MaxAbsDiff(got, want); d > 1e-9*float64(k+1) {
			t.Fatalf("shape %v: max diff %g", shape, d)
		}
	}
	if err := fastmm.Auto(fastmm.NewMatrix(3, 3), fastmm.NewMatrix(3, 4), fastmm.NewMatrix(5, 3), opts); err == nil {
		t.Fatal("dimension mismatch must error")
	}
}

func TestNewAutoExecutorReuse(t *testing.T) {
	exec, err := fastmm.NewAutoExecutor(autoTestOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	const n = 256
	A := fastmm.RandomMatrix(n, n, 1)
	B := fastmm.RandomMatrix(n, n, 2)
	C := fastmm.NewMatrix(n, n)
	want := fastmm.NewMatrix(n, n)
	fastmm.Classical(want, A, B)
	for i := 0; i < 3; i++ { // repeated calls hit the warm LRU path
		if err := exec.Multiply(C, A, B); err != nil {
			t.Fatal(err)
		}
		if d := mat.MaxAbsDiff(C, want); d > 1e-9*n {
			t.Fatalf("call %d: max diff %g", i, d)
		}
	}
	p, err := exec.PlanForOp(fastmm.OpMultiply, n, n, n)
	if err != nil {
		t.Fatal(err)
	}
	if p.Workers != 1 {
		t.Fatalf("1-worker tuner must produce 1-worker plans: %v", p)
	}
}

func TestAutoPlanFor(t *testing.T) {
	// Same options → same shared dispatcher → identical plan, no re-tuning.
	opts := autoTestOpts(1)
	p1, err := fastmm.AutoPlanFor(512, 512, 512, opts)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := fastmm.AutoPlanFor(512, 512, 512, opts)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatalf("shared dispatcher must return a stable plan: %v vs %v", p1, p2)
	}
	if p1.IsClassical() {
		t.Fatalf("512³ should pick a fast plan under the synthetic profile, got %v", p1)
	}
	small, err := fastmm.AutoPlanFor(64, 64, 64, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !small.IsClassical() {
		t.Fatalf("64³ must dispatch to classical, got %v", small)
	}
}

// A ProbeTopK below AutoNoProbes is an error on every public path, not a
// silent "always classical, never probed".
func TestProbeTopKBelowNoProbesFails(t *testing.T) {
	opts := autoTestOpts(1)
	opts.ProbeTopK = fastmm.AutoNoProbes - 1
	if _, err := fastmm.NewAutoExecutor(opts); err == nil {
		t.Error("NewAutoExecutor accepted ProbeTopK below AutoNoProbes")
	}
	A, B, C := fastmm.NewMatrix(8, 8), fastmm.NewMatrix(8, 8), fastmm.NewMatrix(8, 8)
	if err := fastmm.Auto(C, A, B, opts); err == nil {
		t.Error("Auto accepted ProbeTopK below AutoNoProbes")
	}
	if _, err := fastmm.NewBatcher(fastmm.BatchOptions{Resources: fastmm.Resources{Workers: 1}, Tuning: opts}); err == nil {
		t.Error("NewBatcher accepted ProbeTopK below AutoNoProbes")
	}
}
