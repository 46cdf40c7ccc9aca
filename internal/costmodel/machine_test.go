package costmodel

import (
	"math"
	"testing"

	"fastmm/internal/addchain"
	"fastmm/internal/catalog"
)

func testMachine() Machine {
	return Machine{
		Workers: 8,
		Gemm: []GemmSample{
			{N: 64, SeqGFLOPS: 1.0, ParGFLOPS: 4.0},
			{N: 256, SeqGFLOPS: 2.0, ParGFLOPS: 10.0},
			{N: 1024, SeqGFLOPS: 2.5, ParGFLOPS: 14.0},
		},
		AddSeqGBps: 8,
		AddParGBps: 20,
	}
}

func TestGemmRateInterpolation(t *testing.T) {
	ma := testMachine()
	if got := ma.GemmRateFor(64, 1); got != 1.0 {
		t.Fatalf("exact sample: got %v", got)
	}
	if got := ma.GemmRateFor(2048, 1); got != 2.5 {
		t.Fatalf("above range clamps to plateau: got %v", got)
	}
	if got := ma.GemmRateFor(32, 1); got != 0.5 {
		t.Fatalf("below range decays with n: got %v", got)
	}
	mid := ma.GemmRateFor(160, 1)
	if mid <= 1.0 || mid >= 2.0 {
		t.Fatalf("interpolated rate out of bracket: %v", mid)
	}
	// Rate must grow with workers, capped at the parallel curve.
	if !(ma.GemmRateFor(256, 1) < ma.GemmRateFor(256, 4) && ma.GemmRateFor(256, 4) < ma.GemmRateFor(256, 8)) {
		t.Fatal("rate not monotone in workers")
	}
	if ma.GemmRateFor(256, 16) != ma.GemmRateFor(256, 8) {
		t.Fatal("workers beyond calibration should clamp")
	}
}

func TestAddRate(t *testing.T) {
	ma := testMachine()
	if ma.AddRate(1) != 8 || ma.AddRate(8) != 20 {
		t.Fatal("endpoints")
	}
	if r := ma.AddRate(4); r <= 8 || r >= 20 {
		t.Fatalf("interpolated bandwidth out of bracket: %v", r)
	}
}

func TestClassicalTimeScales(t *testing.T) {
	ma := testMachine()
	small := ma.ClassicalTimeFor(256, 256, 256, 1)
	big := ma.ClassicalTimeFor(512, 512, 512, 1)
	if !(small > 0 && big > 4*small) {
		t.Fatalf("classical time must grow ~n³: small=%v big=%v", small, big)
	}
	if par := ma.ClassicalTimeFor(512, 512, 512, 8); par >= big {
		t.Fatal("parallel classical must be faster")
	}
	if !math.IsInf((Machine{}).ClassicalTimeFor(10, 10, 10, 1), 1) {
		t.Fatal("uncalibrated machine must predict +inf")
	}
}

func TestPredictTime(t *testing.T) {
	m := NewTrusted(catalog.Strassen(), addchain.WriteOnce, false)
	ma := testMachine()

	seq, err := m.PredictTime(512, 512, 512, 1, ma, ExecShape{LeafWorkers: 1, TaskWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Seconds <= 0 || seq.MulSeconds <= 0 || seq.AddSeconds <= 0 {
		t.Fatalf("all components must be positive: %+v", seq)
	}
	if seq.LeafDim != 256 {
		t.Fatalf("one Strassen step of 512 leaves 256 blocks, got %d", seq.LeafDim)
	}

	dfs, err := m.PredictTime(512, 512, 512, 1, ma, ExecShape{LeafWorkers: 8, TaskWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if dfs.Seconds >= seq.Seconds {
		t.Fatalf("DFS with 8 workers must beat sequential: %v vs %v", dfs.Seconds, seq.Seconds)
	}

	bfs, err := m.PredictTime(512, 512, 512, 1, ma, ExecShape{LeafWorkers: 1, TaskWorkers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if bfs.MulSeconds >= seq.MulSeconds {
		t.Fatal("task fan-out must shrink the multiplication phase")
	}
	// 7 tasks on 8 workers: speedup 7, not 8.
	wantMul := seq.MulSeconds / 7
	if math.Abs(bfs.MulSeconds-wantMul)/wantMul > 1e-9 {
		t.Fatalf("BFS load balance: got %v want %v", bfs.MulSeconds, wantMul)
	}

	if _, err := m.PredictTime(511, 511, 511, 1, ma, ExecShape{LeafWorkers: 1, TaskWorkers: 1}); err == nil {
		t.Fatal("indivisible dims must error like Evaluate")
	}
	if _, err := m.PredictTime(512, 512, 512, 1, Machine{}, ExecShape{}); err == nil {
		t.Fatal("uncalibrated machine must error")
	}
}

func TestTaskSpeedup(t *testing.T) {
	if got := taskSpeedup(49, 6, false); math.Abs(got-49.0/9) > 1e-12 {
		t.Fatalf("49 tasks on 6 workers → 9 rounds: got %v", got)
	}
	if got := taskSpeedup(49, 6, true); got != 6 {
		t.Fatalf("balanced caps at worker count: got %v", got)
	}
	if got := taskSpeedup(4, 8, false); got != 4 {
		t.Fatalf("fewer tasks than workers: got %v", got)
	}
	if taskSpeedup(10, 1, false) != 1 || taskSpeedup(1, 8, true) != 1 {
		t.Fatal("degenerate cases must be 1")
	}
}
