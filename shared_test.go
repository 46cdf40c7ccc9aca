package fastmm

import (
	"runtime"
	"testing"
	"time"

	"fastmm/internal/batch"
	"fastmm/internal/costmodel"
	"fastmm/internal/gemm"
	"fastmm/internal/tuner"
)

func sharedTestProfile() *tuner.Profile {
	return &tuner.Profile{
		Version:    tuner.ProfileVersion,
		CreatedAt:  time.Now(),
		GOMAXPROCS: 1,
		Machine: costmodel.Machine{
			Workers:    1,
			Backend:    gemm.Default().Name(),
			Gemm:       []costmodel.GemmSample{{N: 64, SeqGFLOPS: 1, ParGFLOPS: 1}, {N: 256, SeqGFLOPS: 2, ParGFLOPS: 2}},
			AddSeqGBps: 6,
			AddParGBps: 6,
		},
	}
}

// TestSharedDispatchersKeyOnOptions: Auto's and MultiplyBatch's process-wide
// dispatchers are shared per option identity (Options.Key). The zero value
// and spelled-out defaults share one; a changed option gets its own; and an
// equal calibration built twice still shares.
func TestSharedDispatchersKeyOnOptions(t *testing.T) {
	opts := AutoOptions{Profile: sharedTestProfile(), ProbeTopK: AutoNoProbes, NoDiskCache: true}
	spelled := opts
	spelled.Profile = sharedTestProfile()
	spelled.Workers = runtime.GOMAXPROCS(0)
	spelled.MinDim = tuner.DefaultMinDim
	other := opts
	other.MinDim = 2 * tuner.DefaultMinDim

	a, err := sharedAuto(opts)
	if err != nil {
		t.Fatal(err)
	}
	if b, err := sharedAuto(spelled); err != nil || b != a {
		t.Fatalf("spelled-out defaults got another dispatcher (%v)", err)
	}
	if c, err := sharedAuto(other); err != nil || c == a {
		t.Fatalf("a different MinDim shared the dispatcher (%v)", err)
	}

	bopts := BatchOptions{Tuning: opts, Drift: BatchDriftOptions{Disable: true}}
	bspelled := bopts
	bspelled.Tuning = spelled
	bspelled.MaxEntries = batch.DefaultMaxEntries
	bother := bopts
	bother.Tuning = other
	x, err := sharedBatcher(bopts)
	if err != nil {
		t.Fatal(err)
	}
	if y, err := sharedBatcher(bspelled); err != nil || y != x {
		t.Fatalf("spelled-out defaults got another batcher (%v)", err)
	}
	if z, err := sharedBatcher(bother); err != nil || z == x {
		t.Fatalf("a different Tuning.MinDim shared the batcher (%v)", err)
	}
}
