package tuner

import (
	"strings"
	"testing"

	"fastmm/internal/gemm"
	"fastmm/internal/op"
)

// TestProfileNamesItsBackend: a calibration records the backend it measured
// — the default one — every plan runs on that backend and the cache key
// names it, and a profile measured on another backend is recalibrated, never
// reused: neither loaded from disk nor accepted as Options.Profile.
func TestProfileNamesItsBackend(t *testing.T) {
	t.Setenv(EnvCacheDir, t.TempDir())
	def := gemm.Default().Name()

	p := Calibrate(1, true)
	if p.Machine.Backend != def || !p.Valid() {
		t.Fatalf("calibration measured backend %q (valid %v), want the default %q", p.Machine.Backend, p.Valid(), def)
	}

	tn := mustTuner(t, modelOnlyOpts(1))
	if k := tn.key(op.Multiply, 512, 512, 512, tn.opts.Workers); !strings.Contains(k, "/be:"+def+"/") {
		t.Fatalf("cache key %q does not name backend %s", k, def)
	}
	ranked, err := tn.RankOp(op.Multiply, 512, 512, 512)
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range ranked {
		if pl.Backend != def {
			t.Fatalf("plan %v runs on %q, want %q", pl, pl.Backend, def)
		}
	}

	// A full-protocol profile at ample workers, measured on another backend:
	// every other reason to keep it holds.
	other := testProfile(8)
	other.Machine.Backend = "elsewhere"
	if other.Valid() {
		t.Fatal("a profile measured on another backend must be invalid here")
	}
	if err := SaveProfile(other); err != nil {
		t.Fatal(err)
	}
	if _, ok := LoadProfile(); ok {
		t.Fatal("LoadProfile reused another backend's profile")
	}
	fresh := mustTuner(t, Options{Resources: Resources{Workers: 1}, ProbeTopK: NoProbes})
	if got := fresh.Calibration().Machine.Backend; got != def {
		t.Fatalf("tuner predicts with a profile of backend %q, want a fresh one of %q", got, def)
	}
	if saved, ok := LoadProfile(); !ok || saved.Machine.Backend != def {
		t.Fatalf("the recalibration must replace the persisted profile, have %+v (ok %v)", saved, ok)
	}
	if _, err := New(Options{Profile: other, NoDiskCache: true}); err == nil {
		t.Fatal("New accepted a supplied profile of another backend")
	}
}
