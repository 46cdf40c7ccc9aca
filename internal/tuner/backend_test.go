package tuner

import (
	"strings"
	"testing"
	"time"

	"fastmm/internal/costmodel"
	"fastmm/internal/gemm"
	"fastmm/internal/op"
)

// backendProfile fabricates a calibration where the "simd" backend is 4x the
// "portable" backend at every size, so backend-aware ranking is deterministic.
func backendProfile(workers int) *Profile {
	curve := func(scale float64) []costmodel.GemmSample {
		return []costmodel.GemmSample{
			{N: 64, SeqGFLOPS: scale, ParGFLOPS: scale},
			{N: 512, SeqGFLOPS: 1.5 * scale, ParGFLOPS: 1.5 * scale},
		}
	}
	return &Profile{
		Version:    ProfileVersion,
		CreatedAt:  time.Now(),
		GOMAXPROCS: workers,
		Machine: costmodel.Machine{
			Workers: workers,
			Gemm:    curve(1),
			BackendGemm: map[string][]costmodel.GemmSample{
				"portable": curve(1),
				"simd":     curve(4),
			},
			AddSeqGBps: 20,
			AddParGBps: 20,
		},
	}
}

// TestRankEnumeratesBackendDimension: every candidate carries a backend, both
// backends appear (classical and fast plans alike), and with a 4x-faster simd
// curve the winner must be a simd plan.
func TestRankEnumeratesBackendDimension(t *testing.T) {
	tn, err := New(Options{
		Resources:   Resources{Workers: 1, Backends: []string{"portable", "simd"}},
		Profile:     backendProfile(1),
		ProbeTopK:   NoProbes,
		NoDiskCache: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ranked, err := tn.RankOp(op.Multiply, 512, 512, 512)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	classical := map[string]bool{}
	for _, p := range ranked {
		if p.Backend == "" {
			t.Fatalf("plan %v has no backend", p)
		}
		seen[p.Backend] = true
		if p.IsClassical() {
			classical[p.Backend] = true
		}
	}
	for _, be := range []string{"portable", "simd"} {
		if !seen[be] {
			t.Fatalf("backend %q missing from candidates", be)
		}
		if !classical[be] {
			t.Fatalf("classical baseline missing for backend %q", be)
		}
	}
	if ranked[0].Backend != "simd" {
		t.Fatalf("4x-faster simd curve must win the ranking, got %v", ranked[0])
	}

	// The executed decision honors the backend, and the plan round-trips
	// through build (the disk-cache path).
	plan, err := tn.PlanForOp(op.Multiply, 512, 512, 512)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Backend != "simd" {
		t.Fatalf("PlanForOp picked %v, want a simd plan", plan)
	}
	d, err := tn.build(op.Multiply, plan)
	if err != nil {
		t.Fatal(err)
	}
	if d.be.Name() != "simd" {
		t.Fatalf("built decision resolved backend %q", d.be.Name())
	}
	if d.exec != nil && d.exec.Backend() != "simd" {
		t.Fatalf("executor resolved backend %q", d.exec.Backend())
	}
}

// TestBackendRestrictionChangesKey: restricting Backends must change the
// cache key (differently restricted tuners never share entries) and unknown
// backends must fail New.
func TestBackendRestrictionChangesKey(t *testing.T) {
	mk := func(backends []string) *Tuner {
		tn, err := New(Options{
			Resources: Resources{Workers: 1, Backends: backends},
			Profile:   backendProfile(1), ProbeTopK: NoProbes,
			NoDiskCache: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tn
	}
	all := mk(nil)
	portable := mk([]string{"portable"})
	if all.key(op.Multiply, 64, 64, 64) == portable.key(op.Multiply, 64, 64, 64) {
		t.Fatal("backend restriction must enter the cache key")
	}

	if _, err := New(Options{Resources: Resources{Backends: []string{"no-such-backend"}},
		Profile: backendProfile(1), NoDiskCache: true}); err == nil {
		t.Fatal("unknown backend must fail New")
	}

	// Restricted tuners only pick from their set.
	plan, err := portable.PlanForOp(op.Multiply, 256, 256, 256)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Backend != "portable" {
		t.Fatalf("portable-restricted tuner picked %v", plan)
	}
}

// TestDefaultBackendList: with no Backends named, an accelerated default
// backend is the only one enumerated — the pure-Go leaf beside it only adds
// candidates that lose — while a pure-Go default (the nosimd build) keeps
// every backend. Naming portable still enrols it, with a full candidate set
// of its own.
func TestDefaultBackendList(t *testing.T) {
	mk := func(backends []string) *Tuner {
		tn, err := New(Options{Resources: Resources{Workers: 1, Backends: backends},
			Profile: backendProfile(1), ProbeTopK: NoProbes, NoDiskCache: true})
		if err != nil {
			t.Fatal(err)
		}
		return tn
	}
	count := func(tn *Tuner) map[string]int {
		ranked, err := tn.RankOp(op.Multiply, 512, 512, 512)
		if err != nil {
			t.Fatal(err)
		}
		perBackend := map[string]int{}
		for _, p := range ranked {
			perBackend[p.Backend]++
		}
		return perBackend
	}

	def := gemm.Default()
	want := gemm.Names()
	if def.Accelerated() {
		want = []string{def.Name()}
	}
	byDefault := mk(nil)
	if got := byDefault.opts.Backends; strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("default backends %v, want %v (default %s, accelerated %v)", got, want, def.Name(), def.Accelerated())
	}
	if got := count(byDefault); len(got) != len(want) {
		t.Fatalf("default candidates span backends %v, want %v", got, want)
	}

	named := count(mk([]string{"portable", "simd"}))
	if named["portable"] == 0 || named["portable"] != named["simd"] {
		t.Fatalf("named portable and simd: %v candidates per backend, want equal non-empty sets", named)
	}
	if _, raced := named[def.Name()]; raced && def.Accelerated() && count(byDefault)[def.Name()] != named[def.Name()] {
		t.Fatalf("the default backend's own candidates changed: %d alone, %d beside portable",
			count(byDefault)[def.Name()], named[def.Name()])
	}
}

// TestCalibrateMeasuresEveryBackend: the quick protocol must produce one
// curve per registered backend plus the default-curve alias.
func TestCalibrateMeasuresEveryBackend(t *testing.T) {
	p := Calibrate(1, true)
	if !p.Valid() {
		t.Fatal("calibration invalid")
	}
	for _, name := range gemm.Names() {
		curve := p.Machine.BackendGemm[name]
		if len(curve) == 0 {
			t.Fatalf("no calibration curve for backend %q", name)
		}
		for _, s := range curve {
			if s.SeqGFLOPS <= 0 || s.ParGFLOPS <= 0 {
				t.Fatalf("backend %q: non-positive sample %+v", name, s)
			}
		}
	}
	if len(p.Machine.Gemm) == 0 {
		t.Fatal("default curve missing")
	}
}
