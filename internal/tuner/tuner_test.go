package tuner

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"fastmm/internal/addchain"
	"fastmm/internal/catalog"
	"fastmm/internal/core"
	"fastmm/internal/costmodel"
	"fastmm/internal/gemm"
	"fastmm/internal/mat"
	"fastmm/internal/op"
)

// testProfile is a synthetic calibration with the Fig.-3 shape (ramp-up then
// plateau) so decision-quality tests are deterministic and machine-free.
func testProfile(workers int) *Profile {
	par := func(seq float64) float64 {
		if workers <= 1 {
			return seq
		}
		return seq * float64(workers) * 0.8
	}
	return &Profile{
		Version:    ProfileVersion,
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

func modelOnlyOpts(workers int) Options {
	return Options{
		Resources:   Resources{Workers: workers},
		Profile:     testProfile(workers),
		ProbeTopK:   NoProbes,
		NoDiskCache: true,
	}
}

func mustTuner(t *testing.T, opts Options) *Tuner {
	t.Helper()
	tn, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return tn
}

// Below the recursion cutoff the dispatcher must choose classical gemm: at
// those sizes no fast algorithm amortizes its additions (§3.4).
func TestClassicalBelowCutoff(t *testing.T) {
	tn := mustTuner(t, modelOnlyOpts(1))
	for _, shape := range [][3]int{{64, 64, 64}, {100, 32, 80}, {127, 127, 127}} {
		p, err := tn.PlanFor(shape[0], shape[1], shape[2])
		if err != nil {
			t.Fatal(err)
		}
		if !p.IsClassical() {
			t.Fatalf("shape %v below cutoff must go classical, got %v", shape, p)
		}
	}
}

// For square shapes the chosen recursion depth must grow (weakly) with n:
// deeper recursion only pays once the O(n²) additions amortize (§3.4, §5.1).
// Depth is compared as the leaf split factor M^steps so that one ⟨4,4,4⟩
// step counts the same as two ⟨2,2,2⟩ steps.
func TestStepsMonotonicSquare(t *testing.T) {
	tn := mustTuner(t, modelOnlyOpts(1))
	prev := 0
	for _, n := range []int{96, 256, 512, 1024, 2048, 4096} {
		p, err := tn.PlanFor(n, n, n)
		if err != nil {
			t.Fatal(err)
		}
		split := 1 // classical: no recursion
		if !p.IsClassical() {
			a, err := catalog.GetVerified(p.Algorithm)
			if err != nil {
				t.Fatal(err)
			}
			split = ipow(a.Base.M, p.Steps)
		}
		if split < prev {
			t.Fatalf("recursion depth must be monotone in n: n=%d chose %v (split %d) after split %d",
				n, p, split, prev)
		}
		prev = split
	}
	if prev == 1 {
		t.Fatal("largest size should have recursed at least once")
	}
}

// A workspace-capped request must never select a plan whose predicted
// footprint exceeds the cap, degrading all the way to (sequential) classical
// when nothing else fits.
func TestWorkspaceCapRespected(t *testing.T) {
	const n = 1024
	uncapped := mustTuner(t, modelOnlyOpts(4))
	free, err := uncapped.PlanFor(n, n, n)
	if err != nil {
		t.Fatal(err)
	}
	if free.IsClassical() {
		t.Fatalf("uncapped 1024³ should pick a fast plan, got %v", free)
	}

	tightCap := int64(6) << 20 // above the one-worker gemm slab floor, below any fast plan
	opts := modelOnlyOpts(4)
	opts.Workspace = tightCap
	capped := mustTuner(t, opts)
	plan, err := capped.PlanFor(n, n, n)
	if err != nil {
		t.Fatal(err)
	}
	if plan.WorkspaceBytes > tightCap {
		t.Fatalf("selected plan exceeds cap: %v (%d > %d)", plan, plan.WorkspaceBytes, tightCap)
	}
	if !plan.IsClassical() {
		t.Fatalf("cap %d should force classical at n=%d, got %v", tightCap, n, plan)
	}

	roomyCap := int64(256) << 20
	opts = modelOnlyOpts(4)
	opts.Workspace = roomyCap
	roomy := mustTuner(t, opts)
	ranked, err := roomy.Rank(n, n, n)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ranked {
		if p.WorkspaceBytes > roomyCap {
			t.Fatalf("ranked plan exceeds cap: %v", p)
		}
	}
	plan, err = roomy.PlanFor(n, n, n)
	if err != nil {
		t.Fatal(err)
	}
	if plan.WorkspaceBytes > roomyCap {
		t.Fatalf("selected plan exceeds roomy cap: %v", plan)
	}
}

// The disk cache must round-trip decisions, and corrupt or missing cache
// files must degrade to pure model ranking — never to an error.
func TestCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	t.Setenv(EnvCacheDir, dir)

	opts := Options{Resources: Resources{Workers: 1}, Profile: testProfile(1), ProbeTopK: NoProbes}
	first := mustTuner(t, opts)
	want, err := first.Warm(512, 512, 512)
	if err != nil {
		t.Fatal(err)
	}
	cachePath := filepath.Join(dir, "tune.json")
	if _, err := os.Stat(cachePath); err != nil {
		t.Fatalf("warm must persist the cache: %v", err)
	}

	second := mustTuner(t, opts)
	got, err := second.PlanFor(512, 512, 512)
	if err != nil {
		t.Fatal(err)
	}
	if got.Algorithm != want.Algorithm || got.Steps != want.Steps ||
		got.Parallel != want.Parallel || got.Strategy != want.Strategy {
		t.Fatalf("cache round-trip mismatch: got %v want %v", got, want)
	}

	// Corrupt cache file → fresh ranking, same answer, no error.
	if err := os.WriteFile(cachePath, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	third := mustTuner(t, opts)
	got, err = third.PlanFor(512, 512, 512)
	if err != nil {
		t.Fatalf("corrupt cache must degrade to model ranking: %v", err)
	}
	if got.Algorithm != want.Algorithm {
		t.Fatalf("after corrupt cache: got %v want %v", got, want)
	}

	// A cache entry referencing an unknown algorithm is skipped, not fatal.
	stale := map[string]Plan{first.key(op.Multiply, 512, 512, 512): {
		Algorithm: "no-such-algorithm", Parallel: "dfs", Strategy: "write-once", Workers: 1,
	}}
	if err := saveEntries(stale); err != nil {
		t.Fatal(err)
	}
	fourth := mustTuner(t, opts)
	if got, err = fourth.PlanFor(512, 512, 512); err != nil || got.Algorithm != want.Algorithm {
		t.Fatalf("stale entry must fall back to ranking: %v %v", got, err)
	}

	// Disabled disk layer still works.
	t.Setenv(EnvCacheDir, "off")
	if _, _, ok := Paths(); ok {
		t.Fatal("off must disable the disk layer")
	}
	fifth := mustTuner(t, opts)
	if _, err := fifth.PlanFor(256, 256, 256); err != nil {
		t.Fatal(err)
	}
}

func TestProfilePersistence(t *testing.T) {
	t.Setenv(EnvCacheDir, t.TempDir())
	want := testProfile(2)
	if err := SaveProfile(want); err != nil {
		t.Fatal(err)
	}
	got, ok := LoadProfile()
	if !ok {
		t.Fatal("profile must load back")
	}
	if got.Machine.Workers != 2 || len(got.Machine.Gemm) != 3 {
		t.Fatalf("round-trip mangled the profile: %+v", got)
	}
	if err := ClearCache(true); err != nil {
		t.Fatal(err)
	}
	if _, ok := LoadProfile(); ok {
		t.Fatal("ClearCache(true) must drop the profile")
	}
}

// Tuned multiplications must agree with the naive oracle, peeling included.
func TestMultiplyMatchesClassical(t *testing.T) {
	opts := Options{
		Resources:   Resources{Workers: 2},
		Profile:     testProfile(2),
		ProbeTopK:   2, // exercise the probing path on small shapes
		MinDim:      64,
		NoDiskCache: true,
	}
	tn := mustTuner(t, opts)
	rng := rand.New(rand.NewSource(42))
	for _, shape := range [][3]int{{128, 128, 128}, {129, 65, 97}, {200, 100, 160}, {48, 32, 56}} {
		m, k, n := shape[0], shape[1], shape[2]
		A, B := mat.New(m, k), mat.New(k, n)
		A.FillRandom(rng)
		B.FillRandom(rng)
		want, got := mat.New(m, n), mat.New(m, n)
		gemm.Mul(want, A, B)
		if err := tn.Multiply(got, A, B); err != nil {
			t.Fatal(err)
		}
		if d := mat.MaxAbsDiff(got, want); d > 1e-9*float64(k+1) {
			t.Fatalf("shape %v: max diff %g", shape, d)
		}
	}
	C := mat.New(3, 3)
	if err := tn.Multiply(C, mat.New(3, 4), mat.New(5, 3)); err == nil {
		t.Fatal("dimension mismatch must error")
	}
}

// Warm-shape dispatch must be an in-memory LRU hit — microseconds, not a
// fresh ranking. The acceptance bar is <5µs on a quiet machine; the test
// asserts a generous multiple to stay robust under CI noise.
func TestWarmDispatchIsFast(t *testing.T) {
	tn := mustTuner(t, modelOnlyOpts(1))
	if _, err := tn.PlanFor(512, 512, 512); err != nil {
		t.Fatal(err)
	}
	const calls = 1000
	start := time.Now()
	for i := 0; i < calls; i++ {
		if _, err := tn.PlanFor(512, 512, 512); err != nil {
			t.Fatal(err)
		}
	}
	perCall := time.Since(start) / calls
	if perCall > time.Millisecond {
		t.Fatalf("warm dispatch took %v per call", perCall)
	}
}

func TestRankShape(t *testing.T) {
	tn := mustTuner(t, modelOnlyOpts(1))
	if _, err := tn.Rank(0, 5, 5); err == nil {
		t.Fatal("invalid shape must error")
	}
	ranked, err := tn.Rank(777, 777, 777)
	if err != nil {
		t.Fatal(err)
	}
	hasClassical := false
	for i, p := range ranked {
		if p.IsClassical() {
			hasClassical = true
		}
		if i > 0 && ranked[i-1].PredictedSeconds > p.PredictedSeconds {
			t.Fatal("ranking must be sorted by predicted time")
		}
	}
	if !hasClassical {
		t.Fatal("classical baseline must always be ranked")
	}
}

func TestParseRoundTrips(t *testing.T) {
	for _, p := range []core.Parallel{core.Sequential, core.DFS, core.BFS, core.Hybrid} {
		got, err := parseParallel(p.String())
		if err != nil || got != p {
			t.Fatalf("parallel %v: %v %v", p, got, err)
		}
	}
	for _, s := range []addchain.Strategy{addchain.Pairwise, addchain.WriteOnce, addchain.Streaming} {
		got, err := parseStrategy(s.String())
		if err != nil || got != s {
			t.Fatalf("strategy %v: %v %v", s, got, err)
		}
	}
	if _, err := parseParallel("bogus"); err == nil {
		t.Fatal("want error")
	}
	if _, err := parseStrategy("bogus"); err == nil {
		t.Fatal("want error")
	}
}

func TestLRU(t *testing.T) {
	l := newLRU(2)
	d1, d2, d3 := &decision{}, &decision{}, &decision{}
	l.add("a", d1)
	l.add("b", d2)
	if got, ok := l.get("a"); !ok || got != d1 {
		t.Fatal("a must be present")
	}
	l.add("c", d3) // evicts b (a was just touched)
	if _, ok := l.get("b"); ok {
		t.Fatal("b must have been evicted")
	}
	if _, ok := l.get("a"); !ok {
		t.Fatal("a must survive")
	}
	l.add("a", d2)
	if got, _ := l.get("a"); got != d2 {
		t.Fatal("re-add must replace the decision")
	}
}

func TestCalibrateQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("measures the machine")
	}
	p := Calibrate(2, true)
	if !p.Valid() {
		t.Fatalf("quick calibration must produce a valid profile: %+v", p)
	}
	if len(p.Machine.Gemm) < 2 || p.Machine.AddSeqGBps <= 0 {
		t.Fatalf("calibration incomplete: %+v", p.Machine)
	}
	for _, s := range p.Machine.Gemm {
		if s.SeqGFLOPS <= 0 || s.ParGFLOPS <= 0 {
			t.Fatalf("non-positive rate in %+v", s)
		}
	}
}

// Differently restricted candidate sets must never share cache entries: a
// plan tuned under Algorithms={strassen} may not be served to a tuner that
// excluded strassen (regression test for a key that hashed only the list
// length).
func TestCacheKeySeparatesCandidateSets(t *testing.T) {
	t.Setenv(EnvCacheDir, t.TempDir())
	base := Options{Resources: Resources{Workers: 1}, Profile: testProfile(1), ProbeTopK: NoProbes}

	strassenOnly := base
	strassenOnly.Algorithms = []string{"strassen"}
	first := mustTuner(t, strassenOnly)
	p1, err := first.Warm(512, 512, 512)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Algorithm != "strassen" {
		t.Fatalf("restricted tuner must pick from its set, got %v", p1)
	}

	winogradOnly := base
	winogradOnly.Algorithms = []string{"winograd"}
	second := mustTuner(t, winogradOnly)
	p2, err := second.PlanFor(512, 512, 512)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Algorithm == "strassen" {
		t.Fatalf("cache key collision: excluded algorithm served: %v", p2)
	}
}

// An empty FASTMM_TUNE_CACHE means "unset" (default location), not
// "disabled" — only the explicit disable words turn the disk layer off.
func TestEmptyEnvFallsBackToDefault(t *testing.T) {
	t.Setenv(EnvCacheDir, "")
	profilePath, cachePath, ok := Paths()
	if !ok {
		t.Skip("no user cache dir resolvable in this environment")
	}
	if !strings.Contains(profilePath, "fastmm") || !strings.Contains(cachePath, "fastmm") {
		t.Fatalf("empty env must fall back to the default dir: %s, %s", profilePath, cachePath)
	}
	for _, v := range []string{"off", "0", "none"} {
		t.Setenv(EnvCacheDir, v)
		if _, _, ok := Paths(); ok {
			t.Fatalf("%q must disable the disk layer", v)
		}
	}
}

// An exhausted ProbeBudget must fall back to the model's top pick (no probe
// ran, so no MeasuredSeconds), while a generous budget probes as before —
// the first bullet of the roadmap's "richer probe policy".
func TestProbeBudget(t *testing.T) {
	starved := mustTuner(t, Options{
		Resources:   Resources{Workers: 1},
		Profile:     testProfile(1),
		ProbeBudget: time.Nanosecond, // spent before the first probe starts
		NoDiskCache: true,
	})
	p, err := starved.PlanFor(192, 192, 192)
	if err != nil {
		t.Fatal(err)
	}
	if p.MeasuredSeconds != 0 {
		t.Fatalf("starved budget still probed: %+v", p)
	}
	ranked, err := starved.Rank(192, 192, 192)
	if err != nil {
		t.Fatal(err)
	}
	if p.Algorithm != ranked[0].Algorithm || p.Steps != ranked[0].Steps {
		t.Fatalf("starved budget must return the model's top pick %v, got %v", ranked[0], p)
	}

	generous := mustTuner(t, Options{
		Resources:   Resources{Workers: 1},
		Profile:     testProfile(1),
		ProbeBudget: time.Hour,
		NoDiskCache: true,
	})
	p2, err := generous.PlanFor(192, 192, 192)
	if err != nil {
		t.Fatal(err)
	}
	if p2.MeasuredSeconds <= 0 {
		t.Fatalf("generous budget must probe: %+v", p2)
	}

	// The budget is part of the tuning identity: differently budgeted tuners
	// must not share cache entries.
	if starved.key(op.Multiply, 192, 192, 192) == generous.key(op.Multiply, 192, 192, 192) {
		t.Fatal("ProbeBudget must enter the cache key")
	}
	unbudgeted := mustTuner(t, modelOnlyOpts(1))
	if strings.Contains(unbudgeted.key(op.Multiply, 192, 192, 192), "/pb") {
		t.Fatal("zero ProbeBudget must keep the legacy cache key")
	}
}

// Entry/Forget is the warm-entry surface the batched dispatcher builds on.
func TestEntryAndForget(t *testing.T) {
	tn := mustTuner(t, modelOnlyOpts(1))
	e, err := tn.Entry(192, 192, 192)
	if err != nil {
		t.Fatal(err)
	}
	A, B := mat.New(192, 192), mat.New(192, 192)
	rng := rand.New(rand.NewSource(5))
	A.FillRandom(rng)
	B.FillRandom(rng)
	C, want := mat.New(192, 192), mat.New(192, 192)
	gemm.Mul(want, A, B)
	if err := e.Multiply(C, A, B); err != nil {
		t.Fatal(err)
	}
	if d := mat.MaxAbsDiff(C, want); d > 1e-9*193 {
		t.Fatalf("entry multiply: max diff %g", d)
	}
	if !e.Plan().IsClassical() && e.WorkspaceRetained() <= 0 {
		t.Fatalf("fast entry retained no workspace after a call: %+v", e.Plan())
	}

	tn.Forget(192, 192, 192)
	if _, ok := tn.lru.get(tn.key(op.Multiply, 192, 192, 192)); ok {
		t.Fatal("Forget must drop the in-memory entry")
	}
	// The entry handle outlives the eviction, and re-touching re-tunes.
	if err := e.Multiply(C, A, B); err != nil {
		t.Fatal(err)
	}
	e2, err := tn.Entry(192, 192, 192)
	if err != nil {
		t.Fatal(err)
	}
	if e2.Plan().Algorithm != e.Plan().Algorithm {
		t.Fatalf("re-tuned plan diverged: %v vs %v", e2.Plan(), e.Plan())
	}
}

// TestProbeSkipsFailingSurvivor is the probe-resilience regression: a
// survivor whose multiply fails at run time (a backend that built fine but
// misbehaves on this machine) must be skipped — recorded, never a process
// panic — and the winner must come from the remaining survivors.
func TestProbeSkipsFailingSurvivor(t *testing.T) {
	tn := mustTuner(t, Options{Resources: Resources{Workers: 1}, Profile: testProfile(1), NoDiskCache: true})
	mkDecision := func() *decision {
		d, err := tn.build(op.Multiply, tn.classicalPlan(op.Multiply, 64, 64, 64, gemm.Default()))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	bad := mkDecision()
	bad.failMul = errors.New("backend exploded at run time")
	good := mkDecision()

	// The failing candidate ranks first; on the old code its probe panicked
	// the process ("unreachable").
	got, err := tn.probe(op.Multiply, []*decision{bad, good}, 64, 64, 64)
	if err != nil {
		t.Fatalf("probe with one failing survivor must fall back, got error %v", err)
	}
	if got != good {
		t.Fatalf("probe chose the failing survivor")
	}
	if got.plan.MeasuredSeconds <= 0 {
		t.Fatalf("the surviving candidate was never timed: %+v", got.plan)
	}

	// Every survivor failing surfaces the recorded error instead of an
	// arbitrary broken winner.
	bad2 := mkDecision()
	bad2.failMul = errors.New("also broken")
	if _, err := tn.probe(op.Multiply, []*decision{bad, bad2}, 64, 64, 64); err == nil {
		t.Fatal("all-failing survivors must surface an error")
	} else if !strings.Contains(err.Error(), "backend exploded") {
		t.Fatalf("the recorded error must name the first failure, got %v", err)
	}
}

// TestRememberMergesOnSave is the cache-clobbering regression: two
// in-process tuners with different option sets (disjoint cache-key
// suffixes) interleaving fresh decisions must both end up in the persisted
// file. The old code snapshotted only its own t.disk map, so the last
// writer dropped the other tuner's freshly persisted plans wholesale.
func TestRememberMergesOnSave(t *testing.T) {
	t.Setenv(EnvCacheDir, t.TempDir())

	// Build both tuners before any decision is made, so neither starts out
	// having loaded the other's entries (the interleaving the bug needs).
	optsA := Options{Resources: Resources{Workers: 1}, Profile: testProfile(1), ProbeTopK: NoProbes}
	optsB := Options{Resources: Resources{Workers: 1}, Profile: testProfile(1), ProbeTopK: NoProbes, MaxSteps: 2}
	ta := mustTuner(t, optsA)
	tb := mustTuner(t, optsB)
	if ta.keySuffix == tb.keySuffix {
		t.Fatal("test setup: the two option sets must have distinct cache keys")
	}

	shapes := [][3]int{{192, 192, 192}, {256, 256, 256}, {320, 320, 320}}
	var wantKeys []string
	for i, s := range shapes {
		tn := ta
		if i%2 == 1 {
			tn = tb // interleave writers
		}
		if _, err := tn.PlanFor(s[0], s[1], s[2]); err != nil {
			t.Fatal(err)
		}
		wantKeys = append(wantKeys, tn.key(op.Multiply, s[0], s[1], s[2]))
	}

	persisted := Entries()
	for _, key := range wantKeys {
		if _, ok := persisted[key]; !ok {
			t.Errorf("persisted cache lost entry %s (a later writer clobbered the file)", key)
		}
	}
	if len(persisted) < len(wantKeys) {
		t.Fatalf("persisted cache holds %d entries, want ≥ %d", len(persisted), len(wantKeys))
	}

	// Concurrent writers: the load-merge-save must be atomic across Tuner
	// instances (the persistence lock is process-wide, not per tuner — a
	// batcher builds one tuner per internal width, all sharing one file).
	conc := [][3]int{{384, 384, 384}, {448, 448, 448}, {512, 512, 512}, {640, 640, 640}}
	var wg sync.WaitGroup
	for i, tn := range []*Tuner{ta, tb} {
		wg.Add(1)
		go func(i int, tn *Tuner) {
			defer wg.Done()
			for j := i; j < len(conc); j += 2 {
				s := conc[j]
				if _, err := tn.PlanFor(s[0], s[1], s[2]); err != nil {
					t.Errorf("concurrent PlanFor %v: %v", s, err)
				}
			}
		}(i, tn)
	}
	wg.Wait()
	persisted = Entries()
	for j, s := range conc {
		tn := ta
		if j%2 == 1 {
			tn = tb
		}
		if _, ok := persisted[tn.key(op.Multiply, s[0], s[1], s[2])]; !ok {
			t.Errorf("concurrent writers lost persisted entry for %v", s)
		}
	}

	// The merge must not resurrect externally removed entries: a tuner
	// that loaded the populated file at construction, then decides a new
	// shape after an operator's cache clear, must persist only entries it
	// decided itself — saving its startup-loaded snapshot back would undo
	// `fmmtune clear` wholesale.
	tc := mustTuner(t, optsA) // startup snapshot holds every entry so far
	if err := ClearCache(false); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.PlanFor(896, 896, 896); err != nil {
		t.Fatal(err)
	}
	persisted = Entries()
	if _, ok := persisted[tc.key(op.Multiply, 896, 896, 896)]; !ok {
		t.Error("fresh decision after a clear was not persisted")
	}
	if len(persisted) != 1 {
		t.Errorf("save resurrected %d cleared entries (file should hold only the fresh decision)", len(persisted)-1)
	}
}

// The default candidate list holds exact decompositions only: a Numeric or
// APA catalog entry is ranked when Options.Algorithms names it, never
// otherwise, so default Auto cannot silently return a product that is off by
// the entry's ApproxTol.
func TestDefaultCandidatesAreExact(t *testing.T) {
	approx := map[string]bool{}
	for _, name := range catalog.Names() {
		if a := catalog.MustGet(name); a.Numeric || a.APA {
			approx[name] = true
		}
	}
	if !approx["fast323n"] {
		t.Fatal("catalog no longer has the Numeric entry fast323n; pick another approximate entry for this test")
	}
	ranked := func(opts Options, o op.Op, m, k, n int) (hits int) {
		plans, err := mustTuner(t, opts).RankOp(o, m, k, n)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range plans {
			if approx[p.Algorithm] {
				hits++
			}
		}
		return hits
	}
	shapes := [][3]int{{1536, 1024, 1024}, {2500, 625, 625}, {1024, 1024, 1024}, {2560, 320, 2560}}
	for _, o := range []op.Op{op.Multiply, op.MultiplyAdd, op.ATA, op.Syrk} {
		for _, sh := range shapes {
			if hits := ranked(modelOnlyOpts(2), o, sh[0], sh[1], sh[2]); hits != 0 {
				t.Errorf("default options rank %d approximate plans for %s %v", hits, o, sh)
			}
		}
	}
	named := modelOnlyOpts(2)
	named.Algorithms = []string{"strassen", "fast323n"}
	if ranked(named, op.Multiply, 1536, 1024, 1024) == 0 {
		t.Error("naming fast323n in Options.Algorithms must enrol it")
	}
}
