package tuner

import (
	"errors"
	"fmt"
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
			Backend: gemm.Default().Name(),
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
		p, err := tn.PlanForOp(op.Multiply, shape[0], shape[1], shape[2])
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
		p, err := tn.PlanForOp(op.Multiply, n, n, n)
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
	free, err := uncapped.PlanForOp(op.Multiply, n, n, n)
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
	plan, err := capped.PlanForOp(op.Multiply, n, n, n)
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
	ranked, err := roomy.RankOp(op.Multiply, n, n, n)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ranked {
		if p.WorkspaceBytes > roomyCap {
			t.Fatalf("ranked plan exceeds cap: %v", p)
		}
	}
	plan, err = roomy.PlanForOp(op.Multiply, n, n, n)
	if err != nil {
		t.Fatal(err)
	}
	if plan.WorkspaceBytes > roomyCap {
		t.Fatalf("selected plan exceeds roomy cap: %v", plan)
	}
}

// TestRankedWorkspaceIsExecutors: every ranked fast plan carries the
// WorkspaceBytes of the executor build makes from it — the ranking prices
// each candidate through that executor, so there is one workspace model.
func TestRankedWorkspaceIsExecutors(t *testing.T) {
	for _, w := range []int{1, 2} {
		tn := mustTuner(t, modelOnlyOpts(w))
		for _, s := range [][3]int{{1280, 1280, 1280}, {2560, 320, 2560}, {2500, 625, 625}} {
			ranked, err := tn.RankOp(op.Multiply, s[0], s[1], s[2])
			if err != nil {
				t.Fatal(err)
			}
			fast, off := 0, 0
			for _, p := range ranked {
				if p.IsClassical() {
					continue
				}
				d, err := tn.build(op.Multiply, p)
				if err != nil {
					t.Fatalf("W=%d %v: ranked plan %v does not build: %v", w, s, p, err)
				}
				fast++
				if got := d.exec.WorkspaceBytes(s[0], s[1], s[2]); got != p.WorkspaceBytes {
					off++
					t.Errorf("W=%d %v: %v ranked with %d workspace bytes, its executor's are %d", w, s, p, p.WorkspaceBytes, got)
				}
			}
			if fast == 0 {
				t.Errorf("W=%d %v: no fast plan ranked", w, s)
			}
			if off > 0 {
				t.Logf("W=%d %v: %d of %d fast plans off", w, s, off, fast)
			}
		}
	}
}

// TestWorkspaceCapKeepsFittingBFSPlan: a cap of exactly a BFS plan's
// footprint keeps the plan ranked; a figure that overstates the footprint
// would drop it.
func TestWorkspaceCapKeepsFittingBFSPlan(t *testing.T) {
	const n = 1280
	want := Plan{Algorithm: "strassen", Backend: gemm.Default().Name(), Steps: 2, Parallel: core.BFS.String(),
		Strategy: addchain.WriteOnce.String(), Fused: gemm.CanFuse(gemm.Default()), Workers: 2}
	tn := mustTuner(t, modelOnlyOpts(2))
	d, err := tn.build(op.Multiply, want)
	if err != nil {
		t.Fatal(err)
	}
	opts := modelOnlyOpts(2)
	opts.Workspace = d.exec.WorkspaceBytes(n, n, n)
	ranked, err := mustTuner(t, opts).RankOp(op.Multiply, n, n, n)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ranked {
		if p.String() == want.String() {
			return
		}
	}
	t.Fatalf("a cap of %v's own footprint, %d bytes, dropped it from the ranking", want, opts.Workspace)
}

func ipow(base, exp int) int {
	out := 1
	for i := 0; i < exp; i++ {
		out *= base
	}
	return out
}

// canonicalFast is a fast plan RankOp emits at one worker: write-once,
// without CSE, and fused exactly when the default backend can fuse.
func canonicalFast() Plan {
	return Plan{Algorithm: "strassen", Backend: gemm.Default().Name(), Steps: 1, Parallel: "sequential",
		Strategy: addchain.WriteOnce.String(), Fused: gemm.CanFuse(gemm.Default()), Workers: 1}
}

// requireCachedPlansRerank: build accepts canonicalFast and refuses every
// stale plan, and a tuner that finds a stale plan in the disk cache ranks
// the shape afresh, like an unknown algorithm, and replaces the entry on
// disk with the fresh decision.
func requireCachedPlansRerank(t *testing.T, stale ...Plan) {
	t.Helper()
	tn := mustTuner(t, modelOnlyOpts(1))
	if _, err := tn.build(op.Multiply, canonicalFast()); err != nil {
		t.Fatalf("%s must build: %v", canonicalFast(), err)
	}
	for _, p := range stale {
		if _, err := tn.build(op.Multiply, p); err == nil {
			t.Errorf("build accepted %s (cse %t)", p, p.CSE)
		}
	}

	const n = 512
	want, err := tn.PlanForOp(op.Multiply, n, n, n)
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv(EnvCacheDir, t.TempDir())
	opts := Options{Resources: Resources{Workers: 1}, Profile: testProfile(1), ProbeTopK: NoProbes}
	key := mustTuner(t, opts).key(op.Multiply, n, n, n, 1)
	for _, p := range stale {
		if err := storePlan(key, p); err != nil {
			t.Fatal(err)
		}
		got, err := mustTuner(t, opts).PlanForOp(op.Multiply, n, n, n)
		if err != nil {
			t.Fatal(err)
		}
		if executorKey(got) != executorKey(want) {
			t.Errorf("cached %s (cse %t) decided %s, want the fresh ranking's %s", p, p.CSE, got, want)
		}
		if onDisk, _ := loadPlan(key); executorKey(onDisk) != executorKey(want) {
			t.Errorf("cached %s (cse %t) left %s on disk, want %s", p, p.CSE, onDisk, want)
		}
	}
}

// TestCachedNonWriteOncePlanReranks: a streaming or CSE plan cached by an
// earlier version is not a plan RankOp emits, so it re-ranks.
func TestCachedNonWriteOncePlanReranks(t *testing.T) {
	streaming, cse := canonicalFast(), canonicalFast()
	streaming.Strategy = addchain.Streaming.String()
	cse.CSE = true
	requireCachedPlansRerank(t, streaming, cse)
}

// TestCachedOtherFusedPlanReranks: a fast plan is fused exactly when its
// backend can fuse, so a cached plan that disagrees — an explicit plan an
// earlier version ranked on the fusing simd backend — re-ranks.
func TestCachedOtherFusedPlanReranks(t *testing.T) {
	flipped := canonicalFast()
	flipped.Fused = !flipped.Fused
	requireCachedPlansRerank(t, flipped)
}

// The disk cache must round-trip decisions, one file per decision, and
// corrupt, foreign or missing files must degrade to pure model ranking —
// never to an error.
func TestCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	t.Setenv(EnvCacheDir, dir)

	opts := Options{Resources: Resources{Workers: 1}, Profile: testProfile(1), ProbeTopK: NoProbes}
	first := mustTuner(t, opts)
	want, err := first.PlanForOp(op.Multiply, 512, 512, 512)
	if err != nil {
		t.Fatal(err)
	}
	key := first.key(op.Multiply, 512, 512, 512, 1)
	cachePath := entryPath(filepath.Join(dir, cacheDir), key)
	if _, err := os.Stat(cachePath); err != nil {
		t.Fatalf("a decision must persist its file: %v", err)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, cacheDir, "*")); len(files) != 1 {
		t.Fatalf("cache directory holds %v, want the one decision's file", files)
	}

	second := mustTuner(t, opts)
	got, err := second.PlanForOp(op.Multiply, 512, 512, 512)
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
	got, err = third.PlanForOp(op.Multiply, 512, 512, 512)
	if err != nil {
		t.Fatalf("corrupt cache must degrade to model ranking: %v", err)
	}
	if got.Algorithm != want.Algorithm {
		t.Fatalf("after corrupt cache: got %v want %v", got, want)
	}

	// A cache entry referencing an unknown algorithm is skipped, not fatal.
	if err := storePlan(key, Plan{Algorithm: "no-such-algorithm", Parallel: "dfs", Strategy: "write-once", Workers: 1}); err != nil {
		t.Fatal(err)
	}
	fourth := mustTuner(t, opts)
	if got, err = fourth.PlanForOp(op.Multiply, 512, 512, 512); err != nil || got.Algorithm != want.Algorithm {
		t.Fatalf("stale entry must fall back to ranking: %v %v", got, err)
	}

	// A file that records another key (a hash collision, a hand-copied
	// file) is not this key's decision.
	if err := writeJSON(cachePath, entryFile{Key: key + "x", Plan: Plan{Algorithm: "no-such-algorithm"}}); err != nil {
		t.Fatal(err)
	}
	if _, ok := loadPlan(key); ok {
		t.Fatal("a file recording another key was read as this key's plan")
	}

	// Disabled disk layer still works.
	t.Setenv(EnvCacheDir, "off")
	if _, _, ok := Paths(); ok {
		t.Fatal("off must disable the disk layer")
	}
	fifth := mustTuner(t, opts)
	if _, err := fifth.PlanForOp(op.Multiply, 256, 256, 256); err != nil {
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
	if _, err := tn.PlanForOp(op.Multiply, 512, 512, 512); err != nil {
		t.Fatal(err)
	}
	const calls = 1000
	start := time.Now()
	for i := 0; i < calls; i++ {
		if _, err := tn.PlanForOp(op.Multiply, 512, 512, 512); err != nil {
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
	if _, err := tn.RankOp(op.Multiply, 0, 5, 5); err == nil {
		t.Fatal("invalid shape must error")
	}
	ranked, err := tn.RankOp(op.Multiply, 777, 777, 777)
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
	if _, err := parseParallel("bogus"); err == nil {
		t.Fatal("want error")
	}
}

// installEntry keeps a synthetic classical entry for key in tn's cache, as
// a decision would.
func installEntry(tn *Tuner, key cacheKey) *Entry {
	e := &Entry{d: &decision{plan: Plan{Algorithm: ClassicalAlgorithm}}, t: tn, key: key}
	tn.mu.Lock()
	tn.warm[key] = e
	tn.use(e)
	tn.evict()
	tn.mu.Unlock()
	return e
}

// TestLRU: past MaxEntries the cache evicts its least recently used entry,
// and a lookup makes an entry the most recently used.
func TestLRU(t *testing.T) {
	tn := mustTuner(t, modelOnlyOpts(1))
	key := func(i int) cacheKey { return cacheKey{op: op.Multiply, m: i, k: i, n: i, w: 1} }
	for i := 0; i < MaxEntries; i++ {
		installEntry(tn, key(i))
	}
	tn.mu.Lock()
	_, ok := tn.lookup(key(0))
	tn.mu.Unlock()
	if !ok {
		t.Fatal("entry 0 must be present")
	}
	installEntry(tn, key(MaxEntries)) // evicts 1: 0 was just looked up
	tn.mu.Lock()
	_, has0 := tn.warm[key(0)]
	_, has1 := tn.warm[key(1)]
	tn.mu.Unlock()
	if !has0 || has1 {
		t.Fatalf("entry 0 kept %v, entry 1 kept %v; want 0 kept and 1 evicted", has0, has1)
	}
	if n, _ := tn.Warm(); n != MaxEntries {
		t.Fatalf("cache holds %d entries, want %d", n, MaxEntries)
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
	p1, err := first.PlanForOp(op.Multiply, 512, 512, 512)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Algorithm != "strassen" {
		t.Fatalf("restricted tuner must pick from its set, got %v", p1)
	}

	winogradOnly := base
	winogradOnly.Algorithms = []string{"winograd"}
	second := mustTuner(t, winogradOnly)
	p2, err := second.PlanForOp(op.Multiply, 512, 512, 512)
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

// A ProbeTopK below NoProbes fails New: pick would count the probe pool as
// full before adding anything, so only classical would survive, unprobed.
func TestProbeTopKBelowNoProbesFails(t *testing.T) {
	opts := modelOnlyOpts(1)
	opts.ProbeTopK = NoProbes - 1
	if _, err := New(opts); err == nil || !strings.Contains(err.Error(), "ProbeTopK") {
		t.Fatalf("New with ProbeTopK %d: %v, want an error naming ProbeTopK", opts.ProbeTopK, err)
	}
}

// Entry is the warm-entry surface the batched dispatcher builds on: a warm
// entry is the cache's own, and a handle outlives the cache's eviction of it.
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
	if err := e.Run(op.Request{Op: op.Multiply, C: C, A: A, B: B}); err != nil {
		t.Fatal(err)
	}
	if d := mat.MaxAbsDiff(C, want); d > 1e-9*193 {
		t.Fatalf("entry multiply: max diff %g", d)
	}
	if !e.Plan().IsClassical() && e.WorkspaceRetained() <= 0 {
		t.Fatalf("fast entry retained no workspace after a call: %+v", e.Plan())
	}
	if _, retained := tn.Warm(); retained != e.WorkspaceRetained() {
		t.Fatalf("cache accounts %d retained bytes, the entry holds %d", retained, e.WorkspaceRetained())
	}
	if again, hit, _, err := tn.EntryOp(op.Multiply, 192, 192, 192, 1, nil); err != nil || !hit || again != e {
		t.Fatalf("warm EntryOp: hit %v, same entry %v, err %v", hit, again == e, err)
	}

	for _, w := range []int{0, 2} {
		if _, _, _, err := tn.EntryOp(op.Multiply, 192, 192, 192, w, nil); err == nil {
			t.Errorf("EntryOp at width %d of a 1-worker tuner succeeded", w)
		}
	}
	// MaxEntries newer entries evict it, and its bytes leave the account.
	for i := 1; i <= MaxEntries; i++ {
		installEntry(tn, cacheKey{op: op.ATA, m: i, k: i, n: i, w: 1})
	}
	if n, retained := tn.Warm(); n != MaxEntries || retained != 0 {
		t.Fatalf("after eviction the cache holds %d entries retaining %d bytes, want %d and 0", n, retained, MaxEntries)
	}
	// The entry handle outlives the eviction, and re-touching re-tunes.
	if err := e.Run(op.Request{Op: op.Multiply, C: C, A: A, B: B}); err != nil {
		t.Fatal(err)
	}
	if _, retained := tn.Warm(); retained != 0 {
		t.Fatalf("an evicted entry's run is accounted: %d retained bytes", retained)
	}
	e2, hit, _, err := tn.EntryOp(op.Multiply, 192, 192, 192, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hit || e2 == e {
		t.Fatalf("an evicted key was served warm: hit %v, same entry %v", hit, e2 == e)
	}
	if e2.Plan().Algorithm != e.Plan().Algorithm {
		t.Fatalf("re-tuned plan diverged: %v vs %v", e2.Plan(), e.Plan())
	}
}

// deepProfile models a gemm whose rate falls steeply past 128³ blocks, so
// the ranking recurses as deep as a shape allows and a fast entry's
// executor retains megabytes of arenas: at one worker 320³, 384³ and 448³
// run two-step Strassen retaining about 2, 3 and 4 MB.
func deepProfile() *Profile {
	p := *testProfile(1)
	p.Machine.Gemm = []costmodel.GemmSample{
		{N: 64, SeqGFLOPS: 2.4, ParGFLOPS: 2.4},
		{N: 128, SeqGFLOPS: 2.4, ParGFLOPS: 2.4},
		{N: 256, SeqGFLOPS: 0.6, ParGFLOPS: 0.6},
		{N: 1024, SeqGFLOPS: 0.2, ParGFLOPS: 0.2},
	}
	return &p
}

// TestWorkspaceBudgetEvicts: a tuner whose Workspace budget admits each fast
// plan alone but not the arenas of all of them keeps the bytes its cache
// retains inside the budget, apart from its most recently used entry, which
// always stays.
func TestWorkspaceBudgetEvicts(t *testing.T) {
	shapes := []int{320, 384, 448}
	opts := modelOnlyOpts(1)
	opts.Profile = deepProfile()
	uncapped := mustTuner(t, opts)
	for _, n := range shapes {
		p, err := uncapped.PlanForOp(op.Multiply, n, n, n)
		if err != nil {
			t.Fatal(err)
		}
		if p.IsClassical() {
			t.Fatalf("%d³: the profile picked classical, want a fast plan", n)
		}
		opts.Workspace = max(opts.Workspace, p.WorkspaceBytes)
	}
	tn := mustTuner(t, opts)
	for round := 0; round < 2; round++ {
		for _, n := range shapes {
			A, B, C := mat.New(n, n), mat.New(n, n), mat.New(n, n)
			A.FillRandom(rand.New(rand.NewSource(int64(n))))
			B.FillRandom(rand.New(rand.NewSource(int64(n + 1))))
			if err := tn.Multiply(C, A, B); err != nil {
				t.Fatal(err)
			}
			want := mat.New(n, n)
			gemm.Mul(want, A, B)
			if d := mat.MaxAbsDiff(C, want); d > 1e-9*float64(n+1) {
				t.Fatalf("%d³: max diff %g", n, d)
			}
			if p, _ := tn.PlanForOp(op.Multiply, n, n, n); p.IsClassical() {
				t.Fatalf("%d³: a budget of %d filtered every fast plan", n, opts.Workspace)
			}
			if entries, retained := tn.Warm(); entries > 1 && retained > opts.Workspace {
				t.Fatalf("%d entries retain %d bytes over a budget of %d", entries, retained, opts.Workspace)
			}
		}
	}
	if entries, _ := tn.Warm(); entries == len(shapes) {
		t.Fatalf("the cache kept all %d entries: nothing was evicted under a budget of %d", entries, opts.Workspace)
	}
}

// TestKeyRendersWidth: a decision's key at width w is the key a tuner built
// with Workers w renders for the same options, so a tuner deciding at every
// width reads and writes the files that tuners built at each width do.
func TestKeyRendersWidth(t *testing.T) {
	const W = 3
	prof := testProfile(W)
	tn := mustTuner(t, Options{Resources: Resources{Workers: W}, Profile: prof})
	for w := 1; w <= W; w++ {
		per := mustTuner(t, Options{Resources: Resources{Workers: w}, Profile: prof})
		want := fmt.Sprintf("v%d/mul/512x256x384/%s", ProfileVersion, per.opts.Key())
		if got := tn.key(op.Multiply, 512, 256, 384, w); got != want {
			t.Errorf("w=%d: key %q, want %q", w, got, want)
		}
	}
	want := fmt.Sprintf("v%d/mul/512x512x512/w1/cap0/be:%s/", ProfileVersion, gemm.Default().Name())
	if got := tn.key(op.Multiply, 512, 512, 512, 1); !strings.HasPrefix(got, want) {
		t.Errorf("key %q, want the prefix %q", got, want)
	}
}

// TestProbeSkipsFailingSurvivor is the probe-resilience regression: a
// survivor whose multiply fails at run time (a backend that built fine but
// misbehaves on this machine) must be skipped — recorded, never a process
// panic — and the winner must come from the remaining survivors.
func TestProbeSkipsFailingSurvivor(t *testing.T) {
	tn := mustTuner(t, Options{Resources: Resources{Workers: 1}, Profile: testProfile(1), NoDiskCache: true})
	mkDecision := func() *decision {
		d, err := tn.build(op.Multiply, tn.classicalPlan(op.Multiply, 64, 64, 64, 1))
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
	got, _, err := tn.probe([]*decision{bad, good}, 64, 64, 64, nil)
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
	if _, _, err := tn.probe([]*decision{bad, bad2}, 64, 64, 64, nil); err == nil {
		t.Fatal("all-failing survivors must surface an error")
	} else if !strings.Contains(err.Error(), "backend exploded") {
		t.Fatalf("the recorded error must name the first failure, got %v", err)
	}
}

// TestRememberMergesOnSave is the cache-clobbering regression: tuners with
// different option sets (disjoint cache-key suffixes) interleaving or racing
// fresh decisions must all end up persisted, since each decision is a file
// of its own, and no writer leaves a temporary file behind.
func TestRememberMergesOnSave(t *testing.T) {
	dir := t.TempDir()
	t.Setenv(EnvCacheDir, dir)

	optsA := Options{Resources: Resources{Workers: 1}, Profile: testProfile(1), ProbeTopK: NoProbes}
	optsB := Options{Resources: Resources{Workers: 1}, Profile: testProfile(1), ProbeTopK: NoProbes, Algorithms: []string{"strassen"}}
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
		if _, err := tn.PlanForOp(op.Multiply, s[0], s[1], s[2]); err != nil {
			t.Fatal(err)
		}
		wantKeys = append(wantKeys, tn.key(op.Multiply, s[0], s[1], s[2], 1))
	}

	persisted := Entries()
	for _, key := range wantKeys {
		if _, ok := persisted[key]; !ok {
			t.Errorf("persisted cache lost entry %s (a later writer clobbered it)", key)
		}
	}
	if len(persisted) != len(wantKeys) {
		t.Fatalf("persisted cache holds %d entries, want %d", len(persisted), len(wantKeys))
	}

	// Concurrent writers, two tuners over disjoint shapes and four
	// goroutines on one shape of one tuner: every decision lands.
	conc := [][3]int{{384, 384, 384}, {448, 448, 448}, {512, 512, 512}, {640, 640, 640}}
	var wg sync.WaitGroup
	for i, tn := range []*Tuner{ta, tb} {
		wg.Add(1)
		go func(i int, tn *Tuner) {
			defer wg.Done()
			for j := i; j < len(conc); j += 2 {
				s := conc[j]
				if _, err := tn.PlanForOp(op.Multiply, s[0], s[1], s[2]); err != nil {
					t.Errorf("concurrent PlanForOp %v: %v", s, err)
				}
			}
		}(i, tn)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := ta.PlanForOp(op.Multiply, 576, 576, 576); err != nil {
				t.Errorf("concurrent PlanForOp 576³: %v", err)
			}
		}()
	}
	wg.Wait()
	persisted = Entries()
	for j, s := range conc {
		tn := ta
		if j%2 == 1 {
			tn = tb
		}
		if _, ok := persisted[tn.key(op.Multiply, s[0], s[1], s[2], 1)]; !ok {
			t.Errorf("concurrent writers lost persisted entry for %v", s)
		}
	}
	if want := len(wantKeys) + len(conc) + 1; len(persisted) != want {
		t.Errorf("persisted cache holds %d entries, want %d", len(persisted), want)
	}
	if tmp, _ := filepath.Glob(filepath.Join(dir, cacheDir, "*.tmp*")); len(tmp) != 0 {
		t.Errorf("writers left temporary files %v", tmp)
	}
}

// TestClearCacheIsNotUndone: a tuner that persisted a decision before an
// operator's cache clear writes back only the decisions it makes after it,
// so the clear is not undone by the tuner's next save.
func TestClearCacheIsNotUndone(t *testing.T) {
	t.Setenv(EnvCacheDir, t.TempDir())
	tn := mustTuner(t, Options{Resources: Resources{Workers: 1}, Profile: testProfile(1), ProbeTopK: NoProbes})
	if _, err := tn.PlanForOp(op.Multiply, 256, 256, 256); err != nil {
		t.Fatal(err)
	}
	if err := ClearCache(false); err != nil {
		t.Fatal(err)
	}
	if _, err := tn.PlanForOp(op.Multiply, 320, 320, 320); err != nil {
		t.Fatal(err)
	}
	persisted := Entries()
	if _, ok := persisted[tn.key(op.Multiply, 320, 320, 320, 1)]; !ok || len(persisted) != 1 {
		t.Fatalf("after a clear and one decision the cache holds %d entries (fresh one present: %t), want only the fresh one", len(persisted), ok)
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

// BenchmarkRankOp times one ranking of a shape the tuner has not decided —
// every candidate's executor built and priced, as a cold decision does
// before it probes — on a square and on the thin outer-product shape of the
// repository benchmark, at one and two workers under testProfile.
func BenchmarkRankOp(b *testing.B) {
	for _, w := range []int{1, 2} {
		for _, s := range [][3]int{{1280, 1280, 1280}, {2560, 320, 2560}} {
			b.Run(fmt.Sprintf("w%d/%dx%dx%d", w, s[0], s[1], s[2]), func(b *testing.B) {
				tn, err := New(modelOnlyOpts(w))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := tn.RankOp(op.Multiply, s[0], s[1], s[2]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
