package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"fastmm/internal/addchain"
	"fastmm/internal/algo"
	"fastmm/internal/catalog"
	"fastmm/internal/gemm"
	"fastmm/internal/mat"
)

func randMat(r, c int, rng *rand.Rand) *mat.Dense {
	m := mat.New(r, c)
	m.FillRandom(rng)
	return m
}

// check multiplies with the executor and compares against the naive oracle.
func check(t *testing.T, e *Executor, m, k, n int, rng *rand.Rand) {
	t.Helper()
	A, B := randMat(m, k, rng), randMat(k, n, rng)
	want := mat.New(m, n)
	gemm.Naive(want, A, B)
	got := mat.New(m, n)
	if err := e.Multiply(got, A, B); err != nil {
		t.Fatal(err)
	}
	tol := 1e-10 * float64(k+1)
	if e.Algorithm().Numeric {
		// Search-found numeric coefficients are exact only to
		// least-squares precision.
		tol = 1e-6 * float64(k+1)
	}
	if d := mat.MaxAbsDiff(got, want); d > tol {
		t.Fatalf("%s %dx%dx%d: max diff %g > %g", e.Algorithm().Name, m, k, n, d, tol)
	}
}

func TestStrassenExactDims(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, steps := range []int{1, 2, 3} {
		e, err := New(catalog.Strassen(), Options{Steps: steps})
		if err != nil {
			t.Fatal(err)
		}
		n := 8 << 3 // 64: divisible by 2^3
		check(t, e, n, n, n, rng)
	}
}

func TestDynamicPeelingOddDims(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	e, err := New(catalog.Strassen(), Options{Steps: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range [][3]int{
		{63, 65, 67}, {101, 103, 97}, {64, 63, 62}, {65, 64, 63},
		{127, 2, 129}, {2, 127, 2}, {1, 50, 1}, {50, 1, 50},
	} {
		t.Run(fmt.Sprintf("%dx%dx%d", d[0], d[1], d[2]), func(t *testing.T) {
			check(t, e, d[0], d[1], d[2], rng)
		})
	}
}

func TestAllCatalogAlgorithmsMultiply(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, name := range catalog.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			a := catalog.MustGet(name)
			e, err := New(a, Options{Steps: 2})
			if err != nil {
				t.Fatal(err)
			}
			b := a.Base
			// One exact multiple and one peeled size.
			check(t, e, b.M*b.M*7, b.K*b.K*7, b.N*b.N*7, rng)
			check(t, e, b.M*b.M*7+3, b.K*b.K*7+1, b.N*b.N*7+5, rng)
		})
	}
}

func TestAllStrategies(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, strat := range []addchain.Strategy{addchain.Pairwise, addchain.WriteOnce, addchain.Streaming} {
		for _, cse := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v-cse=%v", strat, cse), func(t *testing.T) {
				e, err := New(catalog.MustGet("fast424"), Options{Steps: 2, Strategy: strat, CSE: cse})
				if err != nil {
					t.Fatal(err)
				}
				check(t, e, 67, 35, 70, rng)
			})
		}
	}
}

func TestStrategiesProduceIdenticalResults(t *testing.T) {
	// The three strategies reorder additions but use the same chains, so
	// results agree to fp roundoff.
	rng := rand.New(rand.NewSource(5))
	A, B := randMat(96, 96, rng), randMat(96, 96, rng)
	var results []*mat.Dense
	for _, strat := range []addchain.Strategy{addchain.Pairwise, addchain.WriteOnce, addchain.Streaming} {
		e, err := New(catalog.Strassen(), Options{Steps: 2, Strategy: strat})
		if err != nil {
			t.Fatal(err)
		}
		C := mat.New(96, 96)
		if err := e.Multiply(C, A, B); err != nil {
			t.Fatal(err)
		}
		results = append(results, C)
	}
	for i := 1; i < len(results); i++ {
		if d := mat.MaxAbsDiff(results[0], results[i]); d > 1e-10 {
			t.Fatalf("strategy %d differs by %g", i, d)
		}
	}
}

func TestParallelModes(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, mode := range []Parallel{Sequential, DFS, BFS, Hybrid} {
		for _, workers := range []int{1, 2, 6} {
			t.Run(fmt.Sprintf("%v-w%d", mode, workers), func(t *testing.T) {
				e, err := New(catalog.Strassen(), Options{Resources: Resources{Workers: workers}, Steps: 2, Parallel: mode})
				if err != nil {
					t.Fatal(err)
				}
				check(t, e, 130, 131, 133, rng)
			})
		}
	}
}

func TestParallelModesRectangular(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, mode := range []Parallel{DFS, BFS, Hybrid} {
		e, err := New(catalog.MustGet("fast424"), Options{Resources: Resources{Workers: 4}, Steps: 1, Parallel: mode})
		if err != nil {
			t.Fatal(err)
		}
		check(t, e, 93, 40, 95, rng)
	}
}

func TestHybridManyWorkersFewTasks(t *testing.T) {
	// Workers > leaf tasks: 7 leaves, 24 workers → everything deferred
	// (bfsCut = 0); must still complete and be correct.
	rng := rand.New(rand.NewSource(8))
	e, err := New(catalog.Strassen(), Options{Resources: Resources{Workers: 24}, Steps: 1, Parallel: Hybrid})
	if err != nil {
		t.Fatal(err)
	}
	check(t, e, 64, 64, 64, rng)
}

// TestAutoCutoff: Steps 0 recurses while every block stays at least MinDim.
func TestAutoCutoff(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var stats Stats
	e, err := New(catalog.Strassen(), Options{Steps: 0, Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ n, leaves int64 }{
		{2*MinDim + 3, 7}, // one level: the 129-blocks stay ≥ MinDim, their halves do not
		{2*MinDim - 1, 1}, // a 127-block would fall below the cutoff: plain gemm
	} {
		stats.Reset()
		check(t, e, int(c.n), int(c.n), int(c.n), rng)
		if got := stats.Snapshot().LeafCalls; got != c.leaves {
			t.Errorf("%d³: %d leaf calls, want %d", c.n, got, c.leaves)
		}
	}
}

func TestAutoCutoffParallelModes(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, mode := range []Parallel{BFS, Hybrid} {
		e, err := New(catalog.Strassen(), Options{Resources: Resources{Workers: 4}, Steps: 0, Parallel: mode})
		if err != nil {
			t.Fatal(err)
		}
		check(t, e, 2*MinDim+10, 2*MinDim+6, 2*MinDim+2, rng)
	}
}

func TestScheduleCycling(t *testing.T) {
	// ⟨2,2,3⟩ at level 0, ⟨3,2,2⟩ at level 1 — mirrors the paper's
	// composed ⟨54,54,54⟩ construction at small scale.
	rng := rand.New(rand.NewSource(11))
	e, err := NewSchedule([]*algo.Algorithm{catalog.MustGet("fast223"), catalog.MustGet("fast322")}, Options{Steps: 2})
	if err != nil {
		t.Fatal(err)
	}
	check(t, e, 2*3*5, 2*2*5, 3*2*5, rng)
	check(t, e, 37, 41, 43, rng) // peeled
}

func TestSquare54Schedule(t *testing.T) {
	// The full ⟨3,3,6⟩∘⟨3,6,3⟩∘⟨6,3,3⟩ schedule on one 54-divisible size.
	rng := rand.New(rand.NewSource(12))
	e, err := NewSchedule([]*algo.Algorithm{
		catalog.MustGet("fast336"), catalog.MustGet("fast363"), catalog.MustGet("fast633"),
	}, Options{Steps: 3})
	if err != nil {
		t.Fatal(err)
	}
	check(t, e, 54, 54, 54, rng)
}

func TestDimensionMismatchError(t *testing.T) {
	e, _ := New(catalog.Strassen(), Options{Steps: 1})
	if err := e.Multiply(mat.New(2, 2), mat.New(2, 3), mat.New(2, 2)); err == nil {
		t.Fatal("want dimension error")
	}
	if err := e.Multiply(mat.New(3, 2), mat.New(2, 2), mat.New(2, 2)); err == nil {
		t.Fatal("want output dimension error")
	}
}

func TestRejectsInvalidAlgorithm(t *testing.T) {
	bad := catalog.Strassen().Clone()
	bad.U.Set(0, 0, 5)
	if _, err := New(bad, Options{}); err == nil {
		t.Fatal("executor must refuse an invalid algorithm")
	}
	if _, err := NewSchedule(nil, Options{}); err == nil {
		t.Fatal("empty schedule must error")
	}
	if _, err := NewSchedule([]*algo.Algorithm{nil}, Options{}); err == nil {
		t.Fatal("nil algorithm must error")
	}
}

func TestTinyInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	e, _ := New(catalog.Strassen(), Options{Steps: 3})
	for _, d := range [][3]int{{1, 1, 1}, {2, 2, 2}, {3, 3, 3}, {2, 1, 2}, {1, 8, 1}} {
		check(t, e, d[0], d[1], d[2], rng)
	}
}

func TestEmptyDims(t *testing.T) {
	e, _ := New(catalog.Strassen(), Options{Steps: 1})
	C := mat.New(0, 5)
	if err := e.Multiply(C, mat.New(0, 3), mat.New(3, 5)); err != nil {
		t.Fatal(err)
	}
}

func TestExecutorReuseIsConcurrencySafe(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	e, _ := New(catalog.Strassen(), Options{Resources: Resources{Workers: 3}, Steps: 2, Parallel: BFS})
	A, B := randMat(80, 80, rng), randMat(80, 80, rng)
	want := mat.New(80, 80)
	gemm.Naive(want, A, B)
	done := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() {
			C := mat.New(80, 80)
			if err := e.Multiply(C, A, B); err != nil {
				done <- err
				return
			}
			if d := mat.MaxAbsDiff(C, want); d > 1e-9 {
				done <- fmt.Errorf("diff %g", d)
				return
			}
			done <- nil
		}()
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// Property: for random shapes, algorithms, strategies and schedulers the
// executor agrees with the classical oracle.
func TestExecutorEquivalenceProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property test is slow")
	}
	rng := rand.New(rand.NewSource(15))
	names := []string{"strassen", "winograd", "fast232", "fast333", "fast424", "fast233"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := catalog.MustGet(names[r.Intn(len(names))])
		opts := Options{
			Steps:     r.Intn(2) + 1,
			Strategy:  addchain.Strategy(r.Intn(3)),
			CSE:       r.Intn(2) == 1,
			Parallel:  Parallel(r.Intn(4)),
			Resources: Resources{Workers: r.Intn(5) + 1},
		}
		e, err := New(a, opts)
		if err != nil {
			return false
		}
		m, k, n := r.Intn(90)+1, r.Intn(90)+1, r.Intn(90)+1
		A, B := randMat(m, k, rng), randMat(k, n, rng)
		want := mat.New(m, n)
		gemm.Naive(want, A, B)
		got := mat.New(m, n)
		if err := e.Multiply(got, A, B); err != nil {
			return false
		}
		return mat.MaxAbsDiff(got, want) <= 1e-10*float64(k+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelStringNames(t *testing.T) {
	if Sequential.String() != "sequential" || DFS.String() != "dfs" ||
		BFS.String() != "bfs" || Hybrid.String() != "hybrid" {
		t.Fatal("names")
	}
}

func TestOptionsDefaults(t *testing.T) {
	e, _ := New(catalog.Strassen(), Options{})
	o := e.Opts()
	if o.Workers < 1 {
		t.Fatalf("defaults %+v", o)
	}
}

// TestZeroStrategyIsWriteOnce: an executor built without a strategy forms
// its operand sums write-once, §3.2's practical strategy, not pairwise.
func TestZeroStrategyIsWriteOnce(t *testing.T) {
	e, err := New(catalog.Strassen(), Options{Steps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Opts().Strategy; got != addchain.WriteOnce {
		t.Errorf("core.Options{} runs %s, want %s", got, addchain.WriteOnce)
	}
}

// TestOptionsFields pins the executor's settable surface: the budget, the
// plan's own choices and the stats sink. The recursion cutoff is the
// constant MinDim, shared with the tuner that prices it.
func TestOptionsFields(t *testing.T) {
	var fields []string
	var walk func(t reflect.Type, path string)
	walk = func(t reflect.Type, path string) {
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue
			}
			if f.Type.Kind() == reflect.Struct {
				walk(f.Type, path+f.Name+".")
				continue
			}
			fields = append(fields, path+f.Name)
		}
	}
	walk(reflect.TypeOf(Options{}), "")
	want := "Resources.Workers Resources.Workspace Steps Strategy CSE Parallel Backend Fused Stats"
	if got := strings.Join(fields, " "); got != want {
		t.Errorf("core.Options fields %q, want %q", got, want)
	}
}

// One ⟨4,4,4⟩=Strassen∘Strassen step computes the same bilinear form as two
// Strassen steps; results must agree to fp roundoff and both must be right.
func TestComposedStepEqualsTwoSteps(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	A, B := randMat(96, 96, rng), randMat(96, 96, rng)
	want := mat.New(96, 96)
	gemm.Naive(want, A, B)

	e2, err := New(catalog.Strassen(), Options{Steps: 2})
	if err != nil {
		t.Fatal(err)
	}
	twoStep := mat.New(96, 96)
	if err := e2.Multiply(twoStep, A, B); err != nil {
		t.Fatal(err)
	}
	e1, err := New(catalog.MustGet("fast444"), Options{Steps: 1})
	if err != nil {
		t.Fatal(err)
	}
	oneStep := mat.New(96, 96)
	if err := e1.Multiply(oneStep, A, B); err != nil {
		t.Fatal(err)
	}
	if d := mat.MaxAbsDiff(twoStep, want); d > 1e-10 {
		t.Fatalf("two-step off by %g", d)
	}
	if d := mat.MaxAbsDiff(oneStep, want); d > 1e-10 {
		t.Fatalf("composed step off by %g", d)
	}
	if catalog.MustGet("fast444").Rank() != 49 {
		t.Fatal("strassen∘strassen must have rank 49")
	}
}

// NewTrusted must produce the same results as New while skipping the
// per-construction tensor verification (it accepts what New would reject).
func TestNewTrusted(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	e, err := NewTrusted(catalog.Strassen(), Options{Steps: 2})
	if err != nil {
		t.Fatal(err)
	}
	check(t, e, 64, 64, 64, rng)

	bogus := catalog.Strassen().Clone()
	bogus.U.Set(0, 0, 42) // no longer a decomposition of the tensor
	if _, err := New(bogus, Options{}); err == nil {
		t.Fatal("New must reject an invalid algorithm")
	}
	if _, err := NewTrusted(bogus, Options{}); err != nil {
		t.Fatalf("NewTrusted must accept without verifying: %v", err)
	}
}
