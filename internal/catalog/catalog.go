// Package catalog holds the repository's named fast matrix-multiplication
// algorithms — the Go analogue of Benson & Ballard's coefficient files,
// which internal/core's executor turns into implementations when it is
// constructed. Every entry is an exact bilinear algorithm
// (verified by the test suite against the ⟨M,K,N⟩ tensor); Table 2 of the
// paper is regenerated from these entries by cmd/fmminfo.
//
// Entries whose published coefficients are not reconstructible offline are
// built by the splitting/composition constructions of internal/algo, which
// yields exact algorithms whose rank may exceed the paper's. The comment at
// each register call gives the entry's construction and its rank against
// Table 2's.
package catalog

import (
	"fmt"
	"sort"
	"sync"

	"fastmm/internal/algo"
	"fastmm/internal/mat"
)

// PaperRank records the rank reported in Table 2 of the paper for a base
// case (0 when the paper does not list it). Used by fmminfo to report
// "paper vs repo" honestly.
type Entry struct {
	Name      string
	PaperRank int
	Build     func() *algo.Algorithm
}

var (
	mu           sync.Mutex
	cache        = map[string]*algo.Algorithm{}
	verifyResult = map[string]error{}
	entries      = map[string]Entry{}
	order        []string
)

func register(name string, paperRank int, build func() *algo.Algorithm) {
	if _, dup := entries[name]; dup {
		panic("catalog: duplicate algorithm " + name)
	}
	entries[name] = Entry{Name: name, PaperRank: paperRank, Build: build}
	order = append(order, name)
}

// Get returns the named algorithm, building and caching it on first use.
// Builders may recursively Get other entries, so the lock is not held while
// building (a rare duplicate build is idempotent).
func Get(name string) (*algo.Algorithm, error) {
	mu.Lock()
	if a, ok := cache[name]; ok {
		mu.Unlock()
		return a, nil
	}
	e, ok := entries[name]
	mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("catalog: unknown algorithm %q (known: %v)", name, Names())
	}
	a := e.Build()
	a.Name = name
	mu.Lock()
	cache[name] = a
	mu.Unlock()
	return a, nil
}

// GetVerified returns the named algorithm after checking it is an exact
// decomposition of its base-case tensor — but runs that check at most once
// per entry for the life of the process. Callers that build many executors
// from the same entry (the autotuner probes dozens per shape) pair this with
// core.NewTrusted so the tensor check is paid once, not per candidate.
func GetVerified(name string) (*algo.Algorithm, error) {
	a, err := Get(name)
	if err != nil {
		return nil, err
	}
	mu.Lock()
	err, done := verifyResult[name]
	mu.Unlock()
	if !done {
		err = a.Verify()
		mu.Lock()
		verifyResult[name] = err
		mu.Unlock()
	}
	if err != nil {
		return nil, fmt.Errorf("catalog: %q failed verification: %w", name, err)
	}
	return a, nil
}

// MustGet is Get for callers with a static name.
func MustGet(name string) *algo.Algorithm {
	a, err := Get(name)
	if err != nil {
		panic(err)
	}
	return a
}

// Names returns all registered algorithm names in registration order.
// The registry is immutable after init, so no locking is needed.
func Names() []string {
	out := make([]string, len(order))
	copy(out, order)
	return out
}

// PaperRankOf returns the Table 2 rank for the entry (0 if unlisted).
func PaperRankOf(name string) int { return entries[name].PaperRank }

// ForBase returns the names of all algorithms with the given base case,
// sorted by rank (ascending).
func ForBase(bc algo.BaseCase) []string {
	var out []string
	for _, n := range Names() {
		if a, err := Get(n); err == nil && a.Base == bc {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return MustGet(out[i]).Rank() < MustGet(out[j]).Rank() })
	return out
}

// Strassen returns Strassen's ⟨2,2,2⟩ algorithm.
func Strassen() *algo.Algorithm { return MustGet("strassen") }

// Winograd returns the Strassen-Winograd variant (7 multiplications, 15
// chained additions).
func Winograd() *algo.Algorithm { return MustGet("winograd") }

// strassen builds the algorithm from the paper's §2.2.2 factor matrices.
func strassen() *algo.Algorithm {
	return &algo.Algorithm{
		Base: algo.BaseCase{M: 2, K: 2, N: 2},
		U: mat.FromRows([][]float64{
			{1, 0, 1, 0, 1, -1, 0},
			{0, 0, 0, 0, 1, 0, 1},
			{0, 1, 0, 0, 0, 1, 0},
			{1, 1, 0, 1, 0, 0, -1},
		}),
		V: mat.FromRows([][]float64{
			{1, 1, 0, -1, 0, 1, 0},
			{0, 0, 1, 0, 0, 1, 0},
			{0, 0, 0, 1, 0, 0, 1},
			{1, 0, -1, 0, 1, 0, 1},
		}),
		W: mat.FromRows([][]float64{
			{1, 0, 0, 1, -1, 0, 1},
			{0, 0, 1, 0, 1, 0, 0},
			{0, 1, 0, 1, 0, 0, 0},
			{1, -1, 1, 0, 0, 1, 0},
		}),
	}
}

// winograd builds the Strassen-Winograd variant, which performs the same 7
// multiplications but only 15 additions when the addition chains share
// intermediates (the optimum, per Probert):
//
//	M1 = A11·B11                 M2 = A12·B21
//	M3 = (A11+A12−A21−A22)·B22   M4 = A22·(B11−B12−B21+B22)
//	M5 = (A21+A22)·(B12−B11)     M6 = (A21+A22−A11)·(B11−B12+B22)
//	M7 = (A11−A21)·(B22−B12)
//	C11 = M1+M2        C12 = M1+M3+M5+M6
//	C21 = M1−M4+M6+M7  C22 = M1+M5+M6+M7
func winograd() *algo.Algorithm {
	return &algo.Algorithm{
		Base: algo.BaseCase{M: 2, K: 2, N: 2},
		U: mat.FromRows([][]float64{
			{1, 0, 1, 0, 0, -1, 1},
			{0, 1, 1, 0, 0, 0, 0},
			{0, 0, -1, 0, 1, 1, -1},
			{0, 0, -1, 1, 1, 1, 0},
		}),
		V: mat.FromRows([][]float64{
			{1, 0, 0, 1, -1, 1, 0},
			{0, 0, 0, -1, 1, -1, -1},
			{0, 1, 0, -1, 0, 0, 0},
			{0, 0, 1, 1, 0, 1, 1},
		}),
		W: mat.FromRows([][]float64{
			{1, 1, 0, 0, 0, 0, 0},
			{1, 0, 1, 0, 1, 1, 0},
			{1, 0, 0, -1, 0, 1, 1},
			{1, 0, 0, 0, 1, 1, 1},
		}),
	}
}

func classical(m, k, n int) func() *algo.Algorithm {
	return func() *algo.Algorithm { return algo.Classical(m, k, n) }
}

func mustSplitN(a, b *algo.Algorithm) *algo.Algorithm {
	out, err := algo.SplitN(a, b, "")
	if err != nil {
		panic(err)
	}
	return out
}

func mustSplitM(a, b *algo.Algorithm) *algo.Algorithm {
	out, err := algo.SplitM(a, b, "")
	if err != nil {
		panic(err)
	}
	return out
}

func mustSplitK(a, b *algo.Algorithm) *algo.Algorithm {
	out, err := algo.SplitK(a, b, "")
	if err != nil {
		panic(err)
	}
	return out
}

func mustPermute(a *algo.Algorithm, bc algo.BaseCase) *algo.Algorithm {
	out, err := algo.Permute(a, bc, "")
	if err != nil {
		panic(err)
	}
	return out
}

func init() {
	// Paper §2.2.2; rank 7.
	register("strassen", 7, strassen)
	// Strassen–Winograd, 15 chained additions; rank 7.
	register("winograd", 7, winograd)
	// Classical ⟨2,2,2⟩ as a bilinear algorithm; rank 8, not in Table 2.
	register("classical222", 0, classical(2, 2, 2))

	// ⟨2,2,N⟩ family: Strassen ⊕ classical column blocks reach the
	// Hopcroft-Kerr ranks from Table 2 exactly.

	// Strassen split with a classical ⟨2,2,1⟩; paper rank 11, repo 11.
	register("fast223", 11, func() *algo.Algorithm {
		return mustSplitN(MustGet("strassen"), algo.Classical(2, 2, 1))
	})
	// Strassen ∘ classical ⟨1,1,2⟩; paper rank 14, repo 14.
	register("fast224", 14, func() *algo.Algorithm {
		return algo.Compose(MustGet("strassen"), algo.Classical(1, 1, 2), "")
	})
	// fast224 split with a classical ⟨2,2,1⟩; paper rank 18, repo 18.
	register("fast225", 18, func() *algo.Algorithm {
		return mustSplitN(MustGet("fast224"), algo.Classical(2, 2, 1))
	})

	// Permutations of the ⟨2,2,N⟩ family (Props 2.1/2.2); paper rank = repo
	// rank = the source's.
	register("fast232", 11, func() *algo.Algorithm {
		return mustPermute(MustGet("fast223"), algo.BaseCase{M: 2, K: 3, N: 2})
	})
	register("fast322", 11, func() *algo.Algorithm {
		return mustPermute(MustGet("fast223"), algo.BaseCase{M: 3, K: 2, N: 2})
	})
	register("fast422", 14, func() *algo.Algorithm {
		return mustPermute(MustGet("fast224"), algo.BaseCase{M: 4, K: 2, N: 2})
	})
	register("fast242", 14, func() *algo.Algorithm {
		return mustPermute(MustGet("fast224"), algo.BaseCase{M: 2, K: 4, N: 2})
	})
	register("fast522", 18, func() *algo.Algorithm {
		return mustPermute(MustGet("fast225"), algo.BaseCase{M: 5, K: 2, N: 2})
	})
	register("fast252", 18, func() *algo.Algorithm {
		return mustPermute(MustGet("fast225"), algo.BaseCase{M: 2, K: 5, N: 2})
	})

	// ⟨2,3,3⟩ family: fast223 split with a classical ⟨2,1,3⟩; paper rank 15,
	// split gives 17.
	register("fast233", 15, func() *algo.Algorithm {
		return mustSplitK(MustGet("fast223"), algo.Classical(2, 1, 3))
	})
	// Permutation of fast233; paper rank 15, repo 17.
	register("fast323", 15, func() *algo.Algorithm {
		return mustPermute(MustGet("fast233"), algo.BaseCase{M: 3, K: 2, N: 3})
	})
	// Permutation of fast233; paper rank 15, repo 17.
	register("fast332", 15, func() *algo.Algorithm {
		return mustPermute(MustGet("fast233"), algo.BaseCase{M: 3, K: 3, N: 2})
	})

	// ⟨2,3,4⟩ family: fast232 split with itself; paper rank 20, split gives 22.
	register("fast234", 20, func() *algo.Algorithm {
		return mustSplitN(MustGet("fast232"), MustGet("fast232"))
	})
	// Permutations of fast234; paper rank 20, repo 22.
	register("fast243", 20, func() *algo.Algorithm {
		return mustPermute(MustGet("fast234"), algo.BaseCase{M: 2, K: 4, N: 3})
	})
	register("fast324", 20, func() *algo.Algorithm {
		return mustPermute(MustGet("fast234"), algo.BaseCase{M: 3, K: 2, N: 4})
	})
	register("fast342", 20, func() *algo.Algorithm {
		return mustPermute(MustGet("fast234"), algo.BaseCase{M: 3, K: 4, N: 2})
	})
	register("fast423", 20, func() *algo.Algorithm {
		return mustPermute(MustGet("fast234"), algo.BaseCase{M: 4, K: 2, N: 3})
	})
	register("fast432", 20, func() *algo.Algorithm {
		return mustPermute(MustGet("fast234"), algo.BaseCase{M: 4, K: 3, N: 2})
	})

	// ⟨2,4,4⟩ family: fast224 split with itself; paper rank 26, split gives 28.
	register("fast244", 26, func() *algo.Algorithm {
		return mustSplitK(MustGet("fast224"), MustGet("fast224"))
	})
	// Strassen ∘ classical ⟨2,1,2⟩; paper rank 26, composition gives 28.
	register("fast424", 26, func() *algo.Algorithm {
		return algo.Compose(MustGet("strassen"), algo.Classical(2, 1, 2), "")
	})
	// Permutation of fast244; paper rank 26, repo 28.
	register("fast442", 26, func() *algo.Algorithm {
		return mustPermute(MustGet("fast244"), algo.BaseCase{M: 4, K: 4, N: 2})
	})

	// ⟨4,4,4⟩ = Strassen ∘ Strassen, rank 49, not in Table 2: one composed
	// step is algebraically the same computation as two Strassen steps
	// (tested in core), making it a clean ablation of interpreter overhead
	// per recursion level.
	register("fast444", 0, func() *algo.Algorithm {
		return algo.Compose(MustGet("strassen"), MustGet("strassen"), "")
	})

	// ⟨3,3,3⟩: fast233 split with a classical ⟨1,3,3⟩; paper rank 23
	// (Laderman/Smirnov), split gives 26.
	register("fast333", 23, func() *algo.Algorithm {
		return mustSplitM(MustGet("fast233"), algo.Classical(1, 3, 3))
	})

	// ⟨3,3,4⟩ family: fast333 split with a classical ⟨3,3,1⟩; paper rank 29,
	// split gives 35.
	register("fast334", 29, func() *algo.Algorithm {
		return mustSplitN(MustGet("fast333"), algo.Classical(3, 3, 1))
	})
	// Permutations of fast334; paper rank 29, repo 35.
	register("fast343", 29, func() *algo.Algorithm {
		return mustPermute(MustGet("fast334"), algo.BaseCase{M: 3, K: 4, N: 3})
	})
	register("fast433", 29, func() *algo.Algorithm {
		return mustPermute(MustGet("fast334"), algo.BaseCase{M: 4, K: 3, N: 3})
	})

	// ⟨3,4,4⟩: fast324 split with itself; paper rank 38, split gives 44.
	register("fast344", 38, func() *algo.Algorithm {
		return mustSplitK(MustGet("fast324"), MustGet("fast324"))
	})

	// ⟨3,3,6⟩ family: fast333 ∘ classical ⟨1,1,2⟩; paper rank 40 (Smirnov),
	// composition gives 52.
	register("fast336", 40, func() *algo.Algorithm {
		return algo.Compose(MustGet("fast333"), algo.Classical(1, 1, 2), "")
	})
	// Permutations of fast336; paper rank 40, repo 52.
	register("fast363", 40, func() *algo.Algorithm {
		return mustPermute(MustGet("fast336"), algo.BaseCase{M: 3, K: 6, N: 3})
	})
	register("fast633", 40, func() *algo.Algorithm {
		return mustPermute(MustGet("fast336"), algo.BaseCase{M: 6, K: 3, N: 3})
	})
}
