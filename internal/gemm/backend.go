package gemm

import (
	"fmt"
	"os"
	"sort"
	"sync"

	"fastmm/internal/mat"
)

// EnvBackend overrides the default backend by name ("simd", or "blas" in a
// build with the blas tag). Unknown or unavailable names are ignored.
const EnvBackend = "FASTMM_BACKEND"

// Backend is one leaf-kernel implementation. Implementations are registered
// at init time and identified by a stable Name that appears in tuning plans,
// calibration profiles, and cache keys — renaming a backend retires every
// cached decision that mentions it.
type Backend interface {
	// Name is the stable identifier ("simd", "blas").
	Name() string
	// Accelerated reports whether the backend runs an architecture-specific
	// fast path on this machine (false for a pure-Go fallback kernel). It is
	// reported, never used to choose: the results are the same either way.
	Accelerated() bool
	// Gemm computes C = alpha·A·B (accumulate=false) or C += alpha·A·B
	// (accumulate=true) using up to workers goroutines. Callers go through
	// Dispatch, which validates dimensions and strips empty/zero-alpha
	// problems, so implementations see m,n,k ≥ 1, alpha ≠ 0, workers ≥ 1.
	// The worker count is a request the backend honors as-is where it can
	// (see the package comment's worker contract); backends that manage
	// their own threading (blas) document that they ignore it.
	Gemm(C *mat.Dense, alpha float64, A, B *mat.Dense, accumulate bool, workers int)
	// PackFloatsPerWorker reports the float64 count of one worker's packing
	// workspace — the backend's contribution to a scheduler's workspace
	// footprint (consumed by the executor's WorkspaceBytes accounting and
	// the tuner's workspace-capped ranking). Zero for backends that manage
	// workspace internally.
	PackFloatsPerWorker() int64
}

// WorkerAgnostic reports whether a backend manages its own threading and
// ignores the Gemm worker request (the blas bridge). Calibration uses it to
// skip the separate parallel measurement — the parallel curve would just
// re-time the sequential call.
func WorkerAgnostic(be Backend) bool {
	wa, ok := be.(interface{ WorkerAgnostic() bool })
	return ok && wa.WorkerAgnostic()
}

var (
	regMu     sync.Mutex
	registry  = map[string]Backend{}
	defaultBe Backend // lazily chosen; reset on Register/SetDefault
)

// Register installs a backend under its Name, replacing any previous backend
// of that name, and resets the lazily chosen default.
func Register(b Backend) {
	regMu.Lock()
	defer regMu.Unlock()
	registry[b.Name()] = b
	defaultBe = nil
}

// Get returns the backend registered under name.
func Get(name string) (Backend, error) {
	regMu.Lock()
	defer regMu.Unlock()
	b, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("gemm: unknown backend %q (registered: %v)", name, namesLocked())
	}
	return b, nil
}

// Resolve is Get with the empty name meaning the default backend — the form
// execution layers use to turn a plan's (possibly empty) backend name into a
// runnable kernel.
func Resolve(name string) (Backend, error) {
	if name == "" {
		return Default(), nil
	}
	return Get(name)
}

// Names lists the registered backend names in sorted order.
func Names() []string {
	regMu.Lock()
	defer regMu.Unlock()
	return namesLocked()
}

func namesLocked() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Default returns the backend the package-level Mul/MulAdd/... entry points
// dispatch to. Resolution order: the FASTMM_BACKEND environment variable
// (when it names a registered backend), a compiled-in "blas" backend, then
// "simd".
func Default() Backend {
	regMu.Lock()
	defer regMu.Unlock()
	if defaultBe == nil {
		defaultBe = pickDefaultLocked()
	}
	return defaultBe
}

// SetDefault makes the named backend the package-level default.
func SetDefault(name string) error {
	regMu.Lock()
	defer regMu.Unlock()
	b, ok := registry[name]
	if !ok {
		return fmt.Errorf("gemm: unknown backend %q (registered: %v)", name, namesLocked())
	}
	defaultBe = b
	return nil
}

func pickDefaultLocked() Backend {
	if name := os.Getenv(EnvBackend); name != "" {
		if b, ok := registry[name]; ok {
			return b
		}
	}
	if b, ok := registry["blas"]; ok {
		return b
	}
	if b, ok := registry["simd"]; ok {
		return b
	}
	panic("gemm: simd backend not registered") // simd.go registers it at init
}
