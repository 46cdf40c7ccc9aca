// Package resources holds the one resource-budget struct shared by every
// options type in the stack. core.Options, tuner.Options, and batch.Options
// all used to carry their own Workers/Workspace/Backends fields, each with
// its own defaulting and its own rendering into cache keys; embedding one
// Resources struct deduplicates the fields, and Normalized/Key make the
// defaulting and the hashing happen in exactly one place — so the tuner's
// persistent cache key, fastmm's shared-dispatcher map key, and the
// shared-batcher map key can never drift apart on how they spell a budget.
package resources

import (
	"fmt"
	"runtime"
	"strings"

	"fastmm/internal/gemm"
)

// Resources is the execution budget every layer shares: goroutine width,
// retained-workspace bytes, and the leaf-kernel backends in play.
type Resources struct {
	// Workers bounds the goroutines used (default GOMAXPROCS).
	Workers int
	// Workspace, when positive, caps workspace bytes. The executor treats it
	// as a per-call footprint cap (BFS/HYBRID degrade to DFS above it), the
	// tuner as a plan filter, and the batcher as the warm pool's retained
	// byte budget.
	Workspace int64
	// Backends restricts the leaf-kernel backends considered (default, for
	// the layers that enumerate backends: see NormalizedBackends). Unknown
	// names fail Validate.
	Backends []string
}

// Normalized resolves the defaults: Workers ≤ 0 becomes GOMAXPROCS. Backends
// stays as given — layers that enumerate backends call NormalizedBackends
// for the filled form, while layers that don't (core) keep the nil.
func (r Resources) Normalized() Resources {
	if r.Workers <= 0 {
		r.Workers = runtime.GOMAXPROCS(0)
	}
	return r
}

// NormalizedBackends is Normalized plus the backend default: an empty
// Backends list becomes the default gemm backend alone when it is
// accelerated — a pure-Go leaf beside it is several times slower and could
// only win a tuning race by mistake — and otherwise every registered gemm
// backend (sorted, the registry order). A caller still enrols any backend by
// naming it.
func (r Resources) NormalizedBackends() Resources {
	r = r.Normalized()
	if len(r.Backends) == 0 {
		if be := gemm.Default(); be.Accelerated() {
			r.Backends = []string{be.Name()}
		} else {
			r.Backends = gemm.Names()
		}
	}
	return r
}

// Validate checks that every named backend is registered.
func (r Resources) Validate() error {
	for _, name := range r.Backends {
		if _, err := gemm.Get(name); err != nil {
			return err
		}
	}
	return nil
}

// Key renders the normalized budget as the canonical cache-key fragment.
// Every map or disk key that depends on a resource budget embeds this one
// rendering (tuner cache keys, fastmm's shared-dispatcher and shared-batcher
// maps), so two equal budgets can never hash apart.
func (r Resources) Key() string {
	return fmt.Sprintf("w%d/cap%d/be:%s", r.Workers, r.Workspace, strings.Join(r.Backends, ","))
}
