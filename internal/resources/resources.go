// Package resources holds the one resource-budget struct shared by every
// options type in the stack. core.Options, tuner.Options, and batch.Options
// all used to carry their own Workers/Workspace fields, each with its own
// defaulting and its own rendering into cache keys; embedding one Resources
// struct deduplicates the fields, and Normalized/Key make the defaulting and
// the hashing happen in exactly one place — so the tuner's persistent cache
// key, fastmm's shared-dispatcher map key, and the shared-batcher map key
// can never drift apart on how they spell a budget.
package resources

import (
	"fmt"
	"runtime"
)

// Resources is the execution budget every layer shares: goroutine width and
// retained-workspace bytes.
type Resources struct {
	// Workers bounds the goroutines used (default GOMAXPROCS).
	Workers int
	// Workspace, when positive, caps workspace bytes, always as one model
	// counts them: the executor's WorkspaceBytes, its walk of the call's
	// recursion. The executor treats it as a per-call footprint cap
	// (BFS/HYBRID degrade to DFS above it), the tuner as a filter on that
	// same figure for each candidate's executor, and the batcher as the warm
	// pool's retained byte budget.
	Workspace int64
}

// Normalized resolves the defaults: Workers ≤ 0 becomes GOMAXPROCS.
func (r Resources) Normalized() Resources {
	if r.Workers <= 0 {
		r.Workers = runtime.GOMAXPROCS(0)
	}
	return r
}

// Key renders the normalized budget as the canonical cache-key fragment.
// Every map or disk key that depends on a resource budget embeds this one
// rendering (tuner cache keys, fastmm's shared-dispatcher and shared-batcher
// maps), so two equal budgets can never hash apart.
func (r Resources) Key() string {
	return fmt.Sprintf("w%d/cap%d", r.Workers, r.Workspace)
}
