//go:build race

package batch

// raceEnabled relaxes allocation comparisons: under the race detector
// sync.Pool drops a share of Puts, so pooled scratch is re-allocated at
// random and alloc counts stop repeating through no fault of the batcher.
const raceEnabled = true
