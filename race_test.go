//go:build race

package fastmm_test

// raceEnabled relaxes allocation expectations: under the race detector
// sync.Pool drops a share of Puts, so pooled scratch is re-allocated at
// random and alloc counts stop repeating through no fault of the library.
const raceEnabled = true
