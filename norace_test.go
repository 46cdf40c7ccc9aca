//go:build !race

package fastmm_test

const raceEnabled = false
