//go:build race

package bench

// raceEnabled skips the one experiment too large for the race detector's
// shadow memory: composed ⟨54,54,54⟩ at three BFS steps grows past 2.5 GB
// under -race, enough to get the package killed on an 8 GB machine.
const raceEnabled = true
