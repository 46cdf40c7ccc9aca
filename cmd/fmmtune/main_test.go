package main

import (
	"strings"
	"testing"

	"fastmm/internal/tuner"
)

// Every subcommand that takes -workers refuses a negative count before it
// does any work, the way fmmbench does; zero means GOMAXPROCS.
func TestNegativeWorkersRefused(t *testing.T) {
	t.Setenv(tuner.EnvCacheDir, t.TempDir())
	for _, tc := range []struct {
		name string
		run  func([]string) error
		args []string
	}{
		{"calibrate", cmdCalibrate, []string{"-quick", "-workers", "-3"}},
		{"warm", cmdWarm, []string{"-workers", "-3", "-shape", "256x256x256"}},
		{"show", cmdShow, []string{"-workers", "-3", "-shape", "256x256x256"}},
	} {
		err := tc.run(tc.args)
		if err == nil || !strings.Contains(err.Error(), "-workers -3") {
			t.Errorf("%s %v: error %v, want a refusal", tc.name, tc.args, err)
		}
	}
	if _, found := tuner.LoadProfile(); found {
		t.Error("a refused calibrate persisted a profile")
	}
	if entries := tuner.Entries(); len(entries) != 0 {
		t.Errorf("a refused command wrote %d cache entries", len(entries))
	}
}
