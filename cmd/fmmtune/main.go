// Command fmmtune manages the autotuner's persistent state: the machine
// calibration profile and the shape→plan tuning cache that fastmm.Auto
// dispatches from (JSON under os.UserCacheDir()/fastmm, overridable with
// FASTMM_TUNE_CACHE; "off" disables the disk layer).
//
// Usage:
//
//	fmmtune calibrate [-quick] [-workers N]      measure and persist the machine profile
//	fmmtune warm -shape MxKxN [-shape ...]       pre-tune shapes into the cache, printing each decision's wall time
//	fmmtune show [-shape MxKxN]                  print profile, cache, calibration health, and optionally a ranking
//	fmmtune clear [-profile]                     drop the tuning cache (and the profile)
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"fastmm/internal/gemm"
	"fastmm/internal/op"
	"fastmm/internal/tuner"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "calibrate":
		err = cmdCalibrate(os.Args[2:])
	case "warm":
		err = cmdWarm(os.Args[2:])
	case "show":
		err = cmdShow(os.Args[2:])
	case "clear":
		err = cmdClear(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "fmmtune: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "fmmtune: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `fmmtune manages fastmm's autotuner state.

commands:
  calibrate [-quick] [-workers N]   measure gemm GFLOPS + add bandwidth, persist the profile
  warm -shape MxKxN [-shape ...]    pre-tune shapes (model ranking + probes) into the cache
  show [-shape MxKxN]               print the profile, cached plans, and calibration health (live
                                    ewma vs predicted service time per class); with -shape, the ranking
  clear [-profile]                  remove the tuning cache; -profile also drops the calibration

environment:
  FASTMM_TUNE_CACHE   cache directory override; "off" disables the disk layer
`)
}

// shapeList collects repeated -shape MxKxN flags.
type shapeList [][3]int

func (s *shapeList) String() string { return fmt.Sprint([][3]int(*s)) }

func (s *shapeList) Set(v string) error {
	parts := strings.Split(strings.ToLower(v), "x")
	if len(parts) != 3 {
		return fmt.Errorf("shape %q: want MxKxN", v)
	}
	var dims [3]int
	for i, p := range parts {
		d, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || d <= 0 {
			return fmt.Errorf("shape %q: bad dimension %q", v, p)
		}
		dims[i] = d
	}
	*s = append(*s, dims)
	return nil
}

func cmdCalibrate(args []string) error {
	fs := flag.NewFlagSet("calibrate", flag.ExitOnError)
	quick := fs.Bool("quick", false, "abbreviated protocol (~100ms instead of seconds)")
	workers := fs.Int("workers", 0, "worker count to calibrate for (default GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w := *workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	fmt.Printf("calibrating (%d workers, quick=%v)...\n", w, *quick)
	p := tuner.Calibrate(w, *quick)
	printProfile(p)
	if err := tuner.SaveProfile(p); err != nil {
		return err
	}
	path, _, _ := tuner.Paths()
	fmt.Printf("saved %s\n", path)
	return nil
}

func cmdWarm(args []string) error {
	fs := flag.NewFlagSet("warm", flag.ExitOnError)
	var shapes shapeList
	fs.Var(&shapes, "shape", "problem shape MxKxN (repeatable)")
	workers := fs.Int("workers", 0, "worker count to tune for (default GOMAXPROCS)")
	probes := fs.Int("probes", 0, "top-K candidates to probe empirically (default 4; -1 = model only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(shapes) == 0 {
		return fmt.Errorf("warm: at least one -shape MxKxN required")
	}
	t, err := tuner.New(tuner.Options{Resources: tuner.Resources{Workers: *workers}, ProbeTopK: *probes})
	if err != nil {
		return err
	}
	for _, s := range shapes {
		// The wall time of the decision: ranking and probes for a cold
		// shape, a disk-cache lookup for a cached one.
		start := time.Now()
		plan, err := t.PlanForOp(op.Multiply, s[0], s[1], s[2])
		if err != nil {
			return err
		}
		fmt.Printf("  %dx%dx%d → %v in %.3gs (predicted %.3gs", s[0], s[1], s[2], plan, time.Since(start).Seconds(), plan.PredictedSeconds)
		if plan.MeasuredSeconds > 0 {
			fmt.Printf(", measured %.3gs", plan.MeasuredSeconds)
		}
		fmt.Println(")")
	}
	return nil
}

func cmdShow(args []string) error {
	fs := flag.NewFlagSet("show", flag.ExitOnError)
	var shapes shapeList
	fs.Var(&shapes, "shape", "also print the model ranking for this shape (repeatable)")
	workers := fs.Int("workers", 0, "worker count for -shape rankings (default GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	profilePath, cachePath, ok := tuner.Paths()
	if !ok {
		fmt.Println("disk cache: disabled (FASTMM_TUNE_CACHE)")
	} else {
		fmt.Printf("profile: %s\ncache:   %s\n", profilePath, cachePath)
	}
	printBackends()

	if p, found := tuner.LoadProfile(); found {
		printProfile(p)
	} else {
		fmt.Println("no persisted calibration (run `fmmtune calibrate`)")
	}

	entries := tuner.Entries()
	if len(entries) == 0 {
		fmt.Println("tuning cache: empty")
	} else {
		fmt.Printf("tuning cache: %d entries\n", len(entries))
		keys := make([]string, 0, len(entries))
		for k := range entries {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			p := entries[k]
			fmt.Printf("  %-40s %v\n", k, p)
		}
	}
	printHealth()

	if len(shapes) == 0 {
		return nil
	}
	// Rank with the persisted profile when there is one — the ranking shown
	// must be the one fastmm.Auto would actually use — and never write back
	// (show is read-only). Mirror tuner.New's staleness rule: a profile
	// calibrated at fewer workers than requested can't predict the parallel
	// candidates, so Auto would recalibrate rather than use it.
	w := *workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	prof, _ := tuner.LoadProfile()
	if prof != nil && prof.Machine.Workers < w {
		prof = nil
	}
	t, err := tuner.New(tuner.Options{Resources: tuner.Resources{Workers: *workers}, Profile: prof, NoDiskCache: true})
	if err != nil {
		return err
	}
	for _, s := range shapes {
		ranked, err := t.RankOp(op.Multiply, s[0], s[1], s[2])
		if err != nil {
			return err
		}
		if len(ranked) > 10 {
			ranked = ranked[:10]
		}
		fmt.Printf("model ranking for %dx%dx%d:\n", s[0], s[1], s[2])
		for i, p := range ranked {
			fmt.Printf("  %2d. %-40v predicted %.4gs, workspace %.1f MiB\n",
				i+1, p, p.PredictedSeconds, float64(p.WorkspaceBytes)/(1<<20))
		}
	}
	return nil
}

// printHealth reports the calibration-health snapshot a serving Batcher's
// drift loop persists beside the tuning cache: per-(op, shape class) what the
// calibrated baseline predicted the service time to be, what the live EWMA of
// completed requests observed, and the class's drift history. It is how an
// operator answers "is the persisted calibration still telling the truth on
// this machine" without attaching to a running process.
func printHealth() {
	h, ok := tuner.LoadHealth()
	if !ok || len(h.Entries) == 0 {
		fmt.Println("calibration health: no snapshot (a serving Batcher writes one as its drift loop observes requests)")
		return
	}
	fmt.Printf("calibration health (%d classes, updated %s):\n",
		len(h.Entries), h.Updated.Format("2006-01-02 15:04:05 MST"))
	for _, e := range h.Entries {
		cm, ck, cn := e.Class.Dims()
		ratio := ""
		if e.PredictedSeconds > 0 && e.EWMASeconds > 0 {
			ratio = fmt.Sprintf(" (×%.2f)", e.EWMASeconds/e.PredictedSeconds)
		}
		drift := "never drifted"
		if e.Drifts > 0 {
			drift = fmt.Sprintf("%d drift event(s), last %s",
				e.Drifts, e.LastDrift.Format("2006-01-02 15:04:05 MST"))
		}
		fmt.Printf("  %-9s %4dx%4dx%4d  predicted %.4gs, observed ewma %.4gs%s — %s\n",
			e.Op, cm, ck, cn, e.PredictedSeconds, e.EWMASeconds, ratio, drift)
	}
}

func cmdClear(args []string) error {
	fs := flag.NewFlagSet("clear", flag.ExitOnError)
	withProfile := fs.Bool("profile", false, "also remove the calibration profile")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := tuner.ClearCache(*withProfile); err != nil {
		return err
	}
	fmt.Println("cleared")
	return nil
}

func printProfile(p *tuner.Profile) {
	fmt.Printf("calibration (v%d, %s, GOMAXPROCS %d, quick=%v):\n",
		p.Version, p.CreatedAt.Format("2006-01-02 15:04:05 MST"), p.GOMAXPROCS, p.Quick)
	fmt.Printf("  gemm on backend %s:\n", p.Machine.Backend)
	fmt.Printf("    %-8s %12s %12s\n", "N", "seq GFLOPS", fmt.Sprintf("%dw GFLOPS", p.Machine.Workers))
	for _, s := range p.Machine.Gemm {
		fmt.Printf("    %-8d %12.3f %12.3f\n", s.N, s.SeqGFLOPS, s.ParGFLOPS)
	}
	fmt.Printf("  add bandwidth: %.2f GB/s seq, %.2f GB/s at %d workers\n",
		p.Machine.AddSeqGBps, p.Machine.AddParGBps, p.Machine.Workers)
}

// printBackends lists the registered leaf backends with their acceleration
// state and, for the blocked one, the micro-kernel tile that was selected on
// this machine ("simd* 8x24" is the AVX-512 kernel, "simd* 6x8" the AVX2
// one, "simd 8x4" the Go fallback).
func printBackends() {
	fmt.Print("leaf backends:")
	for _, name := range gemm.Names() {
		be, err := gemm.Get(name)
		if err != nil {
			continue
		}
		tag := ""
		if be.Accelerated() {
			tag = "*"
		}
		if t, ok := be.(interface{ Tile() (mr, nr int) }); ok {
			mr, nr := t.Tile()
			tag += fmt.Sprintf(" %dx%d", mr, nr)
		}
		if name == gemm.Default().Name() {
			tag += " (default)"
		}
		fmt.Printf(" %s%s", name, tag)
	}
	fmt.Println("   [* = architecture-accelerated]")
}
