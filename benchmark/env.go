package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"fastmm/internal/gemm"
	"fastmm/internal/tuner"
)

// maxWorkers caps W so a many-core box measures the same contention regime
// as the paper-scaled shapes assume.
const maxWorkers = 4

// environment is the hygiene record written with every result: what the run
// pinned, and the machine fingerprint a baseline is compared like-for-like on.
type environment struct {
	CPUModel       string  `json:"cpu_model"`
	NumCPU         int     `json:"nproc"`
	W              int     `json:"w"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	GoVersion      string  `json:"go_version"`
	DefaultBackend string  `json:"default_backend"`
	BackendEnv     string  `json:"fastmm_backend_env"`
	TuneCache      string  `json:"fastmm_tune_cache"`
	LLCBytes       int64   `json:"llc_bytes"`
	StreamBytes    int64   `json:"stream_array_bytes"`
	MemTotalBytes  int64   `json:"mem_total_bytes"`
	Seed           int64   `json:"seed"`
	Seconds        float64 `json:"seconds"`
	Scale          string  `json:"scale"`
	Repetitions    int     `json:"repetitions"`
	SetupReps      int     `json:"setup_repetitions"`
	WallSeconds    float64 `json:"wall_s"`
}

// pinEnvironment applies the hygiene rules — FASTMM_BACKEND unset, W workers,
// GOMAXPROCS = W — before the program under test resolves anything from them.
func pinEnvironment() environment {
	os.Unsetenv(gemm.EnvBackend)
	w := min(runtime.NumCPU(), maxWorkers)
	runtime.GOMAXPROCS(w)
	return environment{
		CPUModel:       cpuModel(),
		NumCPU:         runtime.NumCPU(),
		W:              w,
		GOMAXPROCS:     w,
		GoVersion:      runtime.Version(),
		DefaultBackend: gemm.Default().Name(),
		BackendEnv:     "unset",
		LLCBytes:       llcBytes(),
		MemTotalBytes:  procKB("/proc/meminfo", "MemTotal:") << 10,
	}
}

// fingerprint names the machine class a baseline belongs to.
func (e environment) fingerprint() string {
	clean := func(s string) string {
		var b strings.Builder
		for _, r := range strings.ToLower(s) {
			switch {
			case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '.':
				b.WriteRune(r)
			case b.Len() > 0 && !strings.HasSuffix(b.String(), "-"):
				b.WriteByte('-')
			}
		}
		return strings.Trim(b.String(), "-")
	}
	return fmt.Sprintf("%s_%dcpu_w%d_%s_%s", clean(e.CPUModel), e.NumCPU, e.W, clean(e.GoVersion), e.DefaultBackend)
}

// freshTuneCache points FASTMM_TUNE_CACHE at a new empty directory under dir,
// so the next tuner or batcher built starts cold and ~/.cache is never read
// or written.
func freshTuneCache(dir string) (string, error) {
	path, err := os.MkdirTemp(dir, "tunecache-")
	if err != nil {
		return "", err
	}
	if err := os.Setenv(tuner.EnvCacheDir, path); err != nil {
		return "", err
	}
	return path, nil
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return runtime.GOARCH
}

// llcBytes is the largest cache sysfs reports for cpu0, or 0 when unknown.
func llcBytes() int64 {
	paths, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*/size")
	var llc int64
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(data))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			llc = max(llc, v*mult)
		}
	}
	return llc
}

// procKB reads one "Key:  value kB" line of a /proc file; 0 when absent.
func procKB(path, key string) int64 {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				v, _ := strconv.ParseInt(f[0], 10, 64)
				return v
			}
		}
	}
	return 0
}

// peakRSSMB is the process's resident-set high-water mark. Where /proc does
// not say, the Go runtime's total obtained from the OS stands in.
func peakRSSMB() float64 {
	if kb := procKB("/proc/self/status", "VmHWM:"); kb > 0 {
		return float64(kb) / 1024
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
