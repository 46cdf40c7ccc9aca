package tuner

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"

	"fastmm/internal/op"
)

// EnvCacheDir overrides where the tuning cache and calibration profile live.
// Set it to a directory, or to "off" (also "0", "none") to disable the disk
// layer entirely — the in-memory cache still works. An empty value counts as
// unset: the default os.UserCacheDir()/fastmm location applies.
const EnvCacheDir = "FASTMM_TUNE_CACHE"

const (
	profileFile = "calibration.json"
	cacheDir    = "tune"
)

// Paths reports the calibration-profile file and the tuning-cache directory,
// which holds one small JSON file per decision. ok is false when the disk
// layer is disabled (by EnvCacheDir or because no user cache directory is
// resolvable).
func Paths() (profile, cache string, ok bool) {
	dir, ok := cacheDirLocation()
	if !ok {
		return "", "", false
	}
	return filepath.Join(dir, profileFile), filepath.Join(dir, cacheDir), true
}

func cacheDirLocation() (string, bool) {
	// An empty value is treated as unset (the conventional shell meaning),
	// not as a disable — only the explicit disable words turn the layer off.
	if v := os.Getenv(EnvCacheDir); v != "" {
		switch v {
		case "off", "0", "none":
			return "", false
		default:
			return v, true
		}
	}
	base, err := os.UserCacheDir()
	if err != nil {
		return "", false
	}
	return filepath.Join(base, "fastmm"), true
}

// LoadProfile reads the persisted calibration, reporting ok=false for any
// missing, unreadable, corrupt, or version-mismatched file, or one measured
// on another backend — callers fall back to recalibrating, never to an
// error.
func LoadProfile() (*Profile, bool) {
	path, _, ok := Paths()
	if !ok {
		return nil, false
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	var p Profile
	if err := json.Unmarshal(data, &p); err != nil || !p.Valid() {
		return nil, false
	}
	return &p, true
}

// SaveProfile persists the calibration (atomic write; creates the cache
// directory on first use).
func SaveProfile(p *Profile) error {
	path, _, ok := Paths()
	if !ok {
		return fmt.Errorf("tuner: disk cache disabled")
	}
	return writeJSON(path, p)
}

// entryFile is one decision's file in the tuning-cache directory. It
// records its key: the file name is only the key's hash.
type entryFile struct {
	Key  string `json:"key"`
	Plan Plan   `json:"plan"`
}

// entryPath is the file that holds key's decision in the cache directory.
func entryPath(dir, key string) string {
	h := fnv.New64a()
	h.Write([]byte(key))
	return filepath.Join(dir, fmt.Sprintf("%016x.json", h.Sum64()))
}

// loadPlan reads key's persisted plan. A missing, unreadable or corrupt
// file, or one recording another key, reads as absent (pure model ranking),
// never as an error.
func loadPlan(key string) (Plan, bool) {
	_, dir, ok := Paths()
	if !ok {
		return Plan{}, false
	}
	e, ok := readEntry(entryPath(dir, key))
	return e.Plan, ok && e.Key == key
}

// storePlan persists key's plan as its own file (atomic write, last writer
// wins per key — racing writers of one key each rename a whole file).
func storePlan(key string, p Plan) error {
	_, dir, ok := Paths()
	if !ok {
		return fmt.Errorf("tuner: disk cache disabled")
	}
	return writeJSON(entryPath(dir, key), entryFile{Key: key, Plan: p})
}

func readEntry(path string) (entryFile, bool) {
	var e entryFile
	data, err := os.ReadFile(path)
	if err != nil || json.Unmarshal(data, &e) != nil {
		return entryFile{}, false
	}
	return e, true
}

// Entries returns the persisted decisions of this ProfileVersion, keyed by
// the tuner's decision key (empty when the disk layer is disabled or the
// directory is missing; corrupt files are skipped). cmd/fmmtune uses it to
// inspect the cache.
func Entries() map[string]Plan {
	out := map[string]Plan{}
	_, dir, ok := Paths()
	if !ok {
		return out
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	version := fmt.Sprintf("v%d/", ProfileVersion)
	for _, f := range files {
		if e, ok := readEntry(f); ok && strings.HasPrefix(e.Key, version) {
			out[e.Key] = e.Plan
		}
	}
	return out
}

// ClearCache removes the tuning-cache directory; withProfile also drops the
// calibration. Missing files are not an error. A running tuner keeps its
// in-memory decisions but writes back only the ones it makes afterwards.
func ClearCache(withProfile bool) error {
	profile, cache, ok := Paths()
	if !ok {
		return nil
	}
	if err := os.RemoveAll(cache); err != nil || !withProfile {
		return err
	}
	return os.RemoveAll(profile)
}

func writeJSON(path string, v interface{}) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	// A unique temp file per writer: racing writers must each rename a fully
	// written file, so the loser's write is overwritten, never torn.
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// MaxEntries bounds how many decisions the in-memory cache keeps warm. A
// warm entry holds a built executor and the arenas it retains; without a
// Workspace budget nothing else bounds what the cache holds, so the count
// does. 128 keeps a serving mix of a few dozen (op, shape class, width) keys
// warm with room to spare (the repository benchmark's serve-mixed workload
// touches about 22), and an entry evicted and touched again is rebuilt from
// its file in the disk cache without probing.
const MaxEntries = 128

// cacheKey is a decision's in-memory identity: its plan-space op, its
// gemm-equivalent shape and its width. The options part of the decision key
// is the tuner's own, so a struct of the varying parts suffices, and a warm
// lookup renders no string (key renders one only for the disk file).
type cacheKey struct {
	op      op.Op
	m, k, n int
	w       int
}

// lookup returns key's warm entry, marking it the most recently used.
// Callers hold t.mu.
//
//fastmm:zeroalloc
func (t *Tuner) lookup(key cacheKey) (*Entry, bool) {
	e, ok := t.warm[key]
	if ok {
		t.use(e)
	}
	return e, ok
}

// use marks e the most recently used entry. Callers hold t.mu.
func (t *Tuner) use(e *Entry) {
	t.uses++
	e.used = t.uses
}

// retain records the workspace bytes e's executor retained after a run and
// marks it used, evicting what the cache's bounds no longer admit. An entry
// the cache has evicted is no longer accounted: its holders keep running it,
// and its arenas go with the last of them.
//
//fastmm:zeroalloc
func (t *Tuner) retain(e *Entry) {
	bytes := e.WorkspaceRetained()
	t.mu.Lock()
	if t.warm[e.key] == e {
		t.retained += bytes - e.bytes
		e.bytes = bytes
		t.use(e)
		t.evict()
	}
	t.mu.Unlock()
}

// evict drops the least recently used entries while the cache holds more
// than MaxEntries, or while a positive Workspace is below the bytes its
// entries retain. The most recently used entry always stays, so a budget
// below one entry's footprint rebuilds on each class switch and never fails
// a call. Callers hold t.mu.
func (t *Tuner) evict() {
	for len(t.warm) > 1 && (len(t.warm) > MaxEntries || (t.opts.Workspace > 0 && t.retained > t.opts.Workspace)) {
		var lru *Entry
		for _, e := range t.warm {
			if lru == nil || e.used < lru.used {
				lru = e
			}
		}
		delete(t.warm, lru.key)
		t.retained -= lru.bytes
	}
}

// Warm reports how many decisions the in-memory cache holds and the
// workspace bytes their executors retained after their last runs.
func (t *Tuner) Warm() (entries int, retained int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.warm), t.retained
}
