package tuner

import (
	"container/list"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
)

// EnvCacheDir overrides where the tuning cache and calibration profile live.
// Set it to a directory, or to "off" (also "0", "none") to disable the disk
// layer entirely — the in-memory LRU still works. An empty value counts as
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

// lru is a small shape→decision cache so repeated shapes dispatch in O(1)
// without touching the disk layer or the model.
type lru struct {
	max   int
	ll    *list.List
	items map[string]*list.Element
}

type lruEntry struct {
	key string
	d   *decision
}

func newLRU(max int) *lru {
	return &lru{max: max, ll: list.New(), items: map[string]*list.Element{}}
}

func (l *lru) get(key string) (*decision, bool) {
	el, ok := l.items[key]
	if !ok {
		return nil, false
	}
	l.ll.MoveToFront(el)
	return el.Value.(*lruEntry).d, true
}

func (l *lru) remove(key string) {
	if el, ok := l.items[key]; ok {
		l.ll.Remove(el)
		delete(l.items, key)
	}
}

func (l *lru) add(key string, d *decision) {
	if el, ok := l.items[key]; ok {
		l.ll.MoveToFront(el)
		el.Value.(*lruEntry).d = d
		return
	}
	l.items[key] = l.ll.PushFront(&lruEntry{key: key, d: d})
	for l.ll.Len() > l.max {
		back := l.ll.Back()
		l.ll.Remove(back)
		delete(l.items, back.Value.(*lruEntry).key)
	}
}
