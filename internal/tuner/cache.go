package tuner

import (
	"container/list"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// EnvCacheDir overrides where the tuning cache and calibration profile live.
// Set it to a directory, or to "off" (also "0", "none") to disable the disk
// layer entirely — the in-memory LRU still works. An empty value counts as
// unset: the default os.UserCacheDir()/fastmm location applies.
const EnvCacheDir = "FASTMM_TUNE_CACHE"

const (
	profileFile = "calibration.json"
	cacheFile   = "tune.json"
)

// Paths reports the calibration-profile and tuning-cache file locations.
// ok is false when the disk layer is disabled (by EnvCacheDir or because no
// user cache directory is resolvable).
func Paths() (profile, cache string, ok bool) {
	dir, ok := cacheDirLocation()
	if !ok {
		return "", "", false
	}
	return filepath.Join(dir, profileFile), filepath.Join(dir, cacheFile), true
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

// cacheData is the on-disk tuning-cache schema.
type cacheData struct {
	Version int             `json:"version"`
	Entries map[string]Plan `json:"entries"`
}

// loadEntries reads the persisted shape→plan table. Corrupt or missing files
// degrade to an empty table (pure model ranking), never to an error.
func loadEntries() map[string]Plan {
	_, path, ok := Paths()
	if !ok {
		return map[string]Plan{}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return map[string]Plan{}
	}
	var c cacheData
	if err := json.Unmarshal(data, &c); err != nil || c.Version != ProfileVersion || c.Entries == nil {
		return map[string]Plan{}
	}
	return c.Entries
}

// saveEntries persists the table (atomic write, last writer wins — racing
// processes lose entries, not integrity).
func saveEntries(entries map[string]Plan) error {
	_, path, ok := Paths()
	if !ok {
		return fmt.Errorf("tuner: disk cache disabled")
	}
	return writeJSON(path, cacheData{Version: ProfileVersion, Entries: entries})
}

// Entries returns the persisted tuning-cache table, keyed by the tuner's
// decision key (empty when the disk layer is disabled or the file is
// missing or corrupt). cmd/fmmtune uses it to inspect the cache.
func Entries() map[string]Plan { return loadEntries() }

// ClearCache removes the persisted tuning cache; withProfile also drops the
// calibration. Missing files are not an error. It holds the process-wide
// persistence lock so a clear cannot interleave with remember's
// load-merge-save and be silently undone by the rewrite.
func ClearCache(withProfile bool) error {
	persistMu.Lock()
	defer persistMu.Unlock()
	profile, cache, ok := Paths()
	if !ok {
		return nil
	}
	if err := removeIfPresent(cache); err != nil {
		return err
	}
	if withProfile {
		return removeIfPresent(profile)
	}
	return nil
}

func removeIfPresent(path string) error {
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

func writeJSON(path string, v interface{}) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	// A unique temp file per writer: racing processes must each rename a
	// fully written file, so the loser overwrites entries, never integrity.
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
