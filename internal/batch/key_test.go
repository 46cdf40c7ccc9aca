package batch

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"fastmm/internal/catalog"
	"fastmm/internal/trace"
	"fastmm/internal/tuner"
)

// setNonDefault sets f to a value no option's default takes. A field of a
// kind it does not know fails the test, so a new option cannot slip past
// the key unnoticed.
func setNonDefault(t *testing.T, f reflect.Value, path string) {
	t.Helper()
	switch f.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		f.SetInt(12345)
	case reflect.Bool:
		f.SetBool(true)
	case reflect.Slice:
		if f.Type().Elem().Kind() != reflect.String {
			t.Fatalf("%s: no non-default value for %s", path, f.Type())
		}
		f.Set(reflect.ValueOf([]string{"nondefault"}))
	case reflect.Pointer:
		f.Set(reflect.New(f.Type().Elem()))
	default:
		t.Fatalf("%s: no non-default value for %s", path, f.Type())
	}
}

// eachOption sets every exported leaf field of the struct v (recursing into
// nested and embedded structs) to a non-default value in turn, calls visit
// with the field's path, and restores it.
func eachOption(t *testing.T, v reflect.Value, path string, visit func(path string)) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		sf := v.Type().Field(i)
		if !sf.IsExported() {
			continue
		}
		f, name := v.Field(i), path+sf.Name
		if f.Kind() == reflect.Struct {
			eachOption(t, f, name+".", visit)
			continue
		}
		saved := reflect.New(f.Type()).Elem()
		saved.Set(f)
		setNonDefault(t, f, name)
		visit(name)
		f.Set(saved)
	}
}

// spelledOutTuning is tuner.Options{} with every default written out.
func spelledOutTuning() tuner.Options {
	var algs []string
	for _, name := range catalog.Names() {
		if a := catalog.MustGet(name); !strings.HasPrefix(name, "classical") && !a.Numeric && !a.APA {
			algs = append(algs, name)
		}
	}
	return tuner.Options{
		Resources:  tuner.Resources{Workers: runtime.GOMAXPROCS(0)},
		ProbeTopK:  tuner.DefaultProbeTopK,
		Algorithms: algs,
	}
}

// TestOptionsKey: each option set renders one key that is its identity. The
// zero value and its defaults spelled out render alike, and setting any
// exported field — inside Resources, Trace and Tuning too — to a
// value other than its default changes the key, except Tuning's Workers,
// which the Batcher sets from Resources.Workers.
func TestOptionsKey(t *testing.T) {
	var topts tuner.Options
	if got, want := topts.Key(), spelledOutTuning().Key(); got != want {
		t.Fatalf("zero tuner options key %q, spelled-out defaults %q", got, want)
	}
	base := topts.Key()
	var tunerFields []string
	eachOption(t, reflect.ValueOf(&topts).Elem(), "", func(path string) {
		tunerFields = append(tunerFields, path)
		if topts.Key() == base {
			t.Errorf("tuner.Options.%s set to a non-default value leaves the key at %q", path, base)
		}
	})
	// The tuner's whole settable surface; the rest of its policy is fixed.
	want := "Resources.Workers Resources.Workspace ProbeTopK Algorithms Profile NoDiskCache"
	if got := strings.Join(tunerFields, " "); got != want {
		t.Errorf("tuner.Options fields %q, want %q", got, want)
	}

	var bopts Options
	spelled := Options{
		Resources: Resources{Workers: runtime.GOMAXPROCS(0)},
		Trace:     trace.Config{Sample: trace.DefaultSample},
		Tuning:    spelledOutTuning(),
	}
	if got, want := bopts.Key(), spelled.Key(); got != want {
		t.Fatalf("zero batch options key %q, spelled-out defaults %q", got, want)
	}
	base = bopts.Key()
	visited := 0
	eachOption(t, reflect.ValueOf(&bopts).Elem(), "", func(path string) {
		visited++
		if ignored := path == "Tuning.Resources.Workers"; (bopts.Key() == base) != ignored {
			t.Errorf("batch.Options.%s set to a non-default value renders key %q (base %q), want it changed: %t", path, bopts.Key(), base, !ignored)
		}
	})
	// Resources; Trace; Tuning.
	if want := 2 + 1 + len(tunerFields); visited != want {
		t.Errorf("visited %d batch.Options fields, want %d", visited, want)
	}
}

// TestOptionsKeyIgnoresTuningWorkers: the Batcher's tuner runs at
// Resources.Workers whatever Tuning.Workers says, so two option sets that
// differ only there behave identically and render one key.
func TestOptionsKeyIgnoresTuningWorkers(t *testing.T) {
	a := Options{Resources: Resources{Workers: 2}, Tuning: tuner.Options{Resources: tuner.Resources{Workers: 3}}}
	b := Options{Resources: Resources{Workers: 2}}
	if a.Key() != b.Key() {
		t.Fatalf("keys differ: %q vs %q", a.Key(), b.Key())
	}
}
