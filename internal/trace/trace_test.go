package trace

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"
)

func TestNormalizedDefaults(t *testing.T) {
	if c := (Config{}).Normalized(); c.Sample != DefaultSample {
		t.Fatalf("zero config normalized to %+v", c)
	}
	if c := (Config{Sample: 3}).Normalized(); c.Sample != 3 {
		t.Fatalf("Sample 3 normalized to %+v", c)
	}
}

// TestNewBuildsDefaultRing: tracing has one knob, the sample rate. Every
// config builds a ring of DefaultRing records.
func TestNewBuildsDefaultRing(t *testing.T) {
	if n := reflect.TypeOf(Config{}).NumField(); n != 1 {
		t.Fatalf("Config has %d fields, want 1 (Sample)", n)
	}
	for _, cfg := range []Config{{}, {Sample: 1}} {
		r := New(cfg)
		if len(r.slots) != DefaultRing || r.sample != uint64(cfg.Normalized().Sample) {
			t.Fatalf("New(%+v): %d slots at 1-in-%d", cfg, len(r.slots), r.sample)
		}
	}
}

func TestSampleRate(t *testing.T) {
	r := newRing(64, 4)
	var got int
	for i := 0; i < 40; i++ {
		if rec := r.Sample(); rec != nil {
			got++
			r.Publish(rec)
		}
	}
	if got != 10 {
		t.Fatalf("sampled %d of 40 at 1-in-4, want 10", got)
	}
	if r.Sampled() != 10 {
		t.Fatalf("Sampled() = %d, want 10", r.Sampled())
	}
}

func TestPublishOrderAndSnapshot(t *testing.T) {
	r := newRing(8, 1)
	for i := 0; i < 5; i++ {
		rec := r.Sample()
		if rec == nil {
			t.Fatalf("sample %d dropped on an empty ring", i)
		}
		rec.Op = "multiply"
		rec.M = i
		r.Publish(rec)
	}
	snap := r.Snapshot()
	if len(snap) != 5 {
		t.Fatalf("snapshot has %d records, want 5", len(snap))
	}
	for i, rec := range snap {
		if rec.Seq != uint64(i+1) || rec.M != i {
			t.Fatalf("snapshot[%d] = seq %d M %d, want seq %d M %d",
				i, rec.Seq, rec.M, i+1, i)
		}
	}
}

func TestRingReclaimsOldestSlots(t *testing.T) {
	r := newRing(4, 1)
	for i := 0; i < 10; i++ {
		rec := r.Sample()
		rec.M = i
		r.Publish(rec)
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot has %d records, want ring size 4", len(snap))
	}
	for i, rec := range snap {
		if want := 6 + i; rec.M != want {
			t.Fatalf("snapshot[%d].M = %d, want %d (newest 4 survive)", i, rec.M, want)
		}
	}
}

func TestInFlightSlotSkippedNotBlocked(t *testing.T) {
	r := newRing(2, 1)
	a := r.Sample() // held in flight
	b := r.Sample()
	b.M = 42
	r.Publish(b)
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].M != 42 {
		t.Fatalf("snapshot = %+v, want just the published record", snap)
	}
	// The cursor lands on the in-flight slot next: that sample drops
	// (counted) instead of waiting, and the following one claims the free
	// slot.
	c := r.Sample()
	d := r.Sample()
	if c != nil || d == nil {
		t.Fatalf("contended then free slot: got %v, %v", c, d)
	}
	if r.Lost() != 1 {
		t.Fatalf("Lost() = %d, want 1", r.Lost())
	}
	r.Publish(a)
	r.Publish(d)
}

func TestSpansClampAndCount(t *testing.T) {
	var s Spans
	for i := 0; i < MaxSpans+5; i++ {
		s.Add(Span{Kind: KindLeaf, Level: int32(i)})
	}
	if s.Len() != MaxSpans || s.Dropped() != 5 {
		t.Fatalf("Len %d Dropped %d, want %d and 5", s.Len(), s.Dropped(), MaxSpans)
	}
	var nilSink *Spans
	nilSink.Add(Span{Kind: KindStep}) // must not panic
}

func TestRecordJSONRoundTrip(t *testing.T) {
	r := newRing(2, 1)
	rec := r.Sample()
	rec.Op = "multiply"
	rec.M, rec.K, rec.N = 64, 64, 64
	rec.Verdict = "queued"
	rec.Spans.Add(Span{Kind: KindSched, Sched: "dfs", Workers: 2})
	rec.Spans.Add(Span{Kind: KindLeaf, Backend: "go", M: 32, K: 32, N: 32, Nanos: 1000})
	r.Publish(rec)
	raw, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var decoded []struct {
		Seq     uint64 `json:"seq"`
		Op      string `json:"op"`
		Verdict string `json:"verdict"`
		Spans   struct {
			Dropped int    `json:"dropped"`
			Spans   []Span `json:"spans"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 1 || decoded[0].Op != "multiply" || decoded[0].Verdict != "queued" {
		t.Fatalf("decoded %+v", decoded)
	}
	if got := decoded[0].Spans.Spans; len(got) != 2 || got[0].Kind != KindSched || got[1].Kind != KindLeaf {
		t.Fatalf("decoded spans %+v", decoded[0].Spans)
	}
}

// TestConcurrentWritersAndReaders is the -race hammer: writers sample, fill,
// and publish against readers snapshotting, with concurrent span writers per
// record (the BFS fan-out shape).
func TestConcurrentWritersAndReaders(t *testing.T) {
	r := newRing(16, 1)
	const writers, perWriter = 8, 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 3; i++ { // readers
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := r.Snapshot()
				for j := 1; j < len(snap); j++ {
					if snap[j].Seq <= snap[j-1].Seq {
						t.Errorf("snapshot out of order: %d then %d", snap[j-1].Seq, snap[j].Seq)
						return
					}
				}
			}
		}()
	}
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			for i := 0; i < perWriter; i++ {
				rec := r.Sample()
				if rec == nil {
					continue
				}
				rec.Op = "multiply"
				rec.M = w
				var sg sync.WaitGroup
				for s := 0; s < 4; s++ { // concurrent span writers
					sg.Add(1)
					go func(s int) {
						defer sg.Done()
						rec.Spans.Add(Span{Kind: KindLeaf, Level: int32(s)})
					}(s)
				}
				sg.Wait()
				r.Publish(rec)
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	if r.Sampled() == 0 {
		t.Fatalf("hammer claimed no records")
	}
	if got := len(r.Snapshot()); got == 0 || got > 16 {
		t.Fatalf("final snapshot has %d records", got)
	}
}

// TestRecordPathAllocFree pins the zero-allocation contract of the hot path:
// sample, fill, record spans, publish.
func TestRecordPathAllocFree(t *testing.T) {
	r := newRing(8, 1)
	allocs := testing.AllocsPerRun(500, func() {
		rec := r.Sample()
		if rec == nil {
			return
		}
		rec.Op = "multiply"
		rec.M, rec.K, rec.N = 64, 64, 64
		rec.Verdict = "sync"
		rec.Spans.Add(Span{Kind: KindSched, Sched: "dfs"})
		rec.Spans.Add(Span{Kind: KindLeaf, Backend: "go", Nanos: 5})
		r.Publish(rec)
	})
	if allocs != 0 {
		t.Fatalf("record path allocates %.1f/op, want 0", allocs)
	}
	// The unsampled path too.
	r2 := newRing(8, 1<<20)
	r2.Sample() // consume the first-tick sample
	allocs = testing.AllocsPerRun(500, func() {
		if rec := r2.Sample(); rec != nil {
			r2.Publish(rec)
		}
	})
	if allocs != 0 {
		t.Fatalf("unsampled path allocates %.1f/op, want 0", allocs)
	}
}
