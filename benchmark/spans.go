package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one call the benchmark made into a layer of the program. Spans of
// one request share Request; Parent is the span that caused this one (0 for a
// root). Times are nanoseconds since the recorder started.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// recorder is the traced pass's in-memory span sink, written out once when
// the pass ends. A nil recorder (the untraced pass) records nothing, so call
// sites wrap unconditionally. It records around calls from outside the
// program; spans inside the program are a later change.
type recorder struct {
	mu    sync.Mutex
	start time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{start: time.Now()} }

// begin opens a span and returns its id (0 on a nil recorder).
func (r *recorder) begin(parent, request int, layer, name string) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.start).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Request: request, Layer: layer, Name: name, StartNS: now})
	return id
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.start).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].EndNS = now
	r.mu.Unlock()
}

// call records f as one span.
func (r *recorder) call(parent, request int, layer, name string, f func()) {
	id := r.begin(parent, request, layer, name)
	f()
	r.end(id)
}

// selfByLayer sums, per layer, each span's duration minus the part of that
// interval its child spans cover.
func (r *recorder) selfByLayer() map[string]int64 {
	children := map[int][]span{}
	for _, s := range r.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := map[string]int64{}
	for _, s := range r.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, upto := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, upto), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				upto = hi
			}
		}
		out[s.Layer] += s.EndNS - s.StartNS - covered
	}
	return out
}

// write stores the spans and the per-layer self times as one JSON document.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := json.Marshal(struct {
		SelfNSByLayer map[string]int64 `json:"self_ns_by_layer"`
		Spans         []span           `json:"spans"`
	}{r.selfByLayer(), r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
