package core

import (
	"fmt"
	"reflect"
	"testing"

	"fastmm/internal/algo"
	"fastmm/internal/op"
	"fastmm/internal/trace"
)

// wantWalk derives from the algorithm alone the spans and Stats a Sequential
// call records: the scheduler's span, then per recursion level walked one
// step span of the peeled core, followed by its R products (recursive
// multiplies down to leaf spans of the block shape, or on a fused level R
// fused-leaf spans) and its peeling fix-ups, one gemm and one span per
// peeled dimension: the right border of the core's rows, the top strip's
// extra inner dimension, and the bottom strip.
func wantWalk(a *algo.Algorithm, steps int, fused bool, p, q, r int) ([]string, Stats) {
	b := a.Base
	spans := []string{fmt.Sprintf("%s 0 %dx%dx%d", trace.KindSched, p, q, r)}
	var st Stats
	var walk func(level, p, q, r int)
	walk = func(level, p, q, r int) {
		if level == steps {
			spans = append(spans, fmt.Sprintf("%s 0 %dx%dx%d", trace.KindLeaf, p, q, r))
			st.LeafCalls++
			return
		}
		pc, qc, rc := p-p%b.M, q-q%b.K, r-r%b.N
		spans = append(spans, fmt.Sprintf("%s %d %dx%dx%d", trace.KindStep, level, pc, qc, rc))
		for i := 0; i < a.Rank(); i++ {
			if fused && level == steps-1 {
				spans = append(spans, fmt.Sprintf("%s 0 %dx%dx%d", trace.KindFusedLeaf, pc/b.M, qc/b.K, rc/b.N))
				st.FusedCalls++
			} else {
				walk(level+1, pc/b.M, qc/b.K, rc/b.N)
			}
		}
		for _, fix := range []struct {
			peeled  bool
			m, k, n int
		}{{rc < r, pc, qc, r - rc}, {qc < q, pc, q - qc, r}, {pc < p, p - pc, q, r}} {
			if fix.peeled {
				spans = append(spans, fmt.Sprintf("%s %d %dx%dx%d", trace.KindFixup, level, fix.m, fix.k, fix.n))
				st.FixupCalls++
			}
		}
	}
	walk(0, p, q, r)
	return spans, st
}

// TestWalkCallSequence pins the order of a Sequential call's work, which
// the repository benchmark's replay of a plan assumes: the recorded spans
// (kind, level, M×K×N) and Stats of strassen s1 and s2 and fast424 s1 on a
// shape that peels at every level, explicit and fused, against wantWalk. A
// span sink holds the first trace.MaxSpans spans and counts the rest, so
// strassen s1 and fast424 s1, which fit, show every fix-up span.
func TestWalkCallSequence(t *testing.T) {
	const m, k, n = 67, 45, 53
	be := fusedCapableBackend(t)
	for _, tc := range []struct {
		alg   string
		steps int
	}{{"strassen", 1}, {"strassen", 2}, {"fast424", 1}} {
		for _, fused := range []bool{false, true} {
			var stats Stats
			e := mustExec(t, tc.alg, Options{Steps: tc.steps, Parallel: Sequential, Fused: fused, Backend: be, Stats: &stats})
			C, A, B := randomProblem(m, k, n, 46)
			var tr trace.Spans
			if err := e.Do(op.Request{Op: op.Multiply, C: C, A: A, B: B, Trace: &tr}); err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, sp := range tr.Slice() {
				got = append(got, fmt.Sprintf("%s %d %dx%dx%d", sp.Kind, sp.Level, sp.M, sp.K, sp.N))
			}
			want, wantStats := wantWalk(e.Algorithm(), tc.steps, fused, m, k, n)
			if n := tr.Len() + tr.Dropped(); n != len(want) {
				t.Errorf("%s s%d fused=%v: %d spans, want %d", tc.alg, tc.steps, fused, n, len(want))
			}
			if want = want[:min(len(want), trace.MaxSpans)]; !reflect.DeepEqual(got, want) {
				t.Errorf("%s s%d fused=%v: spans\n%v\nwant\n%v", tc.alg, tc.steps, fused, got, want)
			}
			if s := stats.Snapshot(); s != wantStats {
				t.Errorf("%s s%d fused=%v: stats %+v, want %+v", tc.alg, tc.steps, fused, s, wantStats)
			}
			// The executor's own walk counts the same fix-ups.
			var walked int64
			for w := e.Walk(m, k, n); w.Next(); {
				for _, peeled := range []bool{w.CN < w.N, w.CK < w.K, w.CM < w.M} {
					if peeled {
						walked += w.Count
					}
				}
			}
			if walked != wantStats.FixupCalls {
				t.Errorf("%s s%d fused=%v: the walk has %d fix-ups, want %d", tc.alg, tc.steps, fused, walked, wantStats.FixupCalls)
			}
		}
	}
}
