// Serving: drive a mixed-shape request stream through the batched
// dispatcher, the way an inference-style service would. A Batcher keys each
// request by shape class, tunes every class once, keeps its executor (and
// workspace arenas) warm, and runs independent requests concurrently under
// one worker budget — small requests side by side, large ones full width.
// The same traffic is then replayed through per-call fastmm.Auto for
// comparison, and a final mixed-load section exercises the server-grade
// submit path: sparse High-lane interactive requests stay fast against a
// Low-lane bulk flood, deadline'd Low items are shed — rejected at submit by
// admission control when the backlog already dooms them, or expired in the
// queue — instead of occupying runners, and completion callbacks resolve
// requests with no ticket bookkeeping. The run ends with the batcher's Stats
// snapshot: per-lane conservation counters and queue-wait/service p50/p95,
// warm-pool hit rate, backend mix, and the paper's Eq. (3) effective GFLOPS.
//
//	go run ./examples/serving [-requests 64] [-http :8765]
//
// With -http the process keeps serving the live Stats snapshot as JSON on
// /debug/fastmm (expvar-style: curl it while the demo runs, or after).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fastmm"
)

// request shapes a serving mix might see: attention-style square blocks,
// wide outer products, tall panels — with jittered dimensions so several
// raw shapes land in each tuned class.
var families = [][3]int{
	{320, 320, 320},
	{384, 96, 384},
	{384, 384, 96},
	{256, 256, 256},
}

func main() {
	reqFlag := flag.Int("requests", 64, "mixed-shape requests to serve")
	httpAddr := flag.String("http", "", "serve the live Stats snapshot as JSON on this address (/debug/fastmm) and stay up after the demo")
	flag.Parse()
	requests := *reqFlag
	workers := runtime.GOMAXPROCS(0)

	batcher, err := fastmm.NewBatcher(fastmm.BatchOptions{
		Resources: fastmm.Resources{
			Workers:   workers,
			Workspace: 512 << 20, // retain at most 512 MiB of warm workspace
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer batcher.Close()

	if *httpAddr != "" {
		// Expvar-style observability: the snapshot is assembled per request
		// from the batcher's atomic counters, so polling it costs the hot
		// path nothing. ?trace=1 switches to the sampled execution traces
		// (ring snapshot — per-request verdicts, plans, and spans); the plain
		// view bundles the Stats snapshot with the histogram bucket bounds so
		// a scraper can label the latency cells without hardcoding them.
		http.HandleFunc("/debug/fastmm", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			var err error
			if r.URL.Query().Get("trace") != "" {
				err = json.NewEncoder(w).Encode(struct {
					Traces []fastmm.TraceRecord `json:"traces"`
				}{batcher.Traces()})
			} else {
				err = json.NewEncoder(w).Encode(struct {
					fastmm.BatchStats
					HistogramBoundsNanos []time.Duration `json:"histogram_bounds_nanos"`
				}{batcher.Stats(), fastmm.BatchHistogramBounds()})
			}
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
		go func() { log.Fatal(http.ListenAndServe(*httpAddr, nil)) }()
		fmt.Printf("stats endpoint: http://%s/debug/fastmm (traces: ?trace=1)\n", *httpAddr)
	}

	rng := rand.New(rand.NewSource(42))
	type req struct{ C, A, B *fastmm.Matrix }
	reqs := make([]req, requests)
	for i := range reqs {
		f := families[rng.Intn(len(families))]
		jitter := func(d int) int { return d - rng.Intn(d/10) } // ±10% → same class
		m, k, n := jitter(f[0]), jitter(f[1]), jitter(f[2])
		reqs[i] = req{
			C: fastmm.NewMatrix(m, n),
			A: fastmm.RandomMatrix(m, k, int64(i)),
			B: fastmm.RandomMatrix(k, n, int64(i+requests)),
		}
	}

	// Serve the stream: submit everything, let the batcher schedule.
	start := time.Now()
	for _, r := range reqs {
		if _, err := batcher.SubmitRequest(fastmm.Request{Op: fastmm.OpMultiply, C: r.C, A: r.A, B: r.B}, fastmm.SubmitOpts{}); err != nil {
			log.Fatal(err)
		}
	}
	if err := batcher.Wait(); err != nil {
		log.Fatal(err)
	}
	batchSecs := time.Since(start).Seconds()
	fmt.Printf("batcher: %d mixed-shape requests in %.2fs (%.1f req/s) — %d warm classes, %.1f MiB retained workspace\n",
		requests, batchSecs, float64(requests)/batchSecs,
		batcher.WarmEntries(), float64(batcher.WorkspaceRetained())/(1<<20))

	// The same traffic through per-call Auto: every call re-enters the
	// shape dispatcher and runs alone at full width.
	start = time.Now()
	for _, r := range reqs {
		if err := fastmm.Auto(r.C, r.A, r.B, fastmm.AutoOptions{Resources: fastmm.Resources{Workers: workers}}); err != nil {
			log.Fatal(err)
		}
	}
	autoSecs := time.Since(start).Seconds()
	fmt.Printf("per-call Auto: %.2fs (%.1f req/s) -> batcher is %.2fx\n",
		autoSecs, float64(requests)/autoSecs, autoSecs/batchSecs)

	// Mixed load on the server-grade submit path: a Low-lane bulk flood
	// saturates the workers while sparse High-lane "interactive" requests
	// must overtake the backlog. Completion callbacks (SubmitOpts.Callback)
	// resolve the flood — no tickets held for it.
	const m, k, n = 320, 320, 320
	const interactive = 12
	var bulkDone, bulkExpired, bulkRejected atomic.Int64
	stopFlood := make(chan struct{})
	var floodWg sync.WaitGroup
	floodWg.Add(1)
	go func() {
		defer floodWg.Done()
		bulkA, bulkB := fastmm.RandomMatrix(m, k, 3), fastmm.RandomMatrix(k, n, 4)
		window := make(chan struct{}, 2*workers) // bounded outstanding bulk work
		for i := 0; ; i++ {
			select {
			case <-stopFlood:
				return
			case window <- struct{}{}:
			}
			// Every fourth bulk item carries a tight freshness deadline:
			// under saturation it is shed — rejected at submit once the
			// estimator knows the backlog ahead dooms it, or expired in the
			// queue (ErrDeadlineExceeded) before admission has calibrated —
			// instead of occupying a runner: stale speculative work costs
			// nothing.
			opts := fastmm.SubmitOpts{Lane: fastmm.LaneLow, Callback: func(err error) {
				switch {
				case errors.Is(err, fastmm.ErrDeadlineExceeded):
					bulkExpired.Add(1)
				case err == nil:
					bulkDone.Add(1)
				}
				<-window
			}}
			if i%4 == 3 {
				opts.Deadline = time.Now().Add(2 * time.Millisecond)
			}
			bulk := fastmm.Request{Op: fastmm.OpMultiply, C: fastmm.NewMatrix(m, n), A: bulkA, B: bulkB}
			_, err := batcher.SubmitRequest(bulk, opts)
			if errors.Is(err, fastmm.ErrAdmissionDenied) {
				// Shed at submit: no callback will fire, so release the
				// window slot here and keep flooding.
				bulkRejected.Add(1)
				<-window
				continue
			}
			if err != nil {
				return
			}
		}
	}()

	hiA, hiB := fastmm.RandomMatrix(m, k, 5), fastmm.RandomMatrix(k, n, 6)
	hiC := fastmm.NewMatrix(m, n)
	latencies := make([]float64, 0, interactive)
	for i := 0; i < interactive; i++ {
		reqStart := time.Now()
		hi := fastmm.Request{Op: fastmm.OpMultiply, C: hiC, A: hiA, B: hiB}
		tk, err := batcher.SubmitRequest(hi, fastmm.SubmitOpts{Lane: fastmm.LaneHigh})
		if err != nil {
			log.Fatal(err)
		}
		if err := tk.Wait(); err != nil {
			log.Fatal(err)
		}
		latencies = append(latencies, time.Since(reqStart).Seconds())
		time.Sleep(5 * time.Millisecond) // sparse interactive arrivals
	}
	close(stopFlood)
	floodWg.Wait()
	if err := batcher.Wait(); err != nil {
		log.Fatal(err)
	}
	sort.Float64s(latencies)
	p50 := latencies[len(latencies)/2]
	p95 := latencies[len(latencies)*95/100]
	fmt.Printf("lanes under load: %d high-lane requests at p50 %.1fms / p95 %.1fms while %d low-lane bulk items ran; %d deadline'd ones shed (%d admission-rejected, %d expired queued)\n",
		interactive, p50*1e3, p95*1e3, bulkDone.Load(),
		bulkExpired.Load()+bulkRejected.Load(), bulkRejected.Load(), bulkExpired.Load())

	// The batcher's own view of the whole run: Stats() is the operational
	// surface a real service would scrape (or poll via -http).
	st := batcher.Stats()
	fmt.Printf("stats: warm hit rate %.0f%%, %d warm classes, %.1f effective GFLOPS over %.2fs busy, backends %v\n",
		100*st.WarmHitRate(), st.WarmEntries, st.EffectiveGFLOPS, st.BusySeconds, st.Backends)
	fmt.Printf("  observability: %d traces sampled (%d lost) %v\n",
		st.TraceSampled, st.TraceLost, st.TraceSamples)
	laneName := map[fastmm.Lane]string{fastmm.LaneHigh: "high", fastmm.LaneNormal: "normal", fastmm.LaneLow: "low"}
	for _, lane := range []fastmm.Lane{fastmm.LaneHigh, fastmm.LaneNormal, fastmm.LaneLow} {
		ls := st.Lanes[lane]
		if ls.Submitted == 0 {
			continue
		}
		fmt.Printf("  lane %-6s submitted %-5d done %-5d expired %-4d rejected %-4d queue-wait p50 %s p95 %s, service p50 %s p95 %s\n",
			laneName[lane], ls.Submitted, ls.Done, ls.Expired, ls.Rejected,
			ls.QueueWait.Quantile(0.5).Round(time.Microsecond), ls.QueueWait.Quantile(0.95).Round(time.Microsecond),
			ls.Service.Quantile(0.5).Round(time.Microsecond), ls.Service.Quantile(0.95).Round(time.Microsecond))
	}

	if *httpAddr != "" {
		fmt.Printf("serving stats on http://%s/debug/fastmm — ctrl-c to exit\n", *httpAddr)
		select {}
	}
}
