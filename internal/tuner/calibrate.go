package tuner

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"fastmm/internal/costmodel"
	"fastmm/internal/gemm"
	"fastmm/internal/mat"
	"fastmm/internal/stream"
)

// ProfileVersion invalidates persisted calibrations (and tuning-cache keys)
// when the measurement protocol or the time model changes shape.
// v2: one gemm curve per leaf-kernel backend and the backend as a tuning
// dimension — v1 caches and profiles are retired cleanly because both the
// cache-key prefix and the profile fingerprint change.
// v3: operation-typed plans (the op token joins the cache key and Plan) and
// the resource budget rendered through resources.Resources.Key — v2 caches
// are retired cleanly for the same reason.
// v4: the fused-operand engine joins the candidate space (Plan.Fused and the
// fused cost-model dimension) — v3 caches predate it and must re-rank.
// v5: the "simd" leaf selects an AVX-512 8×24 micro-kernel where the machine
// has one and every border tile runs through the kernel — v4 calibration
// curves and plans describe the 6×8 leaf at about half the rate and must be
// retired on upgrade.
// v6: classical ATA/Syrk is one lower-triangle pass of the leaf engine at
// about half the flops of the transpose-and-gemm it replaced — v5 ATA/Syrk
// decisions ranked fast plans against the old price and must be re-tuned.
// v7: the leaf splits k into balanced panels of at most 384 and stores its
// first k-panel from the micro-kernel — v6 curves price classical too slow on
// thin shapes (k = 320, 625) and must be re-measured.
// v8: one gemm curve, measured on the default backend and naming it
// (Machine.Backend); the backend is no longer a tuning dimension.
// v9: AᵗA and Syrk run only as the classical triangle pass, and every curve
// sample times a warm call — v8 caches may hold fast AᵗA/Syrk plans that no
// longer run, and v8 quick curves read the cold first call of each size
// (0.5–1.4 GFLOPS sequential at 64³ on a 2-CPU AVX-512 Xeon, against 23–27
// warm).
// v10: a quick curve sample is the best of five timings, not one — a v9
// quick curve may hold a single slow draw (2 GFLOPS at 64³ and two workers
// on a 2-CPU AVX-512 Xeon, against 17–27 for the best of five).
const ProfileVersion = 10

// Profile is a one-time machine calibration: the measured gemm throughput
// curve and addition bandwidth that parameterize the cost model's time
// predictions (costmodel.Machine), plus enough metadata to judge staleness.
// It is persisted as JSON in the tuning cache directory (see Paths).
type Profile struct {
	Version    int               `json:"version"`
	CreatedAt  time.Time         `json:"created_at"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Quick      bool              `json:"quick,omitempty"` // measured with the abbreviated protocol
	Machine    costmodel.Machine `json:"machine"`
}

// Valid reports whether the profile can parameterize predictions on this
// process: version match, calibrated rates present, and measured on the
// backend this process multiplies with (gemm.Default) — a curve of another
// backend prices every candidate at the wrong rate.
func (p *Profile) Valid() bool {
	return p != nil && p.Version == ProfileVersion && p.Machine.Valid() &&
		p.Machine.Backend == gemm.Default().Name()
}

// Fingerprint identifies a profile by the fields predictions depend on —
// the version and the measured machine rates. Metadata (CreatedAt,
// GOMAXPROCS, Quick) is deliberately excluded so two equal calibrations
// loaded or constructed separately fingerprint identically. The tuning-cache
// key includes it, so recalibrating retires every persisted plan.
func (p *Profile) Fingerprint() string {
	if p == nil {
		return "nil"
	}
	data, err := json.Marshal(struct {
		V int
		M costmodel.Machine
	}{p.Version, p.Machine})
	if err != nil {
		return "unhashable" // unreachable for the plain-data Machine
	}
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Calibrate measures the machine: classical-gemm GFLOPS of the default leaf
// backend at a few square block sizes (sequentially and at the given worker
// count — the two endpoints the time model interpolates between; each
// timed after one untimed call at that size and width), and the
// STREAM-add bandwidth the matrix additions run at. quick
// shrinks the protocol to smoke-test cost for first-use auto-calibration and
// tests; the full protocol is what cmd/fmmtune calibrate runs.
func Calibrate(workers int, quick bool) *Profile {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sizes := []int{96, 192, 384, 640}
	trials, streamTrials := 2, 2
	streamN := 1 << 23
	if quick {
		// Gemm samples stay best-of-five (see ProfileVersion 10): the
		// extra timings cost milliseconds, a slow single draw misprices
		// every plan.
		sizes = []int{64, 128, 256}
		trials, streamTrials = 5, 1
		streamN = 1 << 20
	}

	be := gemm.Default()
	ma := costmodel.Machine{Workers: workers, Backend: be.Name()}
	rng := rand.New(rand.NewSource(1))
	for _, n := range sizes {
		A, B, C := mat.New(n, n), mat.New(n, n), mat.New(n, n)
		A.FillRandom(rng)
		B.FillRandom(rng)
		flops := 2*float64(n)*float64(n)*float64(n) - float64(n)*float64(n)
		seq := bestTime(trials, func() { gemm.Dispatch(be, C, 1, A, B, false, 1) })
		par := seq
		// Worker-agnostic backends (blas) would make the parallel pass
		// re-time the identical call — their curve is flat by contract.
		if workers > 1 && !gemm.WorkerAgnostic(be) {
			par = bestTime(trials, func() { gemm.Dispatch(be, C, 1, A, B, false, workers) })
		}
		ma.Gemm = append(ma.Gemm, costmodel.GemmSample{
			N:         n,
			SeqGFLOPS: flops / seq / 1e9,
			ParGFLOPS: flops / par / 1e9,
		})
	}

	ma.AddSeqGBps = stream.Run(stream.Add, streamN, 1, streamTrials).GBps
	ma.AddParGBps = ma.AddSeqGBps
	if workers > 1 {
		ma.AddParGBps = stream.Run(stream.Add, streamN, workers, streamTrials).GBps
	}

	return &Profile{
		Version:    ProfileVersion,
		CreatedAt:  time.Now().UTC(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      quick,
		Machine:    ma,
	}
}

// bestTime returns the fastest of trials timings of f, in seconds — the
// paper's protocol for microbenchmarks, robust to scheduling noise — after
// one untimed call: the first call of a size and width pays for packing
// buffers, page faults and cold caches, which a one-trial quick protocol
// would otherwise record as the curve.
func bestTime(trials int, f func()) float64 {
	if trials < 1 {
		trials = 1
	}
	f()
	ts := make([]float64, 0, trials)
	for i := 0; i < trials; i++ {
		start := time.Now()
		f()
		ts = append(ts, time.Since(start).Seconds())
	}
	sort.Float64s(ts)
	return ts[0]
}
