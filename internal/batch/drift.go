package batch

import (
	"time"

	"fastmm/internal/op"
	"fastmm/internal/tuner"
)

// The drift loop closes the gap tuning-once leaves open: a plan probed at
// startup stays "best" in the cache even after the machine changes under it
// (thermal throttling, a neighbor saturating memory bandwidth, a migration
// to different hardware behind a persisted cache). Every completed execution
// already feeds the per-(op, class) EWMA the admission controller prices
// with; the drift detector compares those same observations against the
// calibrated prediction the plan was chosen by, and when K consecutive
// completions land outside the confidence band it declares a drift event —
// the plan's ranking evidence is stale. The response is surgical: evict the
// class's warm entries, purge its tuned plans from the per-width tuners
// (memory and disk), re-tune the class once, and reseed the estimator from
// the fresh plan. Re-probing is rate-limited so a noisy class re-tunes at a
// bounded cadence, not on every excursion.

// The drift loop's fixed tuning.
const (
	// driftBand is the relative confidence band around the calibrated
	// prediction: an observation outside [pred/(1+band), pred·(1+band)]
	// counts toward a drift event. Both directions count: a class running
	// far faster than predicted is also mis-calibrated (admission
	// over-rejects on its behalf).
	driftBand = 0.5
	// driftK is how many consecutive out-of-band completions declare a
	// drift event. One in-band completion resets the streak, so isolated
	// outliers (GC pause, cache-cold call) never trigger.
	driftK = 8
	// minReprobeInterval rate-limits re-probing across the whole batcher.
	// Events inside the window still count in Stats.DriftEvents; they just
	// don't re-probe.
	minReprobeInterval = time.Minute
)

// DriftOptions configures drift detection and re-probing (Options.Drift).
// The zero value enables the loop; set Disable to turn it off (executions
// then feed the EWMA only).
type DriftOptions struct {
	// Disable turns the drift loop off.
	Disable bool
}

// checkDrift folds one completed execution into the drift detector and, on a
// drift event, schedules a re-probe of the entry's (op, class) if none ran
// within minReprobeInterval. Runs on every execution path after the EWMA
// observation; the non-drifting common case is a few atomic loads.
func (b *Batcher) checkDrift(e *warmEntry, secs float64) {
	if b.opts.Drift.Disable || secs <= 0 {
		return
	}
	c := b.est.cell(e.key.op, e.key.class)
	now := b.clock.Now().UnixNano()
	if !c.checkDrift(secs, now) {
		return
	}
	b.met.driftEvents.Add(1)
	last := b.lastReprobe.Load()
	if last != 0 && now-last < int64(minReprobeInterval) {
		return
	}
	if !b.lastReprobe.CompareAndSwap(last, now) {
		return // another drift event won the slot
	}
	// Re-probe off the hot path: the drifting execution's caller should not
	// pay the tuning latency.
	go b.reprobe(e.key.op, e.key.class)
}

// reprobe re-tunes one (op, class) after a drift event: evict its warm
// entries at every width, purge the stale tuned plans from the per-width
// tuners (memory and disk — a persisted stale plan would just reload), tune
// the class representative once, and reseed the admission estimator from the
// fresh plan. Registers in the outstanding accounting like every
// entry-building path, so Close never returns while a re-probe is installing
// state.
func (b *Batcher) reprobe(o op.Op, class tuner.ShapeClass) {
	if err := b.beginSync(); err != nil {
		return // closing: the next process will re-tune from scratch anyway
	}
	defer b.doneOutstanding(nil)
	b.mu.Lock()
	for key, e := range b.entries {
		if key.op != o || key.class != class {
			continue
		}
		b.lru.Remove(e.elem)
		e.elem = nil
		delete(b.entries, key)
		b.retained -= e.bytes
	}
	b.mu.Unlock()
	cm, ck, cn := class.Dims()
	b.tunersMu.Lock()
	for _, tn := range b.tuners {
		tn.InvalidateOp(o, cm, ck, cn)
	}
	b.tunersMu.Unlock()
	e, _, err := b.entryFor(o, cm, ck, cn, 1)
	if err != nil {
		return
	}
	plan := e.te.Plan()
	secs := plan.MeasuredSeconds
	if secs <= 0 {
		secs = plan.PredictedSeconds
	}
	if secs > 0 {
		b.est.reseed(o, class, secs)
	}
	b.met.reprobes.Add(1)
	b.saveHealth()
}

// saveHealth persists the calibration-health snapshot (per-class predicted
// vs EWMA service times, drift history) beside the tuning cache so fmmtune
// can report it offline. Called after re-probes only — routine executions
// never touch the disk.
func (b *Batcher) saveHealth() {
	if b.opts.Tuning.NoDiskCache {
		return
	}
	_ = tuner.SaveHealth(tuner.Health{
		Updated: b.clock.Now(),
		Entries: b.est.healthEntries(),
	})
}
