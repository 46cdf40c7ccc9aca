//fastmm:clocked — the whole batch package runs on the injected Clock below;
// fmmvet's clockcheck rejects raw package-time reads anywhere in it.

package batch

import "time"

// Clock is the time source behind every deadline, aging, admission, and
// sweeper decision a Batcher makes. Production batchers run on the wall
// clock; the package's tests inject a fake through Options' unexported
// clock field, so that "a deadline passes while the item is queued" is a
// deterministic state transition instead of a sleep — the whole QoS layer
// (expiry sweeping, lane aging, admission estimates) is testable without
// wall-clock flakiness.
type Clock interface {
	// Now reports the current time.
	Now() time.Time
	// NewTimer returns a timer that delivers on C after d.
	NewTimer(d time.Duration) Timer
}

// Timer is the Clock counterpart of *time.Timer, reduced to what the batcher
// uses: the delivery channel and cancellation.
type Timer interface {
	// C is the delivery channel.
	C() <-chan time.Time
	// Stop cancels the timer; it reports whether the stop prevented a
	// delivery that had not yet fired.
	Stop() bool
}

// wallClock is the production Clock: plain package time. These are the
// package's only sanctioned wall-clock reads.
type wallClock struct{}

//fastmm:wallclock the production Clock implementation
func (wallClock) Now() time.Time { return time.Now() }

//fastmm:wallclock the production Clock implementation
func (wallClock) NewTimer(d time.Duration) Timer { return wallTimer{time.NewTimer(d)} }

type wallTimer struct{ t *time.Timer }

func (w wallTimer) C() <-chan time.Time { return w.t.C }
func (w wallTimer) Stop() bool          { return w.t.Stop() }
