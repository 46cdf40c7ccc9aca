package batch

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is the deterministic Clock behind every deadline/aging/admission
// test: time only moves when a test calls Advance (or Set), and timers fire
// synchronously inside that call — "the deadline passes while the item is
// queued" becomes an explicit state transition instead of a sleep.
type fakeClock struct {
	mu     sync.Mutex
	now    time.Time
	timers []*fakeTimer
}

type fakeTimer struct {
	fc   *fakeClock
	when time.Time
	ch   chan time.Time
}

// newFakeClock starts at a fixed, arbitrary epoch — deterministic runs must
// not read the wall clock even once.
func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_700_000_000, 0)}
}

func (fc *fakeClock) Now() time.Time {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.now
}

func (fc *fakeClock) NewTimer(d time.Duration) Timer {
	t := &fakeTimer{fc: fc, ch: make(chan time.Time, 1)}
	fc.mu.Lock()
	t.when = fc.now.Add(d)
	if d <= 0 {
		fc.deliverLocked(t)
	} else {
		fc.timers = append(fc.timers, t)
	}
	fc.mu.Unlock()
	return t
}

// Advance moves the clock forward by d, firing (in deadline order) every
// timer that comes due.
func (fc *fakeClock) Advance(d time.Duration) {
	fc.mu.Lock()
	fc.setLocked(fc.now.Add(d))
	fc.mu.Unlock()
}

// Set jumps the clock to an absolute instant (which must not move backward).
func (fc *fakeClock) Set(now time.Time) {
	fc.mu.Lock()
	fc.setLocked(now)
	fc.mu.Unlock()
}

func (fc *fakeClock) setLocked(now time.Time) {
	if now.Before(fc.now) {
		panic("fakeClock: time moved backward")
	}
	fc.now = now
	for {
		// Fire one due timer per pass, earliest first: strictly in deadline
		// order, like the real clock.
		var next *fakeTimer
		idx := -1
		for i, t := range fc.timers {
			if t.when.After(fc.now) {
				continue
			}
			if next == nil || t.when.Before(next.when) {
				next, idx = t, i
			}
		}
		if next == nil {
			return
		}
		fc.timers = append(fc.timers[:idx], fc.timers[idx+1:]...)
		fc.deliverLocked(next)
	}
}

func (fc *fakeClock) deliverLocked(t *fakeTimer) {
	select {
	case t.ch <- fc.now:
	default:
	}
}

func (t *fakeTimer) C() <-chan time.Time { return t.ch }

func (t *fakeTimer) Stop() bool {
	t.fc.mu.Lock()
	defer t.fc.mu.Unlock()
	for i, o := range t.fc.timers {
		if o == t {
			t.fc.timers = append(t.fc.timers[:i], t.fc.timers[i+1:]...)
			return true
		}
	}
	return false
}

func TestFakeClockTimerFiresInOrder(t *testing.T) {
	fc := newFakeClock()
	t1 := fc.NewTimer(10 * time.Millisecond)
	t2 := fc.NewTimer(5 * time.Millisecond)
	fc.Advance(4 * time.Millisecond)
	select {
	case <-t1.C():
		t.Fatal("t1 fired early")
	case <-t2.C():
		t.Fatal("t2 fired early")
	default:
	}
	fc.Advance(2 * time.Millisecond)
	select {
	case <-t2.C():
	default:
		t.Fatal("t2 did not fire at its deadline")
	}
	fc.Advance(10 * time.Millisecond)
	select {
	case <-t1.C():
	default:
		t.Fatal("t1 did not fire")
	}
}

func TestFakeClockStop(t *testing.T) {
	fc := newFakeClock()
	tm := fc.NewTimer(time.Millisecond)
	if !tm.Stop() {
		t.Fatal("Stop on a pending timer should report true")
	}
	fc.Advance(time.Minute)
	select {
	case <-tm.C():
		t.Fatal("stopped timer fired")
	default:
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
}
