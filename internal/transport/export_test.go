package transport

import (
	"sync"
	"testing"
	"time"
)

// The frame codec, for the external test package's fuzz target.
var (
	AppendFrame = appendFrame
	ReadFrame   = readFrame
)

const GrowStep = growStep

// FakeClock is the injected time of this package's tests: it moves only
// when Advance is called, and lets a test wait — without sleeping — until
// the code under test has armed a timer.
type FakeClock struct {
	mu     sync.Mutex
	cond   *sync.Cond
	now    time.Duration
	timers []*fakeTimer
	armed  int // NewTimer calls so far
}

type fakeTimer struct {
	at time.Duration
	ch chan time.Time
}

// UseFakeClock installs a FakeClock for the rest of the test. Register
// Close calls after it: cleanups run last-in first-out, and the real clock
// must come back only once every connection's goroutines are gone.
func UseFakeClock(t *testing.T) *FakeClock {
	f := &FakeClock{now: time.Hour}
	f.cond = sync.NewCond(&f.mu)
	prev := clk
	clk = f
	t.Cleanup(func() { clk = prev })
	return f
}

func (f *FakeClock) Now() time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *FakeClock) NewTimer(at time.Duration) (<-chan time.Time, func() bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	t := &fakeTimer{at: at, ch: make(chan time.Time, 1)}
	if at <= f.now {
		t.ch <- time.Time{} // already due
	} else {
		f.timers = append(f.timers, t)
	}
	f.armed++
	f.cond.Broadcast()
	return t.ch, func() bool { return f.stop(t) }
}

func (f *FakeClock) stop(t *fakeTimer) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, u := range f.timers {
		if u == t {
			f.timers = append(f.timers[:i], f.timers[i+1:]...)
			return true
		}
	}
	return false
}

// Armed reports how many timers have been armed so far.
func (f *FakeClock) Armed() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.armed
}

// WaitArmed blocks until at least n timers have been armed.
func (f *FakeClock) WaitArmed(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for f.armed < n {
		f.cond.Wait()
	}
}

// Advance moves time forward by d and fires every timer that came due.
func (f *FakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.now += d
	kept := f.timers[:0]
	for _, t := range f.timers {
		if t.at <= f.now {
			t.ch <- time.Time{}
		} else {
			kept = append(kept, t)
		}
	}
	f.timers = kept
}
