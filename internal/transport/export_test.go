package transport

import (
	"sync"
	"testing"
	"time"

	"bioopera/internal/sim"
)

// The frame codec, for the external test package's fuzz target.
var (
	AppendFrame = appendFrame
	ReadFrame   = readFrame
)

const GrowStep = growStep

// FakeClock is the injected time of this package's tests: it moves only
// when Advance is called, and lets a test wait — without sleeping — until
// the code under test has armed a timer. Due timers run on the goroutine
// that armed or advanced past them. internal/fed's tests keep a copy
// (fakeClock in gateway_test.go); change both together.
type FakeClock struct {
	mu     sync.Mutex
	cond   *sync.Cond
	now    sim.Time
	timers []*fakeTimer
	armed  int // AtFunc calls so far
}

type fakeTimer struct {
	c  *FakeClock
	at sim.Time
	f  func()
}

// UseFakeClock installs a FakeClock for the rest of the test. Register
// Close calls after it: cleanups run last-in first-out, and the real clock
// must come back only once every connection's goroutines are gone.
func UseFakeClock(t *testing.T) *FakeClock {
	f := &FakeClock{now: sim.Time(time.Hour)}
	f.cond = sync.NewCond(&f.mu)
	prev := clk
	clk = f
	t.Cleanup(func() { clk = prev })
	return f
}

func (f *FakeClock) Now() sim.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *FakeClock) AtFunc(at sim.Time, fn func()) sim.Stopper {
	t := &fakeTimer{c: f, at: at, f: fn}
	f.mu.Lock()
	due := at <= f.now
	if !due {
		f.timers = append(f.timers, t)
	}
	f.armed++
	f.cond.Broadcast()
	f.mu.Unlock()
	if due {
		fn()
	}
	return t
}

func (t *fakeTimer) Stop() bool {
	f := t.c
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

// Advance moves time forward by d and runs every timer that came due.
func (f *FakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d)
	var due []*fakeTimer
	kept := f.timers[:0]
	for _, t := range f.timers {
		if t.at <= f.now {
			due = append(due, t)
		} else {
			kept = append(kept, t)
		}
	}
	f.timers = kept
	f.mu.Unlock()
	for _, t := range due {
		t.f()
	}
}
