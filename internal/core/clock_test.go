package core

import (
	"slices"
	"sync"
	"testing"
	"time"

	"bioopera/internal/ocr"
	"bioopera/internal/sim"
	"bioopera/internal/store"
)

// testClock is a sim.Clock for bare-engine tests: it stands still until the
// test calls Advance, which runs the timers that came due, in deadline
// order, on the test's goroutine.
type testClock struct {
	mu     sync.Mutex
	now    sim.Time
	timers []*testTimer
}

type testTimer struct {
	c  *testClock
	at sim.Time
	f  func()
}

func (c *testClock) Now() sim.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *testClock) AtFunc(at sim.Time, f func()) sim.Stopper {
	t := &testTimer{c: c, at: at, f: f}
	c.mu.Lock()
	c.timers = append(c.timers, t)
	c.mu.Unlock()
	return t
}

func (t *testTimer) Stop() bool {
	c := t.c
	c.mu.Lock()
	defer c.mu.Unlock()
	i := slices.Index(c.timers, t)
	if i >= 0 {
		c.timers = slices.Delete(c.timers, i, i+1)
	}
	return i >= 0
}

// Advance moves the clock d forward, one due timer at a time, so a timer a
// fired one arms is run too if it falls due by then.
func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	end := c.now.Add(d)
	for {
		i := -1
		for j, t := range c.timers {
			if t.at <= end && (i < 0 || t.at < c.timers[i].at) {
				i = j
			}
		}
		if i < 0 {
			break
		}
		t := c.timers[i]
		c.timers = slices.Delete(c.timers, i, i+1)
		c.now = max(c.now, t.at)
		c.mu.Unlock()
		t.f()
		c.mu.Lock()
	}
	c.now = end
	c.mu.Unlock()
}

// TestTimeoutFiresOnEngineClock: a bare engine arms TIMEOUT on its
// Options.Clock. The attempt is killed when that clock reaches the deadline,
// task-timeout carries that time, and the retry — armed from then — finishes
// and cancels its own timer. The clock moves only when the test moves it.
func TestTimeoutFiresOnEngineClock(t *testing.T) {
	clock := &testClock{}
	x := &windowExec{running: make(map[string]string)}
	log := &eventLog{}
	e, err := New(Options{Store: store.NewMem(), Library: testLibrary(t), Executor: x,
		Clock: clock, OnEvent: log.add})
	if err != nil {
		t.Fatal(err)
	}
	x.e = e
	if err := e.RegisterTemplateSource(`
PROCESS Slow {
  INPUT x;
  OUTPUT r;
  ACTIVITY A { CALL test.echo(x = x); OUT out; MAP out -> r; TIMEOUT 60; }
}`); err != nil {
		t.Fatal(err)
	}
	id, err := e.StartProcess("Slow", map[string]ocr.Value{"x": ocr.Num(7)}, StartOptions{})
	if err != nil {
		t.Fatal(err)
	}
	timeouts := func() (at []sim.Time) {
		log.mu.Lock()
		defer log.mu.Unlock()
		for _, ev := range log.evs {
			if ev.Kind == EvTaskTimeout {
				at = append(at, ev.At)
			}
		}
		return at
	}

	clock.Advance(59 * time.Second)
	if got := timeouts(); len(got) != 0 {
		t.Fatalf("TIMEOUT 60 fired at %v, before the clock reached it", got)
	}
	clock.Advance(time.Second)
	if got, want := timeouts(), []sim.Time{sim.Time(time.Minute)}; !slices.Equal(got, want) {
		t.Fatalf("task-timeout at %v, want %v", got, want)
	}
	if want := []string{"A", "A"}; !slices.Equal(x.launched, want) {
		t.Fatalf("launched %v, want %v: the timed-out attempt is retried", x.launched, want)
	}

	x.finishAll()
	clock.Advance(time.Hour)
	if got := timeouts(); len(got) != 1 {
		t.Fatalf("task-timeout at %v: the finished retry's timer was not cancelled", got)
	}
	st, out, err := e.InstanceState(id)
	if err != nil || st != InstanceDone || out["r"].AsNum() != 7 {
		t.Fatalf("instance %s, outputs %v, err %v; want done with r = 7", st, out, err)
	}
}
