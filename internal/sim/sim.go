// Package sim provides a deterministic discrete-event simulation kernel.
//
// All BioOpera experiments replay week-long cluster lifecycles on a virtual
// clock. The kernel is a classic event-heap simulator: callers schedule
// events at absolute virtual times, Run pops them in time order and invokes
// their handlers, and handlers may schedule further events. Determinism is
// guaranteed by (a) a total order on events (time, then insertion sequence)
// and (b) seeded random streams obtained from the simulation itself.
package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"time"
)

// Time is a point in virtual time, measured as a duration since the start
// of the simulation. Virtual time has no relation to the wall clock.
type Time time.Duration

// Duration re-exports time.Duration for readability at call sites.
type Duration = time.Duration

// String formats the time as a duration since simulation start.
func (t Time) String() string { return time.Duration(t).String() }

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration between t and u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Days returns the time expressed in fractional days, the unit used by the
// paper's lifecycle figures.
func (t Time) Days() float64 { return time.Duration(t).Hours() / 24 }

// Handler is the callback attached to a scheduled event.
type Handler func(now Time)

// event is one entry in the simulation agenda.
type event struct {
	at      Time
	seq     uint64 // tie-break so equal-time events fire in schedule order
	fn      Handler
	stopped *bool // non-nil when cancellable
	index   int
}

// eventQueue is a binary heap ordered by (at, seq).
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *eventQueue) Push(x any) {
	ev := x.(*event)
	ev.index = len(*q)
	*q = append(*q, ev)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

// Sim is a discrete-event simulator. The zero value is not usable; use New.
// Sim is not safe for concurrent use: the whole point is that everything
// runs in one deterministic loop.
type Sim struct {
	now     Time
	queue   eventQueue
	seq     uint64
	rng     *rand.Rand
	stopped bool
	steps   uint64
	maxStep uint64
}

// New returns a simulator whose random streams derive from seed.
func New(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// Rand returns the simulator's deterministic random source.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// SetStepLimit bounds the number of events Run may execute; 0 means
// unlimited. It exists as a runaway-loop backstop for tests.
func (s *Sim) SetStepLimit(n uint64) { s.maxStep = n }

// At schedules fn to run at absolute virtual time at. Scheduling in the
// past (before Now) is an error that indicates a model bug, so it panics.
func (s *Sim) At(at Time, fn Handler) {
	if at < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, s.now))
	}
	s.seq++
	heap.Push(&s.queue, &event{at: at, seq: s.seq, fn: fn})
}

// After schedules fn to run d after the current time. Negative d panics.
func (s *Sim) After(d Duration, fn Handler) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	s.At(s.now.Add(d), fn)
}

// Timer is a handle for a cancellable scheduled event.
type Timer struct{ stopped *bool }

// Stop cancels the timer. It is safe to call more than once, and after the
// event has fired (in which case it has no effect).
func (t *Timer) Stop() {
	if t.stopped != nil {
		*t.stopped = true
	}
}

// AfterCancel schedules fn like After and returns a Timer that can cancel it.
func (s *Sim) AfterCancel(d Duration, fn Handler) *Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	stopped := new(bool)
	s.seq++
	heap.Push(&s.queue, &event{at: s.now.Add(d), seq: s.seq, fn: fn, stopped: stopped})
	return &Timer{stopped: stopped}
}

// Every schedules fn to run now+d, then every d thereafter, until the
// returned Timer is stopped or the simulation ends.
func (s *Sim) Every(d Duration, fn Handler) *Timer {
	if d <= 0 {
		panic(fmt.Sprintf("sim: non-positive period %v", d))
	}
	stopped := new(bool)
	var tick Handler
	tick = func(now Time) {
		fn(now)
		if !*stopped && !s.stopped {
			s.seq++
			heap.Push(&s.queue, &event{at: now.Add(d), seq: s.seq, fn: tick, stopped: stopped})
		}
	}
	s.seq++
	heap.Push(&s.queue, &event{at: s.now.Add(d), seq: s.seq, fn: tick, stopped: stopped})
	return &Timer{stopped: stopped}
}

// Stop makes Run return after the current event completes. Pending events
// are discarded.
func (s *Sim) Stop() { s.stopped = true }

// Run executes events in time order until the agenda is empty, Stop is
// called, or the step limit is hit. It returns the final virtual time.
func (s *Sim) Run() Time {
	s.stopped = false
	for len(s.queue) > 0 && !s.stopped {
		if s.maxStep > 0 && s.steps >= s.maxStep {
			break
		}
		ev := heap.Pop(&s.queue).(*event)
		if ev.stopped != nil && *ev.stopped {
			continue
		}
		s.now = ev.at
		s.steps++
		ev.fn(ev.at)
	}
	return s.now
}

// RunUntil executes events with time ≤ deadline, then advances the clock to
// exactly deadline (even if no event fired there) and returns.
func (s *Sim) RunUntil(deadline Time) Time {
	s.stopped = false
	for len(s.queue) > 0 && !s.stopped {
		if s.maxStep > 0 && s.steps >= s.maxStep {
			break
		}
		if s.queue[0].at > deadline {
			break
		}
		ev := heap.Pop(&s.queue).(*event)
		if ev.stopped != nil && *ev.stopped {
			continue
		}
		s.now = ev.at
		s.steps++
		ev.fn(ev.at)
	}
	if s.now < deadline {
		s.now = deadline
	}
	return s.now
}

// Pending reports the number of events still on the agenda (including
// cancelled ones not yet reaped).
func (s *Sim) Pending() int { return len(s.queue) }
