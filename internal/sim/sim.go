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

// Clock is the one source of time for the engine, its runtimes and the
// transport. *Sim implements it on virtual time and NewWall's clock on the
// machine's monotonic clock, so the same code runs replayable on the
// simulator and in real time everywhere else.
type Clock interface {
	// Now reads the clock; only differences between readings mean anything.
	Now() Time
	// AtFunc arranges for f to run once when the clock reaches at — as soon
	// as it can if it already has — and returns the timer's stop. The
	// deadline is absolute so that a clock advancing between a caller's Now
	// and its AtFunc cannot push the deadline out. f runs where the clock
	// runs its timers: on the event loop for *Sim, on a goroutine of its own
	// for the wall clock.
	AtFunc(at Time, f func()) Stopper
}

// Stopper cancels a timer AtFunc armed; *time.Timer is one.
type Stopper interface {
	// Stop keeps the timer from firing and reports whether it did: false
	// once it has fired or was stopped before.
	Stop() bool
}

// Handler is the callback attached to a scheduled event.
type Handler func(now Time)

// event is one entry in the simulation agenda.
type event struct {
	at    Time
	seq   uint64 // tie-break so equal-time events fire in schedule order
	fn    Handler
	timer *timer // nil unless cancellable
	index int
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
	s.push(at, fn, nil)
}

// After schedules fn to run d after the current time. Negative d panics.
func (s *Sim) After(d Duration, fn Handler) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	s.At(s.now.Add(d), fn)
}

// timer is the Stopper of a cancellable event: Run skips an event whose
// timer is stopped.
type timer struct{ stopped bool }

// Stop implements Stopper.
func (t *timer) Stop() bool {
	pending := !t.stopped
	t.stopped = true
	return pending
}

// AtFunc implements Clock: f runs as the event at at, or at Now if at has
// already passed. Firing stops the timer, so a later Stop reports false.
func (s *Sim) AtFunc(at Time, f func()) Stopper {
	t := &timer{}
	s.push(max(at, s.now), func(Time) {
		t.stopped = true
		f()
	}, t)
	return t
}

// Every schedules fn to run now+d, then every d thereafter, until the
// returned timer is stopped or the simulation ends.
func (s *Sim) Every(d Duration, fn Handler) Stopper {
	if d <= 0 {
		panic(fmt.Sprintf("sim: non-positive period %v", d))
	}
	t := &timer{}
	var tick Handler
	tick = func(now Time) {
		fn(now)
		if !t.stopped && !s.stopped {
			s.push(now.Add(d), tick, t)
		}
	}
	s.push(s.now.Add(d), tick, t)
	return t
}

// push puts an event on the agenda; t is nil for one that cannot be
// cancelled.
func (s *Sim) push(at Time, fn Handler, t *timer) {
	s.seq++
	heap.Push(&s.queue, &event{at: at, seq: s.seq, fn: fn, timer: t})
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
		if ev.timer != nil && ev.timer.stopped {
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
		if ev.timer != nil && ev.timer.stopped {
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
