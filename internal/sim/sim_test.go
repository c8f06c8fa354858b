package sim

import (
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestRunEmpty(t *testing.T) {
	s := New(1)
	if got := s.Run(); got != 0 {
		t.Fatalf("Run on empty agenda = %v, want 0", got)
	}
}

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var order []int
	s.At(30*Time(time.Second), func(Time) { order = append(order, 3) })
	s.At(10*Time(time.Second), func(Time) { order = append(order, 1) })
	s.At(20*Time(time.Second), func(Time) { order = append(order, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEqualTimeFIFO(t *testing.T) {
	s := New(1)
	var order []int
	at := Time(5 * time.Second)
	for i := 0; i < 10; i++ {
		i := i
		s.At(at, func(Time) { order = append(order, i) })
	}
	s.Run()
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("equal-time events not FIFO: %v", order)
		}
	}
}

func TestAfterAdvancesClock(t *testing.T) {
	s := New(1)
	var seen Time
	s.After(time.Minute, func(now Time) {
		seen = now
		s.After(time.Hour, func(now Time) { seen = now })
	})
	end := s.Run()
	want := Time(time.Minute + time.Hour)
	if seen != want || end != want {
		t.Fatalf("seen=%v end=%v, want %v", seen, end, want)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New(1)
	s.After(time.Hour, func(Time) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(Time(time.Minute), func(Time) {})
	})
	s.Run()
}

func TestNegativeAfterPanics(t *testing.T) {
	s := New(1)
	defer func() {
		if recover() == nil {
			t.Error("negative After did not panic")
		}
	}()
	s.After(-time.Second, func(Time) {})
}

// TestTimerStop: an AtFunc timer fires at its absolute deadline, or at Now
// if that has passed. Stop reports whether it kept a pending timer from
// firing, and a stopped timer neither fires nor moves the clock.
func TestTimerStop(t *testing.T) {
	s := New(1)
	var fired []Time
	var late Stopper
	s.AtFunc(Time(time.Minute), func() {
		fired = append(fired, s.Now())
		late = s.AtFunc(0, func() { fired = append(fired, s.Now()) })
	})
	tm := s.AtFunc(Time(time.Hour), func() { t.Error("cancelled timer fired") })
	if !tm.Stop() || tm.Stop() {
		t.Fatal("Stop on a pending timer must report true once, then false")
	}
	end := s.Run()
	if want := []Time{Time(time.Minute), Time(time.Minute)}; !slices.Equal(fired, want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
	if end != Time(time.Minute) {
		t.Fatalf("Run ended at %v: a stopped timer moved the clock", end)
	}
	if late.Stop() {
		t.Fatal("Stop on a fired timer reported true")
	}
}

func TestEvery(t *testing.T) {
	s := New(1)
	var ticks []Time
	var tm Stopper
	tm = s.Every(10*time.Second, func(now Time) {
		ticks = append(ticks, now)
		if len(ticks) == 3 {
			tm.Stop()
		}
	})
	s.Run()
	if len(ticks) != 3 {
		t.Fatalf("got %d ticks, want 3", len(ticks))
	}
	for i, tk := range ticks {
		want := Time((i + 1) * 10 * int(time.Second))
		if tk != want {
			t.Fatalf("tick %d at %v, want %v", i, tk, want)
		}
	}
}

func TestEveryNonPositivePanics(t *testing.T) {
	s := New(1)
	defer func() {
		if recover() == nil {
			t.Error("Every(0) did not panic")
		}
	}()
	s.Every(0, func(Time) {})
}

func TestStop(t *testing.T) {
	s := New(1)
	ran := 0
	s.After(time.Second, func(Time) { ran++; s.Stop() })
	s.After(2*time.Second, func(Time) { ran++ })
	s.Run()
	if ran != 1 {
		t.Fatalf("ran %d events after Stop, want 1", ran)
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", s.Pending())
	}
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	var fired []Time
	for _, d := range []Duration{time.Second, 3 * time.Second, 10 * time.Second} {
		s.After(d, func(now Time) { fired = append(fired, now) })
	}
	end := s.RunUntil(Time(5 * time.Second))
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if end != Time(5*time.Second) {
		t.Fatalf("RunUntil end = %v, want 5s", end)
	}
	// Resuming picks up the rest.
	s.Run()
	if len(fired) != 3 {
		t.Fatalf("after resume fired %d events, want 3", len(fired))
	}
}

func TestStepLimit(t *testing.T) {
	s := New(1)
	s.SetStepLimit(5)
	n := 0
	var loop Handler
	loop = func(Time) {
		n++
		s.After(time.Second, loop)
	}
	s.After(time.Second, loop)
	s.Run()
	if n != 5 {
		t.Fatalf("executed %d events, want 5 (step limit)", n)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		s := New(42)
		var out []int64
		for i := 0; i < 50; i++ {
			d := Duration(s.Rand().Intn(1000)) * time.Millisecond
			s.After(d, func(now Time) { out = append(out, int64(now)) })
		}
		s.Run()
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("runs differ in length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestDays(t *testing.T) {
	tm := Time(36 * time.Hour)
	if got := tm.Days(); got != 1.5 {
		t.Fatalf("Days = %v, want 1.5", got)
	}
}

// Property: for any set of non-negative delays, Run visits events in
// non-decreasing time order and ends at the max delay.
func TestRunOrderProperty(t *testing.T) {
	f := func(delays []uint32) bool {
		s := New(7)
		var visited []Time
		var max Time
		for _, d := range delays {
			at := Time(Duration(d%1_000_000) * time.Millisecond)
			if at > max {
				max = at
			}
			s.At(at, func(now Time) { visited = append(visited, now) })
		}
		end := s.Run()
		for i := 1; i < len(visited); i++ {
			if visited[i] < visited[i-1] {
				return false
			}
		}
		return len(delays) == 0 || end == max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
