package obs

import (
	"testing"
	"time"
)

func fill(r *Ring, n int) {
	for i := 1; i <= n; i++ {
		r.Publish(i)
	}
}

// TestRingSince pins the tail semantics: resuming past the retained window
// reports how many events were overwritten.
func TestRingSince(t *testing.T) {
	r := NewRing(3)
	if evs, d := r.Since(0, 0); len(evs) != 0 || d != 0 {
		t.Fatalf("empty ring: %v %d", evs, d)
	}
	fill(r, 5) // retains 3,4,5
	evs, dropped := r.Since(0, 0)
	if dropped != 2 {
		t.Fatalf("dropped = %d, want 2", dropped)
	}
	if len(evs) != 3 || evs[0].Seq != 3 || evs[2].Seq != 5 {
		t.Fatalf("evs = %+v, want seqs 3..5", evs)
	}
	if evs[0].Data != 3 {
		t.Fatalf("payload = %v, want what was published", evs[0].Data)
	}
	// Resume from inside the window: no drops.
	evs, dropped = r.Since(4, 0)
	if dropped != 0 || len(evs) != 1 || evs[0].Seq != 5 {
		t.Fatalf("resume: %+v dropped=%d", evs, dropped)
	}
	// max bounds the batch.
	evs, _ = r.Since(0, 2)
	if len(evs) != 2 || evs[0].Seq != 3 || evs[1].Seq != 4 {
		t.Fatalf("max: %+v", evs)
	}
	// Caught up.
	if evs, d := r.Since(5, 0); len(evs) != 0 || d != 0 {
		t.Fatalf("caught up: %v %d", evs, d)
	}
	if r.Last() != 5 {
		t.Fatalf("last = %d", r.Last())
	}
}

// TestRingStalledSubscriber is the emit-path guarantee: a subscriber that
// blocks in WaitSince and never drains must not slow Publish. The
// publisher writes far more events than the ring holds and must finish
// promptly regardless of the reader.
func TestRingStalledSubscriber(t *testing.T) {
	r := NewRing(8)
	stalled := make(chan struct{})
	go func() {
		// The stalled reader parks on a future sequence it will only see
		// after the publisher is done.
		r.WaitSince(9999, 0, time.Minute)
		close(stalled)
	}()
	done := make(chan struct{})
	go func() {
		fill(r, 10001) // wraps the ring ~1250 times
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Publish blocked behind a stalled subscriber")
	}
	// Unblock the reader and confirm it observes the tail with drops.
	fill(r, 1)
	select {
	case <-stalled:
	case <-time.After(10 * time.Second):
		t.Fatal("WaitSince missed the wake-up broadcast")
	}
	evs, dropped := r.Since(0, 0)
	if len(evs) != 8 {
		t.Fatalf("retained %d events, want 8", len(evs))
	}
	if want := uint64(10002 - 8); dropped != want {
		t.Fatalf("dropped = %d, want %d", dropped, want)
	}
}

// TestWaitSince covers both long-poll outcomes: wake on publish, and a
// clean timeout with no events.
func TestWaitSince(t *testing.T) {
	r := NewRing(4)
	go func() {
		time.Sleep(10 * time.Millisecond)
		r.Publish(struct{}{})
	}()
	evs, _ := r.WaitSince(0, 0, 5*time.Second)
	if len(evs) != 1 || evs[0].Seq != 1 {
		t.Fatalf("wake: %+v", evs)
	}
	// Already-available events return without waiting.
	start := time.Now()
	if evs, _ := r.WaitSince(0, 0, time.Minute); len(evs) != 1 {
		t.Fatalf("immediate: %+v", evs)
	} else if time.Since(start) > 5*time.Second {
		t.Fatalf("immediate WaitSince blocked")
	}
	// Timeout path.
	evs, dropped := r.WaitSince(1, 0, 20*time.Millisecond)
	if len(evs) != 0 || dropped != 0 {
		t.Fatalf("timeout: %+v %d", evs, dropped)
	}
}
