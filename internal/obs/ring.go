package obs

import (
	"sync"
	"time"
)

// RingEvent is one published event held in the ring, tagged with a
// monotonically increasing sequence number so tailing clients can resume.
// Data is the event as published; /api/events renders it with
// encoding/json when it is read.
type RingEvent struct {
	Seq  uint64 `json:"seq"`
	Data any    `json:"data"`
}

// Ring is a bounded buffer of recent events for live tailing. Publish
// overwrites the oldest entry when full and never waits for readers, so a
// stalled subscriber can never block the engine's emit path; the reader
// instead learns how many events it missed.
type Ring struct {
	mu   sync.Mutex
	cond *sync.Cond
	buf  []RingEvent // circular; buf[(seq-1) % len] holds event seq
	n    int         // entries filled, ≤ len(buf)
	last uint64      // newest published sequence number (0 = none)
}

// NewRing returns a ring holding the last size events (minimum 1).
func NewRing(size int) *Ring {
	if size < 1 {
		size = 1
	}
	r := &Ring{buf: make([]RingEvent, size)}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// Publish appends one event; the ring keeps data as it is, so the caller
// must not change what it shares. Safe on a nil receiver; never blocks on
// readers.
func (r *Ring) Publish(data any) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.last++
	r.buf[int((r.last-1)%uint64(len(r.buf)))] = RingEvent{Seq: r.last, Data: data}
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
	r.cond.Broadcast()
}

// Last returns the newest published sequence number (0 = nothing yet).
func (r *Ring) Last() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.last
}

// Since returns up to max events with Seq > after (max ≤ 0 = no limit),
// plus the number of requested events already overwritten.
func (r *Ring) Since(after uint64, max int) (evs []RingEvent, dropped uint64) {
	if r == nil {
		return nil, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sinceLocked(after, max)
}

func (r *Ring) sinceLocked(after uint64, max int) ([]RingEvent, uint64) {
	if r.n == 0 || r.last <= after {
		return nil, 0
	}
	start := after + 1
	oldest := r.last - uint64(r.n) + 1
	var dropped uint64
	if start < oldest {
		dropped = oldest - start
		start = oldest
	}
	count := int(r.last - start + 1)
	if max > 0 && count > max {
		count = max
	}
	evs := make([]RingEvent, 0, count)
	for seq := start; seq < start+uint64(count); seq++ {
		evs = append(evs, r.buf[int((seq-1)%uint64(len(r.buf)))])
	}
	return evs, dropped
}

// WaitSince is the long-poll form of Since: when no event newer than after
// exists yet, it blocks up to timeout for one to arrive. The deadline is
// real time by nature — it paces an external HTTP client, not the
// simulation — hence the walltime suppression.
func (r *Ring) WaitSince(after uint64, max int, timeout time.Duration) ([]RingEvent, uint64) {
	if r == nil {
		return nil, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if evs, d := r.sinceLocked(after, max); len(evs) > 0 {
		return evs, d
	}
	expired := false
	//bioopera:allow walltime long-poll deadline paces an external HTTP client, not the simulation
	t := time.AfterFunc(timeout, func() {
		r.mu.Lock()
		expired = true
		r.mu.Unlock()
		r.cond.Broadcast()
	})
	defer t.Stop()
	for {
		evs, d := r.sinceLocked(after, max)
		if len(evs) > 0 || expired {
			return evs, d
		}
		r.cond.Wait()
	}
}
