// The wall clock is the real time behind Clock: the real-time runtimes and
// the transport take their time from it.
//bioopera:allow walltime file-wide: the real clock behind the Clock interface; the simulator's runs never read it

package sim

import "time"

// NewWall returns the machine's monotonic clock, reading zero now. Each
// real-time runtime takes its own, so the event times it journals count
// from its own start, not the process's: a runtime built late in a long
// process writes the same short varints as the first one.
func NewWall() Clock { return wallClock{origin: time.Now()} }

type wallClock struct{ origin time.Time }

func (w wallClock) Now() Time { return Time(time.Since(w.origin)) }

func (w wallClock) AtFunc(at Time, f func()) Stopper {
	return time.AfterFunc(at.Sub(w.Now()), f)
}
