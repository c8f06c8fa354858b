package core

import (
	"errors"
	"testing"

	"bioopera/internal/ocr"
	"bioopera/internal/sched"
	"bioopera/internal/store"
)

// stuck is the liveness invariant of ROADMAP item 1(d) as a predicate on one
// instance: it is running, yet nothing will ever move it — none of its jobs is
// running, it waits for no signal, no turn of it is open (no attached write
// set) or still committing (idle commit gate), and either nothing of it is
// queued or a free slot could take what is, so the queue is not what it waits
// for either. The second half is what the 1-in-50,000 hang looked like.
func stuck(e *Engine, in *Instance) bool {
	mu := e.shardFor(in.ID)
	mu.Lock()
	defer mu.Unlock()
	if in.Status != InstanceRunning || in.writes != nil {
		return false
	}
	for _, parked := range in.waiting {
		if len(parked) > 0 {
			return false
		}
	}
	in.gateMu.Lock()
	committing := in.ckptDone != in.ckptSeq
	in.gateMu.Unlock()
	if committing {
		return false
	}
	e.dmu.Lock()
	defer e.dmu.Unlock()
	for _, ref := range e.running {
		if ref.inst == in {
			return false
		}
	}
	policy := e.opts.Policy
	if policy == nil {
		policy = sched.LeastLoaded{}
	}
	nodes := e.opts.Executor.AppendNodes(nil)
	queued := false
	for _, ref := range e.queued {
		if ref.inst != in {
			continue
		}
		queued = true
		if _, ok := policy.Pick(ref.job, nodes); ok {
			return true
		}
	}
	return !queued
}

// assertNoneStuck checks the invariant for every instance of an engine at
// idle.
func assertNoneStuck(t *testing.T, e *Engine) {
	t.Helper()
	for _, in := range e.Instances() {
		if stuck(e, in) {
			t.Errorf("instance %s is stuck: %s with queue=%d held=%d running=%d",
				in.ID, in.Status, e.QueueLen(), e.HeldJobs(), e.RunningJobs())
		}
	}
}

// closedOnceExec is lostRaceExec with the one difference that made the hang:
// its first Launch fails for a reason dispatch does not pump again for, so the
// job goes back to the queue and the drain just stops.
type closedOnceExec struct{ lostRaceExec }

func (x *closedOnceExec) Launch(l Launch) error {
	if x.lostRaceExec.Launch(l) != nil {
		return errors.New("executor closed")
	}
	return nil
}

// TestStuckNamesTheLostSlotHang builds the hang's signature by hand — one job
// queued, none held, none running, a slot free, nobody left to pump: the state
// TestLostSlotRacePumpsAgain reached before the fix — and checks that the
// predicate names it, and stops naming it once a pump has placed the job.
func TestStuckNamesTheLostSlotHang(t *testing.T) {
	x := &closedOnceExec{}
	e, err := New(Options{Store: store.NewMem(), Library: incLibrary(t, 0), Executor: x,
		Clock: &testClock{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterTemplateSource(chainSrc); err != nil {
		t.Fatal(err)
	}
	id, err := e.StartProcess("Chain", map[string]ocr.Value{"x": ocr.Num(0)}, StartOptions{})
	if err != nil {
		t.Fatal(err)
	}
	in, _ := e.Instance(id)
	if e.QueueLen() != 1 || e.HeldJobs() != 0 || e.RunningJobs() != 0 {
		t.Fatalf("queue=%d held=%d running=%d, want the hang's 1 0 0", e.QueueLen(), e.HeldJobs(), e.RunningJobs())
	}
	if !stuck(e, in) {
		t.Fatal("stuck does not name the hang it was written for")
	}
	e.Pump()
	if stuck(e, in) {
		t.Fatal("stuck with a job running")
	}
	for len(x.pending) > 0 {
		if l := x.runNext(e); stuck(e, in) {
			t.Fatalf("stuck after %s completed", l.Job)
		}
	}
	if st, _, _ := e.InstanceState(id); st != InstanceDone {
		t.Fatalf("instance is %s", st)
	}
	assertNoneStuck(t, e)
}
