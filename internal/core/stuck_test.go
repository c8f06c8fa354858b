package core

import (
	"errors"
	"slices"
	"testing"

	"bioopera/internal/ocr"
	"bioopera/internal/store"
)

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
// TestLostSlotRacePumpsAgain reached before the fix — and checks that Check
// names it RuleStuck, and names nothing once a pump has placed the job.
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
	if e.QueueLen() != 1 || e.HeldJobs() != 0 || e.RunningJobs() != 0 {
		t.Fatalf("queue=%d held=%d running=%d, want the hang's 1 0 0", e.QueueLen(), e.HeldJobs(), e.RunningJobs())
	}
	if got, want := rulesOf(e.Check()), []string{id + ":" + RuleStuck}; !slices.Equal(got, want) {
		t.Fatalf("Check = %v on the hang it was written for, want %v", got, want)
	}
	e.Pump()
	requireClean(t, "a job running", e.Check())
	for len(x.pending) > 0 {
		l := x.runNext(e)
		requireClean(t, string(l.Job)+" completed", e.Check())
	}
	if st, _, _ := e.InstanceState(id); st != InstanceDone {
		t.Fatalf("instance is %s", st)
	}
}
