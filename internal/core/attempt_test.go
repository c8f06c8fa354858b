package core

import (
	"testing"

	"bioopera/internal/cluster"
	"bioopera/internal/ocr"
	"bioopera/internal/store"
)

// An attempt lives in its task (DESIGN §4 "The runtime layer"): a dispatch
// attempt is the taskState's own queuedRef, only enqueue and putBack put a
// job in the queue, and the drain takes its cluster view into the engine's
// one buffer. These tests pin that by what it costs and by Check.

// requeuedAttemptAllocs bounds one requeued dispatch attempt, measured at
// 2.02: the node fails under the running job (a completion turn, the new
// attempt's job ID and its event's detail), and the relaunch loses its slot
// (the unlaunch turn puts the same attempt back) before it launches. A
// queuedRef built on the heap costs one more, and so does a cluster view
// taken outside the engine's buffer, per drain.
const requeuedAttemptAllocs = 2.5

// requeueExec is a one-slot executor that refuses its next refuse launches
// with ErrNoFreeCPU, as a slot lost to a concurrent drain does, shows its
// slot taken while busy, and holds the launches it takes for the test to
// fail or finish.
type requeueExec struct {
	refuse  int
	busy    bool
	running []Launch
}

func (x *requeueExec) AppendNodes(dst []cluster.NodeView) []cluster.NodeView {
	running := len(x.running)
	if x.busy {
		running = 1
	}
	return append(dst, cluster.NodeView{Name: "n1", Up: true, CPUs: 1, Speed: 1, Running: running})
}

func (x *requeueExec) Launch(l Launch) error {
	if x.refuse > 0 {
		x.refuse--
		return cluster.ErrNoFreeCPU
	}
	x.running = append(x.running, l)
	return nil
}

func (x *requeueExec) Kill(cluster.JobID, string) error { return nil }

// TestRequeuedAttemptAllocs: a chain's running step is requeued over and
// over, each time through both requeue paths — a failed node's new attempt
// (enqueue), which waits in the queue while the slot is taken, and a lost
// slot's same attempt (putBack) — and Check finds the engine clean at every
// step. What one requeue costs is read as the difference between 2n of them
// and n.
func TestRequeuedAttemptAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector; allocation budgets do not hold")
	}
	x := &requeueExec{}
	e, err := New(Options{Store: store.NewMem(), Library: incLibrary(t, 0), Executor: x, Clock: &testClock{}})
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
	check := func(step string) {
		if vs := e.Check(); len(vs) > 0 {
			t.Fatalf("%s: %v", step, vs)
		}
	}
	requeue := func() {
		l := x.running[0]
		x.running, x.busy = x.running[:0], true
		e.HandleCompletion(cluster.Completion{Job: l.Job, Node: l.Node, Err: cluster.ErrNodeFailed})
		if e.QueueLen() != 1 {
			t.Fatalf("the failed step is not queued behind the taken slot: queue = %d", e.QueueLen())
		}
		check("requeued")
		x.busy, x.refuse = false, 1
		e.Pump()
		if len(x.running) != 1 || x.refuse != 0 {
			t.Fatalf("after a requeue: %d launches held, %d refusals left; want the step relaunched once refused", len(x.running), x.refuse)
		}
		check("relaunched")
	}
	requeues := func(n int) func() {
		return func() {
			for range n {
				requeue()
			}
		}
	}
	const n = 50
	requeues(2 * n)() // warm the pools and the engine's maps
	per := (testing.AllocsPerRun(5, requeues(2*n)) - testing.AllocsPerRun(5, requeues(n))) / n
	t.Logf("one requeued attempt = %.2f allocs", per)
	if per > requeuedAttemptAllocs {
		t.Errorf("one requeued attempt = %.2f allocs, want <= %.1f", per, requeuedAttemptAllocs)
	}
	for len(x.running) > 0 {
		l := x.running[0]
		x.running = x.running[1:]
		e.HandleCompletion(cluster.Completion{Job: l.Job, Node: l.Node})
	}
	if st, out, _ := e.InstanceState(id); st != InstanceDone || out["r"].AsNum() != 5 {
		t.Fatalf("instance is %s with r=%v, want done with 5", st, out["r"])
	}
	requireClean(t, "idle", e.Check())
}
