package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bioopera/internal/cluster"
	"bioopera/internal/ocr"
	"bioopera/internal/store"
)

// These tests cover the write-ahead rule of dispatch: a job launches only
// after the batch that records it running has returned, and what lands
// between that commit and the launch — a kill, a crash, a fence — is dealt
// with before anything runs.

// durableStore notes every job whose running task record a Batch committed,
// once that Batch has returned.
type durableStore struct {
	store.Store
	mu      sync.Mutex
	batches int
	durable map[string]bool
}

func (s *durableStore) Batch(ops []store.Op) error {
	if registration(ops) {
		return s.Store.Batch(ops)
	}
	err := s.Store.Batch(ops)
	var running []string
	for _, op := range ops {
		if op.Delete || op.Space != store.Instance || !strings.HasPrefix(op.Key, "task/") {
			continue
		}
		var ts taskState
		if decodeTaskRecord(op.Value, &ts) == nil && ts.Status == TaskRunning {
			running = append(running, ts.Job)
		}
	}
	s.mu.Lock()
	s.batches++
	for _, job := range running {
		if err == nil {
			s.durable[job] = true
		}
	}
	s.mu.Unlock()
	return err
}

// launchChecker fails the test for every Launch of a job durableStore has not
// seen committed running.
type launchChecker struct {
	Executor
	t        *testing.T
	st       *durableStore
	launches atomic.Int64
}

func (x *launchChecker) Launch(l Launch) error {
	x.launches.Add(1)
	x.st.mu.Lock()
	durable := x.st.durable[string(l.Job)]
	x.st.mu.Unlock()
	if !durable {
		x.t.Errorf("job %s launched before the batch recording it running returned", l.Job)
	}
	return x.Executor.Launch(l)
}

// TestLaunchAfterCommit runs Chain8 instances one after another on the sim and
// the local runtime: every Launch comes after the Batch holding its job's
// running record has returned, and an instance costs chain8Turns batches —
// the dispatch of each step rides the turn that readied it.
func TestLaunchAfterCommit(t *testing.T) {
	const instances = 3
	check := func(t *testing.T, st *durableStore, x *launchChecker) {
		t.Helper()
		if got := x.launches.Load(); got != instances*8 {
			t.Errorf("%d launches, want %d", got, instances*8)
		}
		if st.batches != instances*chain8Turns {
			t.Errorf("%d batches for %d instances, want %d per instance", st.batches, instances, chain8Turns)
		}
	}
	t.Run("sim", func(t *testing.T) {
		st := &durableStore{Store: store.NewMem(), durable: make(map[string]bool)}
		rt := newRuntime(t, SimConfig{Store: st, Library: testLibrary(t)})
		x := &launchChecker{Executor: rt.Engine.opts.Executor, t: t, st: st}
		rt.Engine.opts.Executor = x
		register(t, rt, chain8Src)
		for i := 0; i < instances; i++ {
			id := start(t, rt, "Chain8", map[string]ocr.Value{"x": ocr.Num(float64(i))})
			rt.Run()
			finished(t, rt, id)
		}
		check(t, st, x)
	})
	t.Run("local", func(t *testing.T) {
		st := &durableStore{Store: store.NewMem(), durable: make(map[string]bool)}
		rt, err := NewLocalRuntime(LocalConfig{Workers: 2, Library: testLibrary(t), Store: st})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		x := &launchChecker{Executor: rt.Engine().opts.Executor, t: t, st: st}
		rt.Engine().opts.Executor = x
		if err := rt.RegisterTemplateSource(chain8Src); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < instances; i++ {
			id, err := rt.StartProcess("Chain8", map[string]ocr.Value{"x": ocr.Num(float64(i))}, StartOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if in, err := rt.Wait(id, 10*time.Second); err != nil || in.Status != InstanceDone {
				t.Fatalf("instance %s: %v", id, err)
			}
		}
		rt.Engine().QuiesceCheckpoints()
		check(t, st, x)
	})
}

// pairSrc readies two independent steps at once, so its start dispatches
// both in one turn and launches them one after the other.
const pairSrc = `
PROCESS Pair {
  INPUT x;
  OUTPUT a, b;
  ACTIVITY A { CALL test.echo(x = x); OUT out; MAP out -> a; }
  ACTIVITY B { CALL test.echo(x = x); OUT out; MAP out -> b; }
}
`

// windowExec is a two-node, one-slot-each executor whose first Launch runs a
// hook: the test's way into the window between a turn's commit and its
// launches — the hook runs while the first job is inside its Launch and the
// second is decided but not launched. Kill delivers the killed completion
// synchronously, as the simulated cluster does.
type windowExec struct {
	e        *Engine
	hook     func()
	launched []string
	running  map[string]string // job → node
}

func (x *windowExec) AppendNodes(dst []cluster.NodeView) []cluster.NodeView {
	for _, name := range []string{"n1", "n2"} {
		busy := 0
		for _, node := range x.running {
			if node == name {
				busy++
			}
		}
		dst = append(dst, cluster.NodeView{Name: name, Up: true, CPUs: 1, Speed: 1, Running: busy})
	}
	return dst
}

func (x *windowExec) Launch(l Launch) error {
	x.launched = append(x.launched, l.Ctx.Task)
	x.running[string(l.Job)] = l.Node
	if h := x.hook; h != nil {
		x.hook = nil
		h()
	}
	return nil
}

func (x *windowExec) Kill(id cluster.JobID, node string) error {
	if _, ok := x.running[string(id)]; !ok {
		return errors.New("not running")
	}
	delete(x.running, string(id))
	x.e.HandleCompletion(cluster.Completion{Job: id, Node: node, Err: cluster.ErrJobKilled})
	return nil
}

// finishAll completes every running job, in job order; the engine runs the
// programs itself.
func (x *windowExec) finishAll() {
	for len(x.running) > 0 {
		ids := make([]string, 0, len(x.running))
		for id := range x.running {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		node := x.running[ids[0]]
		delete(x.running, ids[0])
		x.e.HandleCompletion(cluster.Completion{Job: cluster.JobID(ids[0]), Node: node})
	}
}

// newWindowEngine starts a Pair on a windowExec whose first Launch runs hook
// (given the engine and the instance ID) and returns the engine, the executor,
// the instance and the events raised.
func newWindowEngine(t *testing.T, hook func(e *Engine, id string)) (*Engine, *windowExec, string, *eventLog) {
	t.Helper()
	x := &windowExec{running: make(map[string]string)}
	log := &eventLog{}
	e, err := New(Options{Store: store.NewMem(), Library: testLibrary(t), Executor: x,
		Clock: &testClock{}, OnEvent: log.add})
	if err != nil {
		t.Fatal(err)
	}
	x.e = e
	if err := e.RegisterTemplateSource(pairSrc); err != nil {
		t.Fatal(err)
	}
	const id = "pair"
	x.hook = func() { hook(e, id) }
	if _, err := e.StartProcess("Pair", map[string]ocr.Value{"x": ocr.Num(7)}, StartOptions{InstanceID: id}); err != nil {
		t.Fatal(err)
	}
	return e, x, id, log
}

// TestKillBetweenCommitAndLaunch: a Suspend or an Abort lands while the start's
// first job is inside its Launch and its second is decided but not launched.
// The second job is never launched; both tasks end exactly as a killed
// running job does — the same event, the same counters — and once the
// instance resumes it runs to the end with nothing stuck.
func TestKillBetweenCommitAndLaunch(t *testing.T) {
	for _, tc := range []struct {
		name string
		kill func(e *Engine, id string) error
		want InstanceStatus
	}{
		{"suspend", func(e *Engine, id string) error { return e.Suspend(id, false) }, InstanceSuspended},
		{"abort", func(e *Engine, id string) error { return e.Abort(id, "window") }, InstanceFailed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, x, id, log := newWindowEngine(t, func(e *Engine, id string) {
				if err := tc.kill(e, id); err != nil {
					t.Error(err)
				}
			})
			if want := []string{"A"}; !slices.Equal(x.launched, want) {
				t.Fatalf("launched %v, want %v: B was killed before its launch", x.launched, want)
			}
			if st, _, _ := e.InstanceState(id); st != tc.want {
				t.Fatalf("instance is %s, want %s", st, tc.want)
			}
			// Nothing running, so by RuleDecided no slot held by a decision.
			if e.RunningJobs() != 0 {
				t.Fatalf("%d running after the kills, want none", e.RunningJobs())
			}
			requireClean(t, "killed", e.Check())
			var retried []string
			for _, ev := range log.evs {
				if ev.Kind == EvTaskRetried {
					retried = append(retried, fmt.Sprintf("%s %s", ev.Task, ev.Detail))
				}
			}
			in, _ := e.Instance(id)
			if tc.want == InstanceSuspended {
				want := []string{"A infrastructure: " + cluster.ErrJobKilled.Error(), "B infrastructure: " + cluster.ErrJobKilled.Error()}
				if !slices.Equal(retried, want) {
					t.Errorf("retries = %q, want %q", retried, want)
				}
				if in.Failures != 2 || in.Retries != 2 || e.HeldJobs() != 2 {
					t.Errorf("failures=%d retries=%d held=%d, want 2 2 2", in.Failures, in.Retries, e.HeldJobs())
				}
				requireClean(t, "suspended", e.Check())
				if err := e.Resume(id); err != nil {
					t.Fatal(err)
				}
				x.finishAll()
				if st, out, _ := e.InstanceState(id); st != InstanceDone || out["a"].AsNum() != 7 || out["b"].AsNum() != 7 {
					t.Fatalf("after resume: %s %v", st, out)
				}
			} else if len(retried) != 0 || e.QueueLen() != 0 {
				t.Errorf("an aborted instance retried %q, queue=%d", retried, e.QueueLen())
			}
			requireClean(t, "idle", e.Check())
		})
	}
}

// TestCrashBetweenCommitAndLaunch: the engine crashes while the start's first
// job is inside its Launch. Nothing more is launched for the dead
// incarnation, and no slot stays held for it.
func TestCrashBetweenCommitAndLaunch(t *testing.T) {
	e, x, _, _ := newWindowEngine(t, func(e *Engine, _ string) { e.Crash() })
	if want := []string{"A"}; !slices.Equal(x.launched, want) {
		t.Fatalf("launched %v, want %v", x.launched, want)
	}
	if e.RunningJobs() != 0 || e.QueueLen() != 0 {
		t.Fatalf("after the crash: running=%d queue=%d, want none", e.RunningJobs(), e.QueueLen())
	}
	requireClean(t, "crashed", e.Check())
}

// TestFencedTurnLaunchesNothing: the instance's partition moves away while the
// start that dispatches its steps is ending. The fenced write set is dropped,
// nothing is launched, the slots its decisions held are free again, and the
// instance is evicted.
func TestFencedTurnLaunchesNothing(t *testing.T) {
	var moved atomic.Bool
	owns := func(string) bool { return !moved.Load() }
	x := &windowExec{running: make(map[string]string)}
	e, err := New(Options{Store: store.NewMem(), Library: testLibrary(t), Executor: x,
		Clock: &testClock{}, Owns: owns,
		OnEvent: func(ev Event) {
			if ev.Kind == EvTaskDispatched {
				moved.Store(true)
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	x.e = e
	if err := e.RegisterTemplateSource(pairSrc); err != nil {
		t.Fatal(err)
	}
	id, err := e.StartProcess("Pair", map[string]ocr.Value{"x": ocr.Num(7)}, StartOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(x.launched) != 0 {
		t.Fatalf("a fenced turn launched %v", x.launched)
	}
	if e.RunningJobs() != 0 {
		t.Fatalf("after the fence: running=%d, want none", e.RunningJobs())
	}
	if _, ok := e.Instance(id); ok || len(e.Instances()) != 0 {
		t.Fatalf("the fenced instance %s is still registered", id)
	}
	requireClean(t, "fenced", e.Check())
}

// TestLostPartitionComesBack: an instance's partition moves from engine A to
// engine B over one store while A runs its first step; B adopts the instance
// and runs it to the end; then the partition comes back to A. The fence
// evicted A's copy when its step completed, so A neither lists the instance
// nor accepts a call on it, and the finished instance's records stay as B
// left them.
func TestLostPartitionComesBack(t *testing.T) {
	st := store.NewMem()
	var atB atomic.Bool
	newEngine := func(owns func(string) bool) (*Engine, *windowExec) {
		x := &windowExec{running: make(map[string]string)}
		e, err := New(Options{Store: st, Library: incLibrary(t, 0), Executor: x,
			Clock: &testClock{}, Owns: owns})
		if err != nil {
			t.Fatal(err)
		}
		x.e = e
		return e, x
	}
	a, xa := newEngine(func(string) bool { return !atB.Load() })
	if err := a.RegisterTemplateSource(chainSrc); err != nil {
		t.Fatal(err)
	}
	b, xb := newEngine(func(string) bool { return atB.Load() })
	id, err := a.StartProcess("Chain", map[string]ocr.Value{"x": ocr.Num(2)}, StartOptions{InstanceID: "c1"})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"S1"}; !slices.Equal(xa.launched, want) {
		t.Fatalf("A launched %v, want %v", xa.launched, want)
	}

	atB.Store(true)
	if n, err := b.RecoverOwned(nil); n != 1 || err != nil {
		t.Fatalf("B adopted %d instances (%v), want 1", n, err)
	}
	xb.finishAll()
	if status, out, _ := b.InstanceState(id); status != InstanceDone || out["r"].AsNum() != 7 {
		t.Fatalf("on B: %s %v, want done with r = 7", status, out)
	}
	xa.finishAll() // A's S1 completes into a fenced turn
	if _, ok := a.Instance(id); ok {
		t.Errorf("A still holds %s after the fence", id)
	}
	requireClean(t, "A after the move", a.Check())

	atB.Store(false)
	if n, err := a.RecoverOwned(nil); n != 0 || err != nil {
		t.Fatalf("A adopted %d instances (%v) of a finished partition, want 0", n, err)
	}
	for _, call := range []func(string) error{func(id string) error { return a.Suspend(id, true) }, a.Resume} {
		if err := call(id); !errors.Is(err, ErrUnknownInstance) {
			t.Errorf("A accepted a call on %s: %v", id, err)
		}
	}
	requireClean(t, "A after the return", a.Check())
	if _, live, err := st.Get(store.Instance, "inst/"+id); live || err != nil {
		t.Fatalf("a live inst/ record of %s reappeared (%v)", id, err)
	}
	raw, ok, err := st.Get(store.History, "inst/"+id)
	if !ok || err != nil {
		t.Fatalf("no archived inst/ record of %s (%v)", id, err)
	}
	if meta, err := DecodeInstanceMeta(raw); err != nil || meta.Status != InstanceDone {
		t.Fatalf("archived inst/ record of %s reads %v (%v), want done", id, meta.Status, err)
	}
}
