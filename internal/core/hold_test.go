package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"bioopera/internal/cluster"
	"bioopera/internal/ocr"
	"bioopera/internal/sched"
	"bioopera/internal/sim"
	"bioopera/internal/store"
)

// TestHoldInvariant walks suspend, kill, resume, abort and a graceful
// suspend that the last completion overtakes, and checks after each that
// Check finds nothing — RuleHold above all: a group is held exactly while its
// instance is suspended, the held jobs are exactly the queued jobs of
// suspended instances, and QueueLen still counts both kinds.
func TestHoldInvariant(t *testing.T) {
	rt := newRuntime(t, SimConfig{Spec: oneCPUSpec(), Library: slowLib(t)})
	register(t, rt, slowParSrc)
	e := rt.Engine
	xs := map[string]ocr.Value{"xs": ocr.List(ocr.Num(1), ocr.Num(2), ocr.Num(3))}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	a, b, c, d := start(t, rt, "SlowPar", xs), start(t, rt, "SlowPar", xs),
		start(t, rt, "SlowPar", xs), start(t, rt, "SlowPar", xs)
	requireClean(t, "started", e.Check())
	if e.QueueLen() != 11 || e.RunningJobs() != 1 {
		t.Fatalf("queue=%d running=%d, want 11 queued behind the one CPU", e.QueueLen(), e.RunningJobs())
	}

	must(e.Suspend(b, true))
	requireClean(t, "suspend b", e.Check())
	if e.HeldJobs() != 3 {
		t.Fatalf("held = %d after suspending b, want its 3 queued activities", e.HeldJobs())
	}
	must(e.Suspend(a, false)) // kills a's running job; its requeue lands held
	rt.RunUntil(sim.Time(time.Second))
	requireClean(t, "suspend a, kill requeued", e.Check())
	if e.HeldJobs() != 6 {
		t.Fatalf("held = %d, want a's 3 (one requeued by the kill) + b's 3", e.HeldJobs())
	}
	must(e.Resume(b))
	requireClean(t, "resume b", e.Check())
	must(e.Abort(a, "test"))
	requireClean(t, "abort a while suspended", e.Check())
	if e.HeldJobs() != 0 {
		t.Fatalf("held = %d after aborting the only suspended instance", e.HeldJobs())
	}

	// Graceful suspend of an instance whose last activity is running: the
	// completion finishes the process, and the hold must go with it.
	rt.RunUntil(sim.Time(85 * time.Minute)) // c: 3 × 10 min; b: 3 × 10 min; d: 2 done, 3rd running
	in, _ := e.Instance(d)
	if e.QueueLen() != 0 || e.RunningJobs() != 1 || in.Status != InstanceRunning {
		t.Fatalf("queue=%d running=%d d=%s, want d alone on its last activity", e.QueueLen(), e.RunningJobs(), in.Status)
	}
	must(e.Suspend(d, true))
	requireClean(t, "graceful suspend d", e.Check())
	rt.Run()
	finished(t, rt, d)
	finished(t, rt, c)
	requireClean(t, "d done while suspended", e.Check())
}

// TestHoldInvariantAcrossRecovery: suspend, crash, recover — by Recover and
// by RecoverOwned. The suspended instance had queued activities and comes
// back a stub, whose tasks enter the queue, held, when it hydrates: by
// Lineage in the lazy subtest, by Resume in both. The running one requeues
// the job the crash lost.
func TestHoldInvariantAcrossRecovery(t *testing.T) {
	xs := map[string]ocr.Value{"xs": ocr.List(ocr.Num(1), ocr.Num(2), ocr.Num(3))}
	for _, mode := range []string{"lazy", "owned"} {
		t.Run(mode, func(t *testing.T) {
			st := store.NewMem()
			rt := newRuntime(t, SimConfig{Spec: oneCPUSpec(), Library: slowLib(t), Store: st})
			register(t, rt, slowParSrc)
			s1, r1 := start(t, rt, "SlowPar", xs), start(t, rt, "SlowPar", xs)
			if err := rt.Engine.Suspend(s1, false); err != nil {
				t.Fatal(err)
			}
			rt.RunUntil(sim.Time(time.Second))
			requireClean(t, "before crash", rt.Engine.Check())
			rt.Engine.Crash()
			requireClean(t, "crashed", rt.Engine.Check())
			if rt.Engine.QueueLen() != 0 || rt.Engine.HeldJobs() != 0 {
				t.Fatalf("crash left queue=%d held=%d", rt.Engine.QueueLen(), rt.Engine.HeldJobs())
			}

			rt = newRuntime(t, SimConfig{Spec: oneCPUSpec(), Library: slowLib(t), Store: st})
			register(t, rt, slowParSrc)
			e := rt.Engine
			recoverFn := e.Recover
			if mode == "owned" {
				recoverFn = func() (int, error) { return e.RecoverOwned(func(string) bool { return true }) }
			}
			if n, err := recoverFn(); err != nil || n != 2 {
				t.Fatalf("recover = %d, %v", n, err)
			}
			requireClean(t, "recovered", e.Check())
			// A stub requeues nothing until it hydrates.
			if e.HeldJobs() != 0 || e.QueueLen() != 2 || e.RunningJobs() != 1 {
				t.Fatalf("held=%d queue=%d running=%d, want 0 2 1", e.HeldJobs(), e.QueueLen(), e.RunningJobs())
			}
			wantHeld := 0
			if mode == "lazy" {
				if _, err := e.Lineage(s1); err != nil { // hydrates, stays suspended
					t.Fatal(err)
				}
				requireClean(t, "hydrated", e.Check())
				wantHeld = 3
			}
			rt.Run()
			finished(t, rt, r1)
			requireClean(t, "idle", e.Check())
			if e.HeldJobs() != wantHeld || e.QueueLen() != wantHeld {
				t.Fatalf("idle: held=%d queue=%d, want the suspended instance's %d", e.HeldJobs(), e.QueueLen(), wantHeld)
			}
			if err := e.Resume(s1); err != nil {
				t.Fatal(err)
			}
			requireClean(t, "resumed", e.Check())
			rt.Run()
			finished(t, rt, s1)
		})
	}
}

// TestResumeKeepsQueuePosition pins the observable half of hold/release:
// instance A is suspended with activities queued, B and C (another tenant,
// another priority) start behind it, A resumes — and the event trace,
// dispatch order included, is the one recorded from the engine that kept a
// suspended instance's jobs in the queue and skipped them on every scan.
func TestResumeKeepsQueuePosition(t *testing.T) {
	var events []Event
	rt := newRuntime(t, SimConfig{
		Seed:    7,
		Spec:    oneCPUSpec(),
		Library: slowLib(t),
		Options: Options{
			Quotas:  map[string]float64{"heavy": 2, "light": 1},
			OnEvent: func(ev Event) { events = append(events, ev) },
		},
	})
	register(t, rt, slowParSrc)
	xs := func(n int) map[string]ocr.Value {
		vs := make([]ocr.Value, n)
		for i := range vs {
			vs[i] = ocr.Num(float64(i))
		}
		return map[string]ocr.Value{"xs": ocr.List(vs...)}
	}
	startAs := func(n int, opts StartOptions) string {
		id, err := rt.Engine.StartProcess("SlowPar", xs(n), opts)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	a := startAs(4, StartOptions{Tenant: "heavy", Priority: 1})
	rt.Sim.At(sim.Time(5*time.Minute), func(sim.Time) {
		if err := rt.Engine.Suspend(a, true); err != nil {
			t.Error(err)
		}
		startAs(3, StartOptions{Tenant: "light", Priority: 1})
		startAs(3, StartOptions{Tenant: "heavy"})
	})
	rt.Sim.At(sim.Time(25*time.Minute), func(sim.Time) {
		if err := rt.Engine.Resume(a); err != nil {
			t.Error(err)
		}
	})
	rt.Run()
	for _, in := range rt.Engine.Instances() {
		finished(t, rt, in.ID)
	}
	got, err := json.MarshalIndent(events, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "resume_order_events.json")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("event trace drifted from the skip-while-suspended golden:\ngot:\n%s", got)
	}
}

// TestConcurrentSuspendResume flips instances between suspended and running
// from several goroutines while the worker pool drains them: a job popped
// just before its instance is suspended must land back in the held group
// (dispatch's re-validation), and nothing may be lost, run twice, or left
// held once everything has resumed. Meanwhile Check runs beside them and
// finds no rule broken that holds at every instant.
func TestConcurrentSuspendResume(t *testing.T) {
	counter := newTaskEndCounter()
	rt, err := NewLocalRuntime(LocalConfig{
		Workers: 2,
		Library: incLibrary(t, 200*time.Microsecond),
		OnEvent: counter.observe,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if err := rt.RegisterTemplateSource(chainSrc); err != nil {
		t.Fatal(err)
	}
	e := rt.Engine()
	ids := make([]string, 12)
	for i := range ids {
		if ids[i], err = rt.StartProcess("Chain", map[string]ocr.Value{"x": ocr.Num(0)}, StartOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	checked := make(chan struct{})
	stop := make(chan struct{})
	go func() {
		defer close(checked)
		for {
			for _, v := range e.Check() {
				if v.Rule != RuleStuck {
					t.Errorf("mid-run: instance %q breaks %s: %s", v.Instance, v.Rule, v.Detail)
				}
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	stopChecking := sync.OnceFunc(func() { close(stop); <-checked })
	defer stopChecking()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				for i := g; i < len(ids); i += 4 {
					// ErrBadState once the instance is done — which a
					// gracefully suspended one may become before Resume.
					if e.Suspend(ids[i], round%2 == 0) == nil {
						if err := e.Resume(ids[i]); err != nil && !errors.Is(err, ErrBadState) {
							t.Errorf("Resume(%s): %v", ids[i], err)
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for _, id := range ids {
		in, err := rt.Wait(id, 30*time.Second)
		if err != nil {
			t.Fatalf("Wait(%s): %v", id, err)
		}
		if in.Status != InstanceDone || in.Outputs["r"].AsNum() != 5 {
			t.Fatalf("instance %s: %s r=%v (%s)", id, in.Status, in.Outputs["r"], in.FailureReason)
		}
	}
	stopChecking()
	counter.checkExactlyOnce(t, ids)
	if e.HeldJobs() != 0 || e.QueueLen() != 0 {
		t.Fatalf("idle engine: held=%d queue=%d, want 0 0", e.HeldJobs(), e.QueueLen())
	}
	requireClean(t, "idle", e.Check())
}

// pickCounter counts the placement attempts a Pump makes.
type pickCounter struct{ picks int }

func (*pickCounter) Name() string { return "counting" }

func (p *pickCounter) Pick(j sched.Job, nodes []cluster.NodeView) (string, bool) {
	p.picks++
	return sched.LeastLoaded{}.Pick(j, nodes)
}

// viewCounter counts the cluster views the dispatcher takes.
type viewCounter struct {
	Executor
	views int
}

func (x *viewCounter) AppendNodes(dst []cluster.NodeView) []cluster.NodeView {
	x.views++
	return x.Executor.AppendNodes(dst)
}

// TestPumpCostIndependentOfBacklog is the machine-independent form of the
// performance claim: what a Pump costs depends on what can dispatch now,
// not on what is queued. Jobs of suspended instances are never tried, a
// full cluster ends the decision before any job is, a Pump with nothing
// ready takes no cluster view and allocates nothing however much is held,
// and otherwise a view is taken once per decision, into the engine's buffer.
func TestPumpCostIndependentOfBacklog(t *testing.T) {
	build := func(suspended, fan int) (*SimRuntime, *pickCounter, *viewCounter) {
		pol := &pickCounter{}
		rt := newRuntime(t, SimConfig{Spec: oneCPUSpec(), Library: slowLib(t), Options: Options{Policy: pol}})
		views := &viewCounter{Executor: rt.Engine.opts.Executor}
		rt.Engine.opts.Executor = views
		register(t, rt, slowParSrc)
		rt.Engine.PauseAll()
		for i := 0; i < suspended; i++ {
			id := start(t, rt, "SlowPar", map[string]ocr.Value{"xs": ocr.List(ocr.Num(1))})
			if err := rt.Engine.Suspend(id, true); err != nil {
				t.Fatal(err)
			}
		}
		rt.Engine.ResumeAll()
		if fan > 0 {
			xs := make([]ocr.Value, fan)
			for i := range xs {
				xs[i] = ocr.Num(float64(i))
			}
			start(t, rt, "SlowPar", map[string]ocr.Value{"xs": ocr.List(xs...)})
		}
		return rt, pol, views
	}
	idle := func(name string, rt *SimRuntime, views *viewCounter) {
		t.Helper()
		if allocs := testing.AllocsPerRun(20, rt.Engine.Pump); allocs != 0 {
			t.Errorf("%s: %v allocations per Pump with nothing ready, want 0", name, allocs)
		}
		if views.views != 0 {
			t.Errorf("%s: %d cluster views taken with nothing ready, want 0", name, views.views)
		}
	}

	rt, pol, views := build(4000, 0)
	if rt.Engine.HeldJobs() != 4000 || rt.Engine.QueueLen() != 4000 {
		t.Fatalf("held=%d queue=%d, want 4000 4000", rt.Engine.HeldJobs(), rt.Engine.QueueLen())
	}
	rt.Engine.Pump()
	if pol.picks != 0 {
		t.Errorf("%d Pick calls over 4000 held + 0 ready jobs, want 0", pol.picks)
	}
	idle("4000 held", rt, views)

	rt, pol, views = build(0, 201)
	if rt.Engine.RunningJobs() != 1 || rt.Engine.QueueLen() != 200 {
		t.Fatalf("running=%d queue=%d, want a full one-CPU cluster with 200 ready", rt.Engine.RunningJobs(), rt.Engine.QueueLen())
	}
	// The start's pump decided twice: one job placed, then the cluster full.
	if views.views != 2 {
		t.Errorf("%d cluster views for two decisions, want 2", views.views)
	}
	pol.picks, views.views = 0, 0
	rt.Engine.Pump()
	if pol.picks != 0 {
		t.Errorf("%d Pick calls on a full cluster with 200 ready jobs, want 0", pol.picks)
	}
	if views.views != 1 {
		t.Errorf("%d cluster views for the one decision of a Pump on a full cluster, want 1", views.views)
	}
	if allocs := testing.AllocsPerRun(20, rt.Engine.Pump); allocs != 0 {
		t.Errorf("%v allocations per Pump on a full cluster, want 0: the view goes into the engine's buffer", allocs)
	}

	rt, _, views = build(0, 0)
	idle("empty", rt, views)
}

// TestSuspendedPinnedJobJudgedAtResume documents the one behaviour change:
// a suspended instance's job pinned to dead nodes is no longer taken and
// re-enqueued on every Pump; it fails when the instance resumes.
func TestSuspendedPinnedJobJudgedAtResume(t *testing.T) {
	lib := slowLib(t)
	if err := lib.Register(Program{
		Name:  "test.pinned",
		Run:   func(ProgramCtx, map[string]ocr.Value) (map[string]ocr.Value, error) { return nil, nil },
		Nodes: []string{"ghost"},
	}); err != nil {
		t.Fatal(err)
	}
	unplaceable := 0
	rt := newRuntime(t, SimConfig{Spec: oneCPUSpec(), Library: lib, Options: Options{
		OnEvent: func(ev Event) {
			if ev.Kind == EvTaskUnplaceable {
				unplaceable++
			}
		},
	}})
	register(t, rt, `PROCESS Pinned { ACTIVITY P { CALL test.pinned(); } }`)
	rt.Engine.PauseAll()
	id := start(t, rt, "Pinned", nil)
	if err := rt.Engine.Suspend(id, true); err != nil {
		t.Fatal(err)
	}
	rt.Engine.ResumeAll()
	rt.Run()
	if in, _ := rt.Engine.Instance(id); unplaceable != 0 || in.Status != InstanceSuspended || rt.Engine.HeldJobs() != 1 {
		t.Fatalf("while suspended: %d unplaceable events, status %s, held %d; want 0, suspended, 1",
			unplaceable, in.Status, rt.Engine.HeldJobs())
	}
	if err := rt.Engine.Resume(id); err != nil {
		t.Fatal(err)
	}
	rt.Run()
	if in, _ := rt.Engine.Instance(id); unplaceable != 1 || in.Status != InstanceFailed {
		t.Fatalf("after resume: %d unplaceable events, status %s (%s); want 1, failed",
			unplaceable, in.Status, in.FailureReason)
	}
}

// TestSuspendResumeOnQuietEngine is the regression test for the popped-job
// requeue: one chain alone on the engine, suspended and resumed once or twice
// while it runs, then left alone. A job the dispatcher popped just before the
// Suspend goes back to the queue; if it went back after the turn released the
// shard, a Resume in between would release the group and pump against a queue
// that did not hold the job yet, and on a quiet engine nothing would pump
// again. Every instance must finish with nobody pumping for it.
func TestSuspendResumeOnQuietEngine(t *testing.T) {
	rounds := 2000
	if testing.Short() {
		rounds = 200
	}
	rt, err := NewLocalRuntime(LocalConfig{Workers: 2, Library: incLibrary(t, 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if err := rt.RegisterTemplateSource(chainSrc); err != nil {
		t.Fatal(err)
	}
	e := rt.Engine()
	for round := 0; round < rounds; round++ {
		id, err := rt.StartProcess("Chain", map[string]ocr.Value{"x": ocr.Num(0)}, StartOptions{})
		if err != nil {
			t.Fatal(err)
		}
		toggled := make(chan struct{})
		go func() {
			defer close(toggled)
			for i := 0; i <= round%2; i++ {
				// ErrBadState once the chain is done — which a gracefully
				// suspended one may become before its Resume. A Suspend
				// that took is always followed by a Resume, so the
				// toggling ends on one.
				if e.Suspend(id, true) != nil {
					return
				}
				if err := e.Resume(id); err != nil && !errors.Is(err, ErrBadState) {
					t.Errorf("Resume(%s): %v", id, err)
				}
			}
		}()
		in, err := rt.Wait(id, 10*time.Second)
		<-toggled
		if err != nil {
			t.Fatalf("round %d: %v (queue=%d held=%d running=%d)", round, err, e.QueueLen(), e.HeldJobs(), e.RunningJobs())
		}
		if in.Status != InstanceDone || in.Outputs["r"].AsNum() != 5 {
			t.Fatalf("round %d: instance %s: %s r=%v (%s)", round, id, in.Status, in.Outputs["r"], in.FailureReason)
		}
	}
	requireClean(t, "idle", e.Check())
}

// lostRaceExec is a one-slot executor whose first Launch loses the slot to a
// concurrent drain that took it between the scheduler's decision and the
// Launch: it fails with ErrNoFreeCPU although the view offered the slot, and
// the winner's completion — the pump the loser could otherwise count on — has
// already been and gone. Launches that succeed wait for the test to run them.
type lostRaceExec struct {
	launches int
	pending  []Launch
}

func (x *lostRaceExec) AppendNodes(dst []cluster.NodeView) []cluster.NodeView {
	return append(dst, cluster.NodeView{Name: "n1", Up: true, CPUs: 1, Speed: 1, Running: len(x.pending)})
}

func (x *lostRaceExec) Launch(l Launch) error {
	if x.launches++; x.launches == 1 {
		return cluster.ErrNoFreeCPU
	}
	x.pending = append(x.pending, l)
	return nil
}

func (x *lostRaceExec) Kill(cluster.JobID, string) error { return nil }

// runNext runs the oldest pending launch the way the local pool does — the
// program comes from the engine's library — and delivers its completion.
func (x *lostRaceExec) runNext(e *Engine) Launch {
	l := x.pending[0]
	x.pending = x.pending[1:]
	prog, _ := e.opts.Library.Lookup(l.Program)
	out, err := prog.Run(l.Ctx, l.Inputs)
	e.HandleCompletion(cluster.Completion{Job: l.Job, Node: l.Node, Outputs: out, ProgramErr: err})
	return l
}

// TestLostSlotRacePumpsAgain is the 1-in-50,000 hang of four chains
// outstanding on two workers, made deterministic: a job whose Launch lost the
// race for its slot goes back to the queue, and the turn that put it back
// must pump again — the completion of the job that won may have pumped while
// this one was in neither the queue nor a slot, and on a quiet engine nobody
// else will.
func TestLostSlotRacePumpsAgain(t *testing.T) {
	x := &lostRaceExec{}
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
	if x.launches != 2 || e.QueueLen() != 0 || e.RunningJobs() != 1 {
		t.Fatalf("after the lost race: %d launches, queue=%d running=%d, want the job launched again (2, 0, 1)",
			x.launches, e.QueueLen(), e.RunningJobs())
	}
	for len(x.pending) > 0 {
		x.runNext(e)
	}
	if st, out, _ := e.InstanceState(id); st != InstanceDone || out["r"].AsNum() != 5 {
		t.Fatalf("instance is %s with r=%v, want done with 5", st, out["r"])
	}
}
