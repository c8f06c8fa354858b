package core

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bioopera/internal/cluster"
	"bioopera/internal/obs"
	"bioopera/internal/ocr"
	"bioopera/internal/store"
)

func newLocal(t *testing.T, workers int) *LocalRuntime {
	t.Helper()
	rt, err := NewLocalRuntime(LocalConfig{Workers: workers, Library: testLibrary(t)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func TestLocalLinear(t *testing.T) {
	rt := newLocal(t, 2)
	if err := rt.RegisterTemplateSource(linearSrc); err != nil {
		t.Fatal(err)
	}
	id, err := rt.StartProcess("Linear", map[string]ocr.Value{"a": ocr.Num(3), "b": ocr.Num(4)}, StartOptions{})
	if err != nil {
		t.Fatal(err)
	}
	in, err := rt.Wait(id, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if in.Status != InstanceDone || in.Outputs["result"].AsNum() != 14 {
		t.Fatalf("instance %s, result %v", in.Status, in.Outputs["result"])
	}
	status, outputs, err := rt.InstanceStatus(id)
	if err != nil || status != InstanceDone || outputs["result"].AsNum() != 14 {
		t.Fatalf("InstanceStatus = %v %v %v", status, outputs, err)
	}
}

func TestLocalParallelReallyParallel(t *testing.T) {
	lib := NewLibrary()
	lib.Register(Program{
		Name: "test.sleep",
		Run: func(_ ProgramCtx, args map[string]ocr.Value) (map[string]ocr.Value, error) {
			time.Sleep(100 * time.Millisecond)
			return map[string]ocr.Value{"out": args["x"]}, nil
		},
	})
	rt, err := NewLocalRuntime(LocalConfig{Workers: 4, Library: lib})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if err := rt.RegisterTemplateSource(`
PROCESS Sleepy {
  INPUT xs;
  OUTPUT done;
  BLOCK Fan PARALLEL OVER xs AS x {
    MAP results -> done;
    OUTPUT r;
    ACTIVITY S { CALL test.sleep(x = x); OUT out; MAP out -> r; }
  }
}`); err != nil {
		t.Fatal(err)
	}
	var xs []ocr.Value
	for i := 0; i < 8; i++ {
		xs = append(xs, ocr.Int(i))
	}
	start := time.Now()
	id, err := rt.StartProcess("Sleepy", map[string]ocr.Value{"xs": ocr.List(xs...)}, StartOptions{})
	if err != nil {
		t.Fatal(err)
	}
	in, err := rt.Wait(id, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if in.Status != InstanceDone {
		t.Fatalf("instance %s (%s)", in.Status, in.FailureReason)
	}
	// 8 × 100ms on 4 workers ≈ 200ms; serial would be 800ms.
	if elapsed > 700*time.Millisecond {
		t.Fatalf("took %v — not parallel", elapsed)
	}
	if in.Outputs["done"].Len() != 8 {
		t.Fatalf("results = %v", in.Outputs["done"])
	}
	for i := 0; i < 8; i++ {
		if in.Outputs["done"].At(i).AsInt() != i {
			t.Fatalf("result order broken: %v", in.Outputs["done"])
		}
	}
	requireClean(t, "idle", rt.Engine().Check())
}

func TestLocalRetries(t *testing.T) {
	rt := newLocal(t, 2)
	if err := rt.RegisterTemplateSource(`
PROCESS Flaky {
  OUTPUT r;
  ACTIVITY F {
    CALL test.flaky(until = 2);
    OUT out;
    MAP out -> r;
    RETRY 3;
  }
}`); err != nil {
		t.Fatal(err)
	}
	id, _ := rt.StartProcess("Flaky", nil, StartOptions{})
	in, err := rt.Wait(id, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if in.Status != InstanceDone || in.Outputs["r"].AsStr() != "recovered" {
		t.Fatalf("instance %s outputs %v", in.Status, in.Outputs)
	}
}

func TestLocalProgramFailureAborts(t *testing.T) {
	rt := newLocal(t, 1)
	if err := rt.RegisterTemplateSource(`
PROCESS Doomed {
  ACTIVITY F { CALL test.fail(); }
}`); err != nil {
		t.Fatal(err)
	}
	id, _ := rt.StartProcess("Doomed", nil, StartOptions{})
	in, err := rt.Wait(id, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if in.Status != InstanceFailed {
		t.Fatalf("instance %s", in.Status)
	}
}

func TestLocalWaitTimeout(t *testing.T) {
	lib := NewLibrary()
	lib.Register(Program{
		Name: "test.slow",
		Run: func(ProgramCtx, map[string]ocr.Value) (map[string]ocr.Value, error) {
			time.Sleep(2 * time.Second)
			return nil, nil
		},
	})
	rt, err := NewLocalRuntime(LocalConfig{Workers: 1, Library: lib})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rt.RegisterTemplateSource(`PROCESS Slow { ACTIVITY S { CALL test.slow(); } }`)
	id, _ := rt.StartProcess("Slow", nil, StartOptions{})
	if _, err := rt.Wait(id, 100*time.Millisecond); err == nil {
		t.Fatal("Wait did not time out")
	}
	if _, err := rt.Wait("ghost", time.Millisecond); !errors.Is(err, ErrUnknownInstance) {
		t.Fatalf("Wait(ghost) = %v", err)
	}
}

func TestLocalTimeoutFailover(t *testing.T) {
	// The first attempt hangs far past its TIMEOUT; the dispatcher kills
	// it and the activity fails over to a fresh attempt — without a RETRY
	// annotation, proving the requeue consumed no retry budget.
	var calls atomic.Int32
	release := make(chan struct{})
	defer close(release)
	lib := NewLibrary()
	lib.Register(Program{
		Name: "test.hang",
		Run: func(ProgramCtx, map[string]ocr.Value) (map[string]ocr.Value, error) {
			if calls.Add(1) == 1 {
				<-release
			}
			return map[string]ocr.Value{"out": ocr.Str("ok")}, nil
		},
	})
	var mu sync.Mutex
	var timeouts []Event
	rt, err := NewLocalRuntime(LocalConfig{
		Workers: 2,
		Library: lib,
		OnEvent: func(ev Event) {
			if ev.Kind == EvTaskTimeout {
				mu.Lock()
				timeouts = append(timeouts, ev)
				mu.Unlock()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if err := rt.RegisterTemplateSource(`
PROCESS Hang {
  OUTPUT r;
  ACTIVITY H { CALL test.hang(); OUT out; MAP out -> r; TIMEOUT 0.2; }
}`); err != nil {
		t.Fatal(err)
	}
	id, _ := rt.StartProcess("Hang", nil, StartOptions{})
	in, err := rt.Wait(id, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if in.Status != InstanceDone || in.Outputs["r"].AsStr() != "ok" {
		t.Fatalf("instance %s (%s) outputs %v", in.Status, in.FailureReason, in.Outputs)
	}
	if in.Retries == 0 {
		t.Fatal("timeout failover did not requeue through the infra path")
	}
	mu.Lock()
	n := len(timeouts)
	mu.Unlock()
	if n == 0 {
		t.Fatal("no task-timeout event emitted")
	}
}

// TestLocalStoreCompactsItself runs the instance to its end on the local
// pool: the reopened store holds it, archived, in its base.
func TestLocalStoreCompactsItself(t *testing.T) {
	checkCompactsItself(t, func(st *store.Disk, xs ocr.Value) string {
		rt, err := NewLocalRuntime(LocalConfig{Workers: 2, Library: testLibrary(t), Store: st})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		if err := rt.RegisterTemplateSource(parallelSrc); err != nil {
			t.Fatal(err)
		}
		id, err := rt.StartProcess("Par", map[string]ocr.Value{"xs": xs}, StartOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Wait(id, 10*time.Second); err != nil {
			t.Fatal(err)
		}
		return id
	})
}

// eventually polls cond until it holds; the deadline is the failure.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// TestStaleWorkerLeavesTheSlotAlone covers the slot-owned launch. A running
// job is killed; the task is requeued but its program cannot be interrupted,
// so the slot stays the stale goroutine's until the program returns. That
// goroutine then frees the slot and pumps — which launches the fresh attempt
// onto the same slot, overwriting the slot's fields under the stale
// goroutine's feet. It copied what it needs out beforehand: it must not free
// the new occupant's slot, and its result must not be delivered.
func TestStaleWorkerLeavesTheSlotAlone(t *testing.T) {
	entered := make(chan int32, 2)
	release := []chan struct{}{make(chan struct{}), make(chan struct{})}
	var calls atomic.Int32
	lib := NewLibrary()
	if err := lib.RegisterFunc("test.gate", func(ProgramCtx, map[string]ocr.Value) (map[string]ocr.Value, error) {
		n := calls.Add(1) - 1
		entered <- n
		<-release[n]
		return map[string]ocr.Value{"out": ocr.Str([]string{"stale", "fresh"}[n])}, nil
	}); err != nil {
		t.Fatal(err)
	}
	var ended atomic.Int32
	retried := make(chan struct{}, 1)
	rt, err := NewLocalRuntime(LocalConfig{Workers: 1, Library: lib, OnEvent: func(ev Event) {
		switch ev.Kind {
		case EvTaskEnded:
			ended.Add(1)
		case EvTaskRetried:
			retried <- struct{}{}
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if err := rt.RegisterTemplateSource(`PROCESS Gate { OUTPUT r; ACTIVITY G { CALL test.gate(); OUT out; MAP out -> r; } }`); err != nil {
		t.Fatal(err)
	}
	id, err := rt.StartProcess("Gate", nil, StartOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Occupancy as the pool sees it (may another Launch take the slot?) and
	// as the scheduler does (the directory's reservation).
	slot := func() (busy, reserved int) {
		rt.exec.mu.Lock()
		if rt.exec.slots["local-00"].seq != 0 {
			busy = 1
		}
		rt.exec.mu.Unlock()
		return busy, rt.exec.busySlots()
	}
	<-entered
	withStale := runtime.NumGoroutine()
	if err := rt.exec.Kill(cluster.JobID(id+"||G|0"), "local-00"); err != nil {
		t.Fatal(err)
	}
	<-retried
	e := rt.Engine()
	if busy, reserved := slot(); busy != 1 || reserved != 1 || e.QueueLen() != 1 || e.RunningJobs() != 0 {
		t.Fatalf("after the kill: busy=%d reserved=%d queue=%d running=%d, want the slot still the stale program's and the task queued (1 1 1 0)",
			busy, reserved, e.QueueLen(), e.RunningJobs())
	}
	close(release[0])
	if n := <-entered; n != 1 {
		t.Fatalf("attempt %d entered, want the fresh one", n)
	}
	// The stale goroutine is gone once the count is back to what it was with
	// it: the fresh worker has taken its place, the kill's delivery has exited.
	eventually(t, "the stale worker has exited", func() bool { return runtime.NumGoroutine() <= withStale })
	if busy, reserved := slot(); busy != 1 || reserved != 1 || e.RunningJobs() != 1 {
		t.Fatalf("with the fresh attempt running: busy=%d reserved=%d running=%d, want 1 1 1 — the stale worker freed the new occupant's slot",
			busy, reserved, e.RunningJobs())
	}
	close(release[1])
	in, err := rt.Wait(id, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if in.Status != InstanceDone || in.Outputs["r"].AsStr() != "fresh" || ended.Load() != 1 {
		t.Fatalf("instance %s with r=%v after %d task-ended, want done with the fresh attempt's result, ended once",
			in.Status, in.Outputs["r"], ended.Load())
	}
	if busy, reserved := slot(); busy != 0 || reserved != 0 {
		t.Fatalf("at idle: busy=%d reserved=%d, want 0 0", busy, reserved)
	}
	requireClean(t, "idle", e.Check())
}

// TestLaunchGoroutinesDoNotAccumulate: a launch is a goroutine that ends with
// its completion, so 2,000 activities later there are as many as before.
func TestLaunchGoroutinesDoNotAccumulate(t *testing.T) {
	rt, err := NewLocalRuntime(LocalConfig{Workers: 2, Library: benchLibrary(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if err := rt.RegisterTemplateSource(benchChain8Src); err != nil {
		t.Fatal(err)
	}
	run := func(n int) {
		for i := 0; i < n; i++ {
			id, err := rt.StartProcess("Chain8", map[string]ocr.Value{"x": ocr.Num(1)}, StartOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if in, err := rt.Wait(id, 10*time.Second); err != nil || in.Status != InstanceDone {
				t.Fatalf("instance %s: %v", id, err)
			}
		}
	}
	run(5)
	eventually(t, "the pool is idle", func() bool { return rt.exec.busySlots() == 0 })
	before := runtime.NumGoroutine()
	run(250)
	eventually(t, "the launch goroutines have exited", func() bool { return runtime.NumGoroutine() <= before })
}

// gatedStore holds the first Batch that writes a task record of instance
// hold until gate closes, and signals held when it starts holding it.
type gatedStore struct {
	store.Store
	hold atomic.Pointer[string]
	held chan struct{}
	gate chan struct{}
}

func (s *gatedStore) Batch(ops []store.Op) error {
	if id := s.hold.Load(); id != nil {
		for _, op := range ops {
			if strings.HasPrefix(op.Key, "task/"+*id+"/") && s.hold.CompareAndSwap(id, nil) {
				s.held <- struct{}{}
				<-s.gate
				break
			}
		}
	}
	return s.Store.Batch(ops)
}

// TestLaunchFromCompletionDoesNotWait: the worker that delivers J's
// completion launches J's successor K, then goes on to dispatch another
// instance's queued job Q, whose commit the store holds. K must start while
// that worker is still inside HandleCompletion — a job never waits behind
// the commits of the worker that launched it.
func TestLaunchFromCompletionDoesNotWait(t *testing.T) {
	gates := map[string]chan struct{}{"J": make(chan struct{}), "K": make(chan struct{})}
	entered := make(chan string, 3)
	lib := NewLibrary()
	if err := lib.RegisterFunc("test.step", func(ctx ProgramCtx, _ map[string]ocr.Value) (map[string]ocr.Value, error) {
		entered <- ctx.Task
		if g := gates[ctx.Task]; g != nil {
			<-g
		}
		return map[string]ocr.Value{"out": ocr.Num(1)}, nil
	}); err != nil {
		t.Fatal(err)
	}
	st := &gatedStore{Store: store.NewMem(), held: make(chan struct{}, 1), gate: make(chan struct{})}
	rt, err := NewLocalRuntime(LocalConfig{Workers: 2, Library: lib, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	var opened sync.Once
	open := func() {
		opened.Do(func() {
			close(st.gate)
			close(gates["K"])
		})
	}
	defer open() // before Close, which waits for the held commit
	for _, src := range []string{
		`PROCESS JK { OUTPUT r; ACTIVITY J { CALL test.step(); OUT out; MAP out -> w; } ACTIVITY K { CALL test.step(); OUT out; MAP out -> r; } J -> K; }`,
		`PROCESS Q { OUTPUT r; ACTIVITY Q { CALL test.step(); OUT out; MAP out -> r; } }`,
	} {
		if err := rt.RegisterTemplateSource(src); err != nil {
			t.Fatal(err)
		}
	}
	// K outranks Q, so J's turn decides K for itself and hands Q on.
	jk, err := rt.StartProcess("JK", nil, StartOptions{Priority: 1})
	if err != nil {
		t.Fatal(err)
	}
	if task := <-entered; task != "J" {
		t.Fatalf("%s entered, want J", task)
	}
	// Q is queued with a slot free: started while paused, then unpaused
	// without a pump, so the next decision is J's turn's.
	e := rt.Engine()
	e.PauseAll()
	q, err := rt.StartProcess("Q", nil, StartOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e.paused.Store(false)
	st.hold.Store(&q)
	close(gates["J"])
	// K is launched before Q is dispatched, so it may enter first; either
	// way the gate stays shut until K has entered.
	timeout := time.After(10 * time.Second)
	for held, k := false, false; !held || !k; {
		select {
		case <-st.held:
			held = true
		case task := <-entered:
			if task != "K" {
				t.Fatalf("%s entered, want K", task)
			}
			k = true
		case <-timeout:
			t.Fatalf("Q's commit held: %v, K started: %v — K must start while the worker that launched it is held in Q's commit", held, k)
		}
	}
	open()
	for _, id := range []string{jk, q} {
		if in, err := rt.Wait(id, 10*time.Second); err != nil || in.Status != InstanceDone {
			t.Fatalf("instance %s: %v", id, err)
		}
	}
}

// TestIdleWorkersExitOnClose: parked workers are goroutines until Close;
// after it the count is back to what it was before the runtime was built.
func TestIdleWorkersExitOnClose(t *testing.T) {
	before := runtime.NumGoroutine()
	rt, err := NewLocalRuntime(LocalConfig{Workers: 4, Library: benchLibrary(t)})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.RegisterTemplateSource(benchChain8Src); err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 8)
	for i := range ids {
		if ids[i], err = rt.StartProcess("Chain8", map[string]ocr.Value{"x": ocr.Num(1)}, StartOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids {
		if in, err := rt.Wait(id, 10*time.Second); err != nil || in.Status != InstanceDone {
			t.Fatalf("instance %s: %v", id, err)
		}
	}
	eventually(t, "a worker is parked", func() bool {
		rt.exec.mu.Lock()
		defer rt.exec.mu.Unlock()
		return len(rt.exec.idle) > 0
	})
	rt.Close()
	eventually(t, "the workers have exited", func() bool { return runtime.NumGoroutine() <= before })
}

// TestDispatchGroupsOnAPool: 64 Chain8 instances on two workers, three at
// a time, keep the queue one deeper than the pool: nearly every completion's
// drain hands its freed slot to another instance, whose dispatch then joins
// the completion's commit (groupDispatches), and the two workers complete at
// once, so two groups form at once, each soon picking the job the other's
// opening turn queued. A dispatch joins a group only when its instance has
// no write set in flight; without that, two groups each wait at a commit gate
// for the other and a wave hangs (half the waves did, unchecked). Every wave
// finishes with the right results, and the groups saved commits: fewer
// batches than turns.
func TestDispatchGroupsOnAPool(t *testing.T) {
	const n, wave = 64, 3
	st := &turnStore{Store: store.NewMem()}
	rt, err := NewLocalRuntime(LocalConfig{Workers: 2, Library: benchLibrary(t), Store: st, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.RegisterTemplateSource(benchChain8Src); err != nil {
		t.Fatal(err)
	}
	// No deferred Close: after a hang it would wait at the stuck gates too.
	returnsWithin(t, 10*time.Second, "the waves", func() {
		for i := 0; i < n; i += wave {
			ids := map[string]int{}
			for j := i; j < min(i+wave, n); j++ {
				id, err := rt.StartProcess("Chain8", map[string]ocr.Value{"x": ocr.Num(float64(j))}, StartOptions{})
				if err != nil {
					t.Error(err)
					return
				}
				ids[id] = j
			}
			for id, x := range ids {
				in, err := rt.Wait(id, 10*time.Second)
				if err != nil {
					t.Errorf("instance %s: %v", id, err)
					return
				}
				if in.Status != InstanceDone || in.Outputs["r"].AsNum() != float64(x) {
					t.Errorf("instance %s is %s with r = %v, want done with %d", id, in.Status, in.Outputs["r"], x)
				}
			}
		}
	})
	rt.Close()
	if turns := rt.Engine().metrics.turnSeconds.Count(); uint64(st.batches) >= turns {
		t.Errorf("%d batches for %d turns: no dispatch joined a completion's commit", st.batches, turns)
	}
}
