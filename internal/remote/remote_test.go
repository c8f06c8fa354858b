package remote

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"bioopera/internal/core"
	"bioopera/internal/ocr"
)

// Tight-but-safe failure-detector timings for tests (also under -race).
const (
	beatEvery   = 25 * time.Millisecond
	beatTimeout = 150 * time.Millisecond
)

func addLibrary(t *testing.T) *core.Library {
	t.Helper()
	lib := core.NewLibrary()
	lib.Register(core.Program{
		Name: "test.add",
		Run: func(_ core.ProgramCtx, args map[string]ocr.Value) (map[string]ocr.Value, error) {
			return map[string]ocr.Value{"sum": ocr.Num(args["a"].AsNum() + args["b"].AsNum())}, nil
		},
	})
	return lib
}

func newRemote(t *testing.T, lib *core.Library) *Runtime {
	t.Helper()
	rt, err := NewRuntime(Config{
		Addr:             "127.0.0.1:0",
		Library:          lib,
		HeartbeatEvery:   beatEvery,
		HeartbeatTimeout: beatTimeout,
		Logf:             t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	return rt
}

// requireClean fails the test with every engine invariant Check finds
// broken; the engine is at idle.
func requireClean(t *testing.T, e *core.Engine) {
	t.Helper()
	for _, v := range e.Check() {
		t.Errorf("idle engine: instance %q breaks %s: %s", v.Instance, v.Rule, v.Detail)
	}
}

const fanSrc = `
PROCESS Fan {
  INPUT xs;
  OUTPUT done;
  BLOCK F PARALLEL OVER xs AS x {
    MAP results -> done;
    OUTPUT r;
    ACTIVITY A { CALL test.add(a = x, b = x); OUT sum; MAP sum -> r; }
  }
}`

// TestRemoteRunTwoWorkers is the plain distributed path: a parallel fan
// spread over two worker agents on loopback TCP, results in order.
func TestRemoteRunTwoWorkers(t *testing.T) {
	rt := newRemote(t, addLibrary(t))
	for _, name := range []string{"w1", "w2"} {
		a, err := Dial(rt.Addr(), AgentConfig{Name: name, CPUs: 2, Library: addLibrary(t), Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { a.Close() })
	}
	if err := rt.RegisterTemplateSource(fanSrc); err != nil {
		t.Fatal(err)
	}
	var xs []ocr.Value
	for i := 0; i < 8; i++ {
		xs = append(xs, ocr.Num(float64(i)))
	}
	id, err := rt.StartProcess("Fan", map[string]ocr.Value{"xs": ocr.List(xs...)}, core.StartOptions{})
	if err != nil {
		t.Fatal(err)
	}
	in, err := rt.Wait(id, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if in.Status != core.InstanceDone {
		t.Fatalf("instance %s (%s)", in.Status, in.FailureReason)
	}
	if in.Outputs["done"].Len() != 8 {
		t.Fatalf("results = %v", in.Outputs["done"])
	}
	for i := 0; i < 8; i++ {
		if in.Outputs["done"].At(i).AsNum() != float64(2*i) {
			t.Fatalf("result order broken: %v", in.Outputs["done"])
		}
	}
	workers, dead, dropped := rt.Server.Stats()
	if workers != 2 || dead != 0 || dropped != 0 {
		t.Fatalf("Stats = %d workers, %d dead, %d dropped", workers, dead, dropped)
	}
	requireClean(t, rt.Engine())
}

// TestRemoteHeartbeatFailover is the acceptance scenario: two workers, one
// freezes mid-activity (heartbeats stop, the job hangs). The heartbeat
// timeout declares it dead, its nodes go down, its running job fails over
// through the engine's requeue path onto the survivor, and the process
// still completes correctly.
func TestRemoteHeartbeatFailover(t *testing.T) {
	rt := newRemote(t, addLibrary(t))

	var (
		amu sync.Mutex
		a1  *Agent
	)
	block := make(chan struct{})
	frozen := core.NewLibrary()
	frozen.Register(core.Program{
		Name: "test.add",
		Run: func(_ core.ProgramCtx, args map[string]ocr.Value) (map[string]ocr.Value, error) {
			// Freeze the whole worker: stop heartbeating and hang.
			for {
				amu.Lock()
				a := a1
				amu.Unlock()
				if a != nil {
					a.PauseHeartbeats()
					break
				}
				time.Sleep(time.Millisecond)
			}
			<-block
			return map[string]ocr.Value{"sum": ocr.Num(-1)}, nil
		},
	})

	a, err := Dial(rt.Addr(), AgentConfig{Name: "w1", CPUs: 1, Library: frozen, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	amu.Lock()
	a1 = a
	amu.Unlock()
	a2, err := Dial(rt.Addr(), AgentConfig{Name: "w2", CPUs: 1, Library: addLibrary(t), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	// LIFO: release the hung program before the agents' Close waits on it.
	t.Cleanup(func() { a.Close() })
	t.Cleanup(func() { a2.Close() })
	t.Cleanup(func() { close(block) })

	if err := rt.RegisterTemplateSource(fanSrc); err != nil {
		t.Fatal(err)
	}
	var xs []ocr.Value
	for i := 0; i < 4; i++ {
		xs = append(xs, ocr.Num(float64(i)))
	}
	id, err := rt.StartProcess("Fan", map[string]ocr.Value{"xs": ocr.List(xs...)}, core.StartOptions{})
	if err != nil {
		t.Fatal(err)
	}
	in, err := rt.Wait(id, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if in.Status != core.InstanceDone {
		t.Fatalf("instance %s (%s)", in.Status, in.FailureReason)
	}
	for i := 0; i < 4; i++ {
		if in.Outputs["done"].At(i).AsNum() != float64(2*i) {
			t.Fatalf("wrong results after failover: %v", in.Outputs["done"])
		}
	}
	if in.Retries == 0 {
		t.Fatal("failover did not requeue through the infra path")
	}
	_, dead, _ := rt.Server.Stats()
	if dead != 1 {
		t.Fatalf("declaredDead = %d, want 1", dead)
	}
	requireClean(t, rt.Engine())
}

// TestRemoteWorkerRejoin: a worker goes silent, is declared dead, then a
// new agent with the same name rejoins under a fresh incarnation and picks
// the queued work up.
func TestRemoteWorkerRejoin(t *testing.T) {
	rt := newRemote(t, addLibrary(t))
	a1, err := Dial(rt.Addr(), AgentConfig{Name: "w1", CPUs: 1, Library: addLibrary(t), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a1.Close() })
	if err := rt.RegisterTemplateSource(fanSrc); err != nil {
		t.Fatal(err)
	}
	run := func() {
		t.Helper()
		id, err := rt.StartProcess("Fan",
			map[string]ocr.Value{"xs": ocr.List(ocr.Num(1), ocr.Num(2))}, core.StartOptions{})
		if err != nil {
			t.Fatal(err)
		}
		in, err := rt.Wait(id, 15*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if in.Status != core.InstanceDone {
			t.Fatalf("instance %s (%s)", in.Status, in.FailureReason)
		}
	}
	run() // first batch on incarnation 1

	a1.PauseHeartbeats()
	waitFor(t, "worker declared dead", func() bool {
		_, dead, _ := rt.Server.Stats()
		return dead == 1
	})

	a2, err := Dial(rt.Addr(), AgentConfig{Name: "w1", CPUs: 1, Library: addLibrary(t), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a2.Close() })
	if a2.Incarnation() <= a1.Incarnation() {
		t.Fatalf("rejoin incarnation %d not newer than %d", a2.Incarnation(), a1.Incarnation())
	}
	run() // second batch on the rejoined incarnation
	workers, dead, _ := rt.Server.Stats()
	if workers != 1 || dead != 1 {
		t.Fatalf("Stats after rejoin = %d workers, %d dead", workers, dead)
	}
}

// TestRemoteLateCompletionDropped: a frozen worker's job fails over and
// finishes elsewhere; when the original worker thaws and delivers its
// result under the old lease, the server drops it instead of double-
// delivering into the engine.
func TestRemoteLateCompletionDropped(t *testing.T) {
	started := make(chan struct{}, 1)
	block := make(chan struct{})
	w1lib := core.NewLibrary()
	w1lib.Register(core.Program{
		Name: "test.who",
		Run: func(core.ProgramCtx, map[string]ocr.Value) (map[string]ocr.Value, error) {
			started <- struct{}{}
			<-block
			return map[string]ocr.Value{"out": ocr.Str("from-w1")}, nil
		},
	})
	w2lib := core.NewLibrary()
	w2lib.Register(core.Program{
		Name: "test.who",
		Run: func(core.ProgramCtx, map[string]ocr.Value) (map[string]ocr.Value, error) {
			return map[string]ocr.Value{"out": ocr.Str("from-w2")}, nil
		},
	})
	srvLib := core.NewLibrary()
	srvLib.Register(core.Program{
		Name: "test.who",
		Run: func(core.ProgramCtx, map[string]ocr.Value) (map[string]ocr.Value, error) {
			return nil, fmt.Errorf("must not run on the server")
		},
	})

	rt2 := newRemote(t, srvLib)
	a1, err := Dial(rt2.Addr(), AgentConfig{Name: "w1", CPUs: 1, Library: w1lib, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a1.Close() })
	var blockOnce sync.Once
	unblock := func() { blockOnce.Do(func() { close(block) }) }
	t.Cleanup(unblock) // LIFO: thaw the hung program before a1.Close waits on it

	if err := rt2.RegisterTemplateSource(`
PROCESS Who {
  OUTPUT r;
  ACTIVITY W { CALL test.who(); OUT out; MAP out -> r; }
}`); err != nil {
		t.Fatal(err)
	}
	id, err := rt2.StartProcess("Who", nil, core.StartOptions{})
	if err != nil {
		t.Fatal(err)
	}
	<-started // the job is running (and stuck) on w1

	// Bring the understudy up, then freeze w1.
	a2, err := Dial(rt2.Addr(), AgentConfig{Name: "w2", CPUs: 1, Library: w2lib, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a2.Close() })
	a1.PauseHeartbeats()

	in, err := rt2.Wait(id, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if in.Status != core.InstanceDone || in.Outputs["r"].AsStr() != "from-w2" {
		t.Fatalf("instance %s outputs %v, want from-w2", in.Status, in.Outputs)
	}

	// Thaw w1: its completion travels the still-open connection under the
	// pre-failover lease and must be dropped.
	unblock()
	waitFor(t, "stale completion dropped", func() bool {
		_, _, dropped := rt2.Server.Stats()
		return dropped == 1
	})
	// The engine's answer is unchanged.
	status, outputs, err := rt2.InstanceStatus(id)
	if err != nil || status != core.InstanceDone || outputs["r"].AsStr() != "from-w2" {
		t.Fatalf("after stale completion: %v %v %v", status, outputs, err)
	}
}

const chainSrc = `
PROCESS Chain {
  INPUT x;
  OUTPUT r;
  ACTIVITY A { CALL test.add(a = x, b = x);  OUT sum; MAP sum -> w1; }
  ACTIVITY B { CALL test.add(a = w1, b = x); OUT sum; MAP sum -> w2; }
  ACTIVITY C { CALL test.add(a = w2, b = x); OUT sum; MAP sum -> r; }
  A -> B; B -> C;
}`

// TestAgentWorkersDoNotAccumulate: the agent runs a launch on a parked
// worker when it has one, and parks at most one per CPU, so 750 activities
// later there are as many goroutines as before. Close takes the parked
// workers down with the connection.
func TestAgentWorkersDoNotAccumulate(t *testing.T) {
	// test.pair holds both CPUs at once, so the agent has had two workers.
	entered, release := make(chan struct{}, 2), make(chan struct{})
	lib := addLibrary(t)
	lib.Register(core.Program{
		Name: "test.pair",
		Run: func(core.ProgramCtx, map[string]ocr.Value) (map[string]ocr.Value, error) {
			entered <- struct{}{}
			<-release
			return map[string]ocr.Value{"r": ocr.Num(1)}, nil
		},
	})
	rt := newRemote(t, lib)
	a, err := Dial(rt.Addr(), AgentConfig{Name: "w1", CPUs: 2, Library: lib, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() }) // returns once every worker has exited
	for _, src := range []string{chainSrc, `
PROCESS Pair {
  OUTPUT done;
  BLOCK F PARALLEL OVER [1, 2] AS x {
    MAP results -> done;
    OUTPUT r;
    ACTIVITY P { CALL test.pair(); OUT r; MAP r -> r; }
  }
}`} {
		if err := rt.RegisterTemplateSource(src); err != nil {
			t.Fatal(err)
		}
	}
	wait := func(id string) {
		t.Helper()
		if in, err := rt.Wait(id, 10*time.Second); err != nil || in.Status != core.InstanceDone {
			t.Fatalf("instance %s: %v", id, err)
		}
	}
	pair, err := rt.StartProcess("Pair", nil, core.StartOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var released sync.Once
	releasePair := func() { released.Do(func() { close(release) }) }
	defer releasePair() // before the cleanup's Close, which waits for the workers
	waitFor(t, "both CPUs are running test.pair", func() bool { return len(entered) == 2 })
	releasePair()
	wait(pair)
	waitFor(t, "both workers are parked", func() bool {
		a.mu.Lock()
		defer a.mu.Unlock()
		return len(a.running) == 0 && len(a.idle) == 2
	})
	before := runtime.NumGoroutine()
	for i := 0; i < 250; i++ {
		id, err := rt.StartProcess("Chain", map[string]ocr.Value{"x": ocr.Num(1)}, core.StartOptions{})
		if err != nil {
			t.Fatal(err)
		}
		wait(id)
	}
	waitFor(t, "the agent's workers are back to what they were", func() bool { return runtime.NumGoroutine() <= before })
}

func waitFor(t *testing.T, what string, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !ok() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
