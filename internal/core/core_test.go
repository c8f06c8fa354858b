package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"bioopera/internal/cluster"
	"bioopera/internal/ocr"
	"bioopera/internal/sched"
	"bioopera/internal/sim"
	"bioopera/internal/store"
)

// testSpec is a small 2-node cluster.
func testSpec() cluster.Spec {
	return cluster.Spec{Name: "test", Nodes: []cluster.NodeSpec{
		{Name: "n1", CPUs: 2, Speed: 1, OS: "linux"},
		{Name: "n2", CPUs: 2, Speed: 1, OS: "solaris"},
	}}
}

// testLibrary is a library of the arithmetic/test programs.
func testLibrary(t *testing.T) *Library {
	t.Helper()
	lib := NewLibrary()
	addTestPrograms(t, lib)
	return lib
}

// addTestPrograms registers the test.* programs on lib.
func addTestPrograms(t *testing.T, lib *Library) {
	t.Helper()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(lib.RegisterFunc("test.add", func(_ ProgramCtx, args map[string]ocr.Value) (map[string]ocr.Value, error) {
		return map[string]ocr.Value{"sum": ocr.Num(args["a"].AsNum() + args["b"].AsNum())}, nil
	}))
	must(lib.RegisterFunc("test.double", func(_ ProgramCtx, args map[string]ocr.Value) (map[string]ocr.Value, error) {
		return map[string]ocr.Value{"out": ocr.Num(2 * args["x"].AsNum())}, nil
	}))
	must(lib.RegisterFunc("test.echo", func(_ ProgramCtx, args map[string]ocr.Value) (map[string]ocr.Value, error) {
		return map[string]ocr.Value{"out": args["x"]}, nil
	}))
	must(lib.RegisterFunc("test.constant", func(_ ProgramCtx, _ map[string]ocr.Value) (map[string]ocr.Value, error) {
		return map[string]ocr.Value{"out": ocr.Str("const")}, nil
	}))
	must(lib.RegisterFunc("test.fail", func(_ ProgramCtx, _ map[string]ocr.Value) (map[string]ocr.Value, error) {
		return nil, errors.New("deliberate failure")
	}))
	// Fails until attempt reaches the requested threshold.
	must(lib.RegisterFunc("test.flaky", func(ctx ProgramCtx, args map[string]ocr.Value) (map[string]ocr.Value, error) {
		if ctx.Attempt < args["until"].AsInt() {
			return nil, fmt.Errorf("flaky attempt %d", ctx.Attempt)
		}
		return map[string]ocr.Value{"out": ocr.Str("recovered")}, nil
	}))
}

// newRuntime builds a sim runtime with the test library.
func newRuntime(t *testing.T, cfg SimConfig) *SimRuntime {
	t.Helper()
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Spec.Nodes == nil {
		cfg.Spec = testSpec()
	}
	if cfg.Library == nil {
		cfg.Library = testLibrary(t)
	}
	rt, err := NewSimRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func register(t *testing.T, rt *SimRuntime, src string) {
	t.Helper()
	if err := rt.Engine.RegisterTemplateSource(src); err != nil {
		t.Fatal(err)
	}
}

func start(t *testing.T, rt *SimRuntime, tpl string, inputs map[string]ocr.Value) string {
	t.Helper()
	id, err := rt.Engine.StartProcess(tpl, inputs, StartOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func finished(t *testing.T, rt *SimRuntime, id string) *Instance {
	t.Helper()
	in, ok := rt.Engine.Instance(id)
	if !ok {
		t.Fatalf("instance %s vanished", id)
	}
	if in.Status != InstanceDone {
		t.Fatalf("instance %s = %s (%s)", id, in.Status, in.FailureReason)
	}
	return in
}

const linearSrc = `
PROCESS Linear {
  INPUT a, b;
  OUTPUT result;
  ACTIVITY Add {
    CALL test.add(a = a, b = b);
    OUT sum;
    MAP sum -> partial;
  }
  ACTIVITY Double {
    CALL test.double(x = partial);
    OUT out;
    MAP out -> result;
  }
  Add -> Double;
}
`

func TestLinearProcess(t *testing.T) {
	rt := newRuntime(t, SimConfig{})
	register(t, rt, linearSrc)
	id := start(t, rt, "Linear", map[string]ocr.Value{"a": ocr.Num(3), "b": ocr.Num(4)})
	rt.Run()
	in := finished(t, rt, id)
	if got := in.Outputs["result"].AsNum(); got != 14 {
		t.Fatalf("result = %v, want 14", got)
	}
	if in.Activities != 2 {
		t.Fatalf("activities = %d, want 2", in.Activities)
	}
	if in.CPU <= 0 || in.WALL(rt.Sim.Now()) <= 0 {
		t.Fatalf("accounting: cpu=%v wall=%v", in.CPU, in.WALL(rt.Sim.Now()))
	}
	if in.CPUPerActivity() != in.CPU/2 {
		t.Fatalf("cpu/activity = %v", in.CPUPerActivity())
	}
}

const branchSrc = `
PROCESS Branch {
  INPUT queue_file;
  OUTPUT result;
  ACTIVITY UserIn {
    CALL test.echo(x = queue_file);
    OUT out;
    MAP out -> qf;
  }
  ACTIVITY Generate {
    CALL test.constant();
    OUT out;
    MAP out -> qf;
  }
  ACTIVITY Use {
    CALL test.echo(x = qf);
    OUT out;
    MAP out -> result;
  }
  UserIn -> Generate IF !defined(queue_file);
  UserIn -> Use IF defined(queue_file);
  Generate -> Use;
}
`

func TestConditionalBranchTaken(t *testing.T) {
	// queue_file provided: Generate is dead, Use reads it directly.
	rt := newRuntime(t, SimConfig{})
	register(t, rt, branchSrc)
	id := start(t, rt, "Branch", map[string]ocr.Value{"queue_file": ocr.Str("user-queue")})
	rt.Run()
	in := finished(t, rt, id)
	if got := in.Outputs["result"].AsStr(); got != "user-queue" {
		t.Fatalf("result = %q", got)
	}
	if in.Activities != 2 {
		t.Fatalf("activities = %d, want 2 (Generate skipped)", in.Activities)
	}
}

func TestConditionalBranchDeadPath(t *testing.T) {
	// No queue_file: Generate runs and produces it.
	rt := newRuntime(t, SimConfig{})
	register(t, rt, branchSrc)
	id := start(t, rt, "Branch", nil)
	rt.Run()
	in := finished(t, rt, id)
	if got := in.Outputs["result"].AsStr(); got != "const" {
		t.Fatalf("result = %q", got)
	}
	if in.Activities != 3 {
		t.Fatalf("activities = %d, want 3", in.Activities)
	}
}

const parallelSrc = `
PROCESS Par {
  INPUT xs;
  OUTPUT doubled;
  BLOCK Fan PARALLEL OVER xs AS x {
    MAP results -> doubled;
    OUTPUT y;
    ACTIVITY D {
      CALL test.double(x = x);
      OUT out;
      MAP out -> y;
    }
  }
}
`

func TestParallelBlock(t *testing.T) {
	rt := newRuntime(t, SimConfig{})
	register(t, rt, parallelSrc)
	xs := ocr.List(ocr.Num(1), ocr.Num(2), ocr.Num(3), ocr.Num(4), ocr.Num(5))
	id := start(t, rt, "Par", map[string]ocr.Value{"xs": xs})
	rt.Run()
	in := finished(t, rt, id)
	got := in.Outputs["doubled"]
	if got.Len() != 5 {
		t.Fatalf("results len = %d", got.Len())
	}
	// Order must match the input list, not completion order.
	for i := 0; i < 5; i++ {
		if got.At(i).AsNum() != float64(2*(i+1)) {
			t.Fatalf("results = %v", got)
		}
	}
	if in.Activities != 5 {
		t.Fatalf("activities = %d", in.Activities)
	}
}

func TestParallelBlockEmptyList(t *testing.T) {
	rt := newRuntime(t, SimConfig{})
	register(t, rt, parallelSrc)
	id := start(t, rt, "Par", map[string]ocr.Value{"xs": ocr.List()})
	rt.Run()
	in := finished(t, rt, id)
	if in.Outputs["doubled"].Len() != 0 || in.Outputs["doubled"].Kind() != ocr.KindList {
		t.Fatalf("empty fan-out = %v", in.Outputs["doubled"])
	}
	if in.Activities != 0 {
		t.Fatalf("activities = %d", in.Activities)
	}
}

func TestParallelismActuallyParallel(t *testing.T) {
	// 4 CPUs, 8 one-second activities → wall ≈ 2s not 8s.
	rt := newRuntime(t, SimConfig{})
	register(t, rt, parallelSrc)
	var xs []ocr.Value
	for i := 0; i < 8; i++ {
		xs = append(xs, ocr.Num(float64(i)))
	}
	id := start(t, rt, "Par", map[string]ocr.Value{"xs": ocr.List(xs...)})
	end := rt.Run()
	finished(t, rt, id)
	if end > sim.Time(3*time.Second) {
		t.Fatalf("8 unit tasks on 4 cpus took %v", end)
	}
	if end < sim.Time(2*time.Second) {
		t.Fatalf("impossible speedup: %v", end)
	}
}

const subprocSrc = `
PROCESS Inner {
  INPUT v;
  OUTPUT w;
  ACTIVITY T {
    CALL test.double(x = v);
    OUT out;
    MAP out -> w;
  }
}
PROCESS Outer {
  INPUT v;
  OUTPUT final;
  SUBPROCESS Sub USES "Inner" {
    IN v = v + 1;
    OUT w;
    MAP w -> final;
  }
}
`

func TestSubprocessLateBinding(t *testing.T) {
	rt := newRuntime(t, SimConfig{})
	register(t, rt, subprocSrc)
	id := start(t, rt, "Outer", map[string]ocr.Value{"v": ocr.Num(5)})
	rt.Run()
	in := finished(t, rt, id)
	if got := in.Outputs["final"].AsNum(); got != 12 {
		t.Fatalf("final = %v, want 12", got)
	}
}

func TestLateBindingPicksUpNewTemplate(t *testing.T) {
	rt := newRuntime(t, SimConfig{})
	register(t, rt, subprocSrc)
	// Replace Inner BEFORE starting Outer: the subprocess must run the
	// new version (late binding, §3.1).
	register(t, rt, `
PROCESS Inner {
  INPUT v;
  OUTPUT w;
  ACTIVITY T {
    CALL test.echo(x = "replaced");
    OUT out;
    MAP out -> w;
  }
}`)
	id := start(t, rt, "Outer", map[string]ocr.Value{"v": ocr.Num(5)})
	rt.Run()
	in := finished(t, rt, id)
	if got := in.Outputs["final"].AsStr(); got != "replaced" {
		t.Fatalf("final = %q, want replaced", got)
	}
}

func TestRetrySucceeds(t *testing.T) {
	rt := newRuntime(t, SimConfig{})
	register(t, rt, `
PROCESS Flaky {
  OUTPUT r;
  ACTIVITY F {
    CALL test.flaky(until = 2);
    OUT out;
    MAP out -> r;
    RETRY 3;
  }
}`)
	id := start(t, rt, "Flaky", nil)
	rt.Run()
	in := finished(t, rt, id)
	if got := in.Outputs["r"].AsStr(); got != "recovered" {
		t.Fatalf("r = %q", got)
	}
	if in.Failures != 2 || in.Retries != 2 {
		t.Fatalf("failures/retries = %d/%d, want 2/2", in.Failures, in.Retries)
	}
}

func TestRetryExhaustedAborts(t *testing.T) {
	rt := newRuntime(t, SimConfig{})
	register(t, rt, `
PROCESS Doomed {
  ACTIVITY F {
    CALL test.fail();
    RETRY 2;
  }
}`)
	id := start(t, rt, "Doomed", nil)
	rt.Run()
	in, _ := rt.Engine.Instance(id)
	if in.Status != InstanceFailed {
		t.Fatalf("status = %s", in.Status)
	}
	if !strings.Contains(in.FailureReason, "deliberate failure") {
		t.Fatalf("reason = %q", in.FailureReason)
	}
}

func TestOnFailureIgnore(t *testing.T) {
	rt := newRuntime(t, SimConfig{})
	register(t, rt, `
PROCESS Tolerant {
  OUTPUT r;
  ACTIVITY F {
    CALL test.fail();
    OUT out;
    MAP out -> maybe;
    ON FAILURE IGNORE;
  }
  ACTIVITY After {
    CALL test.echo(x = defined(maybe));
    OUT out;
    MAP out -> r;
  }
  F -> After;
}`)
	id := start(t, rt, "Tolerant", nil)
	rt.Run()
	in := finished(t, rt, id)
	// maybe is mapped as null → defined() false.
	if in.Outputs["r"].AsBool() {
		t.Fatalf("r = %v, want false (null output)", in.Outputs["r"])
	}
}

func TestOnFailureAlternative(t *testing.T) {
	rt := newRuntime(t, SimConfig{})
	register(t, rt, `
PROCESS WithAlt {
  OUTPUT r;
  ACTIVITY Main {
    CALL test.fail();
    OUT out;
    MAP out -> r;
    ON FAILURE ALTERNATIVE Backup;
  }
  ACTIVITY Backup {
    CALL test.constant();
    OUT out;
  }
  ACTIVITY After {
    CALL test.echo(x = r);
    OUT out;
    MAP out -> r;
  }
  Main -> After;
}`)
	id := start(t, rt, "WithAlt", nil)
	rt.Run()
	in := finished(t, rt, id)
	if got := in.Outputs["r"].AsStr(); got != "const" {
		t.Fatalf("r = %q, want const (from Backup via Main's MAP)", got)
	}
	// Backup must not have run as a root at process start; Main's
	// failure does not count as an executed activity.
	if in.Activities != 2 {
		t.Fatalf("activities = %d, want 2 (Backup, After)", in.Activities)
	}
}

func TestAlternativeNotAutoStarted(t *testing.T) {
	rt := newRuntime(t, SimConfig{})
	register(t, rt, `
PROCESS AltIdle {
  OUTPUT r;
  ACTIVITY Main {
    CALL test.constant();
    OUT out;
    MAP out -> r;
    ON FAILURE ALTERNATIVE Backup;
  }
  ACTIVITY Backup {
    CALL test.fail();
  }
}`)
	id := start(t, rt, "AltIdle", nil)
	rt.Run()
	in := finished(t, rt, id)
	if in.Activities != 1 {
		t.Fatalf("activities = %d, want 1 (Backup must stay idle)", in.Activities)
	}
	if in.Outputs["r"].AsStr() != "const" {
		t.Fatalf("r = %v", in.Outputs["r"])
	}
}

func TestNodeCrashReschedules(t *testing.T) {
	rt := newRuntime(t, SimConfig{})
	register(t, rt, parallelSrc)
	var xs []ocr.Value
	for i := 0; i < 12; i++ {
		xs = append(xs, ocr.Num(float64(i)))
	}
	id := start(t, rt, "Par", map[string]ocr.Value{"xs": ocr.List(xs...)})
	// Crash n1 mid-run, restore later.
	rt.Sim.At(sim.Time(500*time.Millisecond), func(sim.Time) { rt.Cluster.CrashNode("n1") })
	rt.Sim.At(sim.Time(5*time.Second), func(sim.Time) { rt.Cluster.RestoreNode("n1") })
	rt.Run()
	in := finished(t, rt, id)
	if in.Failures == 0 {
		t.Fatal("crash produced no observed failures")
	}
	got := in.Outputs["doubled"]
	for i := 0; i < 12; i++ {
		if got.At(i).AsNum() != float64(2*i) {
			t.Fatalf("results corrupted after crash: %v", got)
		}
	}
}

func TestWholeClusterFailure(t *testing.T) {
	// §3.5: "BioOpera successfully coped with failures in the entire
	// cluster".
	rt := newRuntime(t, SimConfig{})
	register(t, rt, parallelSrc)
	var xs []ocr.Value
	for i := 0; i < 8; i++ {
		xs = append(xs, ocr.Num(float64(i)))
	}
	id := start(t, rt, "Par", map[string]ocr.Value{"xs": ocr.List(xs...)})
	rt.Sim.At(sim.Time(500*time.Millisecond), func(sim.Time) {
		rt.Cluster.CrashNode("n1")
		rt.Cluster.CrashNode("n2")
	})
	rt.Sim.At(sim.Time(time.Hour), func(sim.Time) {
		rt.Cluster.RestoreNode("n1")
		rt.Cluster.RestoreNode("n2")
	})
	rt.Run()
	finished(t, rt, id)
}

func TestSuspendGracefulResume(t *testing.T) {
	rt := newRuntime(t, SimConfig{})
	register(t, rt, parallelSrc)
	var xs []ocr.Value
	for i := 0; i < 10; i++ {
		xs = append(xs, ocr.Num(float64(i)))
	}
	id := start(t, rt, "Par", map[string]ocr.Value{"xs": ocr.List(xs...)})

	var runningAtCheck int
	rt.Sim.At(sim.Time(100*time.Millisecond), func(sim.Time) {
		if err := rt.Engine.Suspend(id, true); err != nil {
			t.Errorf("Suspend: %v", err)
		}
	})
	// Well after the in-flight jobs (1s each) finished: nothing new
	// must have started.
	rt.Sim.At(sim.Time(10*time.Second), func(sim.Time) {
		runningAtCheck = rt.Engine.RunningJobs()
	})
	rt.Sim.At(sim.Time(20*time.Second), func(sim.Time) {
		if err := rt.Engine.Resume(id); err != nil {
			t.Errorf("Resume: %v", err)
		}
	})
	rt.Run()
	if runningAtCheck != 0 {
		t.Fatalf("jobs running while suspended: %d", runningAtCheck)
	}
	in := finished(t, rt, id)
	if in.WALL(rt.Sim.Now()) < 20*time.Second {
		t.Fatalf("wall = %v, should include the suspension", in.WALL(rt.Sim.Now()))
	}
}

func TestSuspendForcedKillsJobs(t *testing.T) {
	rt := newRuntime(t, SimConfig{})
	register(t, rt, parallelSrc)
	xs := ocr.List(ocr.Num(1), ocr.Num(2))
	id := start(t, rt, "Par", map[string]ocr.Value{"xs": xs})
	rt.Sim.At(sim.Time(100*time.Millisecond), func(sim.Time) {
		rt.Engine.Suspend(id, false)
		if rt.Engine.RunningJobs() != 0 {
			t.Error("forced suspend left jobs running")
		}
	})
	rt.Sim.At(sim.Time(time.Second), func(sim.Time) { rt.Engine.Resume(id) })
	rt.Run()
	finished(t, rt, id)
}

func TestAbort(t *testing.T) {
	rt := newRuntime(t, SimConfig{})
	register(t, rt, parallelSrc)
	xs := ocr.List(ocr.Num(1), ocr.Num(2), ocr.Num(3))
	id := start(t, rt, "Par", map[string]ocr.Value{"xs": xs})
	rt.Sim.At(sim.Time(100*time.Millisecond), func(sim.Time) {
		if err := rt.Engine.Abort(id, "user request"); err != nil {
			t.Errorf("Abort: %v", err)
		}
	})
	rt.Run()
	in, _ := rt.Engine.Instance(id)
	if in.Status != InstanceFailed || !strings.Contains(in.FailureReason, "user request") {
		t.Fatalf("instance = %s (%s)", in.Status, in.FailureReason)
	}
	if rt.Engine.RunningJobs() != 0 || rt.Engine.QueueLen() != 0 {
		t.Fatal("abort left work in flight")
	}
}

func TestServerCrashRecover(t *testing.T) {
	// The paper's event 3: server crash → on recovery, processes
	// automatically resume; in-flight TEUs are re-run.
	st := store.NewMem()
	rt := newRuntime(t, SimConfig{Store: st})
	register(t, rt, parallelSrc)
	var xs []ocr.Value
	for i := 0; i < 10; i++ {
		xs = append(xs, ocr.Num(float64(i)))
	}
	id := start(t, rt, "Par", map[string]ocr.Value{"xs": ocr.List(xs...)})

	rt.Sim.At(sim.Time(1500*time.Millisecond), func(sim.Time) {
		rt.Engine.Crash()
		n, err := rt.Engine.Recover()
		if err != nil {
			t.Errorf("Recover: %v", err)
		}
		if n != 1 {
			t.Errorf("recovered %d instances, want 1", n)
		}
	})
	rt.Run()
	in := finished(t, rt, id)
	got := in.Outputs["doubled"]
	if got.Len() != 10 {
		t.Fatalf("results len = %d", got.Len())
	}
	for i := 0; i < 10; i++ {
		if got.At(i).AsNum() != float64(2*i) {
			t.Fatalf("results after crash = %v", got)
		}
	}
}

func TestColdRestartFromDisk(t *testing.T) {
	// Full restart: new engine object over the same disk store resumes
	// the computation. This is the strongest recovery claim.
	dir := t.TempDir()
	st, err := store.OpenDisk(dir, store.DiskOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	rt := newRuntime(t, SimConfig{Store: st})
	register(t, rt, linearSrc)
	id := start(t, rt, "Linear", map[string]ocr.Value{"a": ocr.Num(1), "b": ocr.Num(2)})
	// Run only 0.5s: Add (1s) has not finished; nothing completed yet.
	rt.RunUntil(sim.Time(500 * time.Millisecond))
	st.Close()

	st2, err := store.OpenDisk(dir, store.DiskOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	rt2 := newRuntime(t, SimConfig{Store: st2})
	n, err := rt2.Engine.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("recovered %d", n)
	}
	rt2.Run()
	in := finished(t, rt2, id)
	if got := in.Outputs["result"].AsNum(); got != 6 {
		t.Fatalf("result = %v, want 6", got)
	}
	st2.Close()
}

func TestColdRestartMidParallel(t *testing.T) {
	dir := t.TempDir()
	st, err := store.OpenDisk(dir, store.DiskOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	rt := newRuntime(t, SimConfig{Store: st})
	register(t, rt, parallelSrc)
	var xs []ocr.Value
	for i := 0; i < 9; i++ {
		xs = append(xs, ocr.Num(float64(i)))
	}
	id := start(t, rt, "Par", map[string]ocr.Value{"xs": ocr.List(xs...)})
	// Stop mid-flight: some elements done, some running, some queued.
	rt.RunUntil(sim.Time(1200 * time.Millisecond))
	doneBefore := 0
	if in, ok := rt.Engine.Instance(id); ok {
		doneBefore = in.Activities
	}
	if doneBefore == 0 || doneBefore == 9 {
		t.Fatalf("bad cut point: %d activities done", doneBefore)
	}
	st.Close()

	st2, err := store.OpenDisk(dir, store.DiskOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	rt2 := newRuntime(t, SimConfig{Store: st2})
	if _, err := rt2.Engine.Recover(); err != nil {
		t.Fatal(err)
	}
	rt2.Run()
	in := finished(t, rt2, id)
	got := in.Outputs["doubled"]
	for i := 0; i < 9; i++ {
		if got.At(i).AsNum() != float64(2*i) {
			t.Fatalf("results after cold restart = %v", got)
		}
	}
	// Completed elements were NOT re-run (no lost work).
	if in.Activities > 9+4 /* at most the in-flight ones repeat */ {
		t.Fatalf("too many re-runs: %d activities", in.Activities)
	}
}

func TestWhatIf(t *testing.T) {
	rt := newRuntime(t, SimConfig{})
	register(t, rt, parallelSrc)
	var xs []ocr.Value
	for i := 0; i < 10; i++ {
		xs = append(xs, ocr.Num(float64(i)))
	}
	id := start(t, rt, "Par", map[string]ocr.Value{"xs": ocr.List(xs...)})
	var impact OutageImpact
	rt.Sim.At(sim.Time(100*time.Millisecond), func(sim.Time) {
		impact = rt.Engine.WhatIf([]string{"n1"})
	})
	rt.Run()
	finished(t, rt, id)
	if len(impact.Jobs) != 2 {
		t.Fatalf("impact jobs = %d, want 2 (n1's two slots)", len(impact.Jobs))
	}
	if len(impact.Instances) != 1 || impact.Instances[0] != id {
		t.Fatalf("impact instances = %v", impact.Instances)
	}
	if impact.RemainingCPUs != 2 {
		t.Fatalf("remaining cpus = %d", impact.RemainingCPUs)
	}
	if len(impact.Stranded) != 0 {
		t.Fatalf("stranded = %v, nothing is node-pinned", impact.Stranded)
	}
	prog, ok := impact.Progress[id]
	if !ok || prog < 0 || prog >= 1 {
		t.Fatalf("impact progress = %v (%v)", prog, ok)
	}
	if _, ok := impact.Priority[id]; !ok {
		t.Fatal("impact priority missing")
	}
}

func TestWhatIfStranded(t *testing.T) {
	lib := testLibrary(t)
	lib.Register(Program{
		Name: "test.pinned",
		Run: func(_ ProgramCtx, _ map[string]ocr.Value) (map[string]ocr.Value, error) {
			return map[string]ocr.Value{"out": ocr.Null}, nil
		},
		OS: "solaris",
	})
	rt := newRuntime(t, SimConfig{Library: lib})
	register(t, rt, `
PROCESS Pinned {
  ACTIVITY P {
    CALL test.pinned();
    OUT out;
  }
}`)
	start(t, rt, "Pinned", nil)
	var impact OutageImpact
	rt.Sim.At(sim.Time(100*time.Millisecond), func(sim.Time) {
		impact = rt.Engine.WhatIf([]string{"n2"}) // the only solaris node
	})
	rt.Run()
	if len(impact.Stranded) != 1 {
		t.Fatalf("stranded = %v, want the solaris-only activity", impact.Stranded)
	}
}

func TestPriorityOrdersQueue(t *testing.T) {
	// One CPU total: priority decides execution order.
	spec := cluster.Spec{Name: "tiny", Nodes: []cluster.NodeSpec{
		{Name: "solo", CPUs: 1, Speed: 1, OS: "linux"},
	}}
	lib := NewLibrary()
	var order []string
	lib.RegisterFunc("test.mark", func(ctx ProgramCtx, args map[string]ocr.Value) (map[string]ocr.Value, error) {
		order = append(order, args["tag"].AsStr())
		return map[string]ocr.Value{"out": ocr.Null}, nil
	})
	rt := newRuntime(t, SimConfig{Spec: spec, Library: lib})
	register(t, rt, `
PROCESS Mark {
  INPUT tag;
  ACTIVITY M {
    CALL test.mark(tag = tag);
    OUT out;
  }
}`)
	// Start low-priority first; high-priority should overtake in queue.
	rt.Engine.StartProcess("Mark", map[string]ocr.Value{"tag": ocr.Str("low1")}, StartOptions{Priority: 0})
	rt.Engine.StartProcess("Mark", map[string]ocr.Value{"tag": ocr.Str("low2")}, StartOptions{Priority: 0})
	rt.Engine.StartProcess("Mark", map[string]ocr.Value{"tag": ocr.Str("high")}, StartOptions{Priority: 9})
	rt.Run()
	// low1 was dispatched immediately (CPU free); then high jumps low2.
	want := []string{"low1", "high", "low2"}
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (time.Duration, int, ocr.Value) {
		rt := newRuntime(t, SimConfig{Seed: 42})
		register(t, rt, parallelSrc)
		var xs []ocr.Value
		for i := 0; i < 20; i++ {
			xs = append(xs, ocr.Num(float64(i)))
		}
		id := start(t, rt, "Par", map[string]ocr.Value{"xs": ocr.List(xs...)})
		rt.Sim.At(sim.Time(800*time.Millisecond), func(sim.Time) { rt.Cluster.CrashNode("n1") })
		rt.Sim.At(sim.Time(3*time.Second), func(sim.Time) { rt.Cluster.RestoreNode("n1") })
		end := rt.Run()
		in := finished(t, rt, id)
		return time.Duration(end), in.Activities, in.Outputs["doubled"]
	}
	e1, a1, r1 := run()
	e2, a2, r2 := run()
	if e1 != e2 || a1 != a2 || !r1.Equal(r2) {
		t.Fatalf("non-deterministic: (%v,%d) vs (%v,%d)", e1, a1, e2, a2)
	}
}

func TestEngineEventsPersisted(t *testing.T) {
	rt := newRuntime(t, SimConfig{})
	register(t, rt, linearSrc)
	id := start(t, rt, "Linear", map[string]ocr.Value{"a": ocr.Num(1), "b": ocr.Num(1)})
	rt.Run()
	finished(t, rt, id)
	var kinds []string
	rt.Store.Events(1, func(e store.Event) error {
		ev, err := DecodeEvent(e.Data)
		if err != nil {
			t.Fatalf("journal record %d: %v", e.Seq, err)
		}
		kinds = append(kinds, string(ev.Kind))
		return nil
	})
	joined := strings.Join(kinds, "\n")
	for _, want := range []string{"instance-started", "task-dispatched", "task-ended", "instance-done"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("event journal missing %q:\n%s", want, joined)
		}
	}
}

func TestHistoryArchival(t *testing.T) {
	rt := newRuntime(t, SimConfig{})
	register(t, rt, linearSrc)
	id := start(t, rt, "Linear", map[string]ocr.Value{"a": ocr.Num(1), "b": ocr.Num(1)})
	rt.Run()
	finished(t, rt, id)
	// Instance space is clean; history holds the records.
	ikvs, _ := rt.Store.List(store.Instance)
	if len(ikvs) != 0 {
		t.Fatalf("instance space still has %d records", len(ikvs))
	}
	hkvs, _ := rt.Store.List(store.History)
	if len(hkvs) < 2 { // meta + root scope
		t.Fatalf("history has %d records", len(hkvs))
	}
}

// TestInstanceIDsNeverReused: a new engine over a store that already holds
// instances — one archived, one left unfinished by a crash, and Recover
// never called — must mint a fresh ID. Reusing p0001 would overwrite the
// first run's History records: the provenance the store exists to keep.
func TestInstanceIDsNeverReused(t *testing.T) {
	st := store.NewMem()
	rt := newRuntime(t, SimConfig{Store: st})
	register(t, rt, linearSrc)
	first := start(t, rt, "Linear", map[string]ocr.Value{"a": ocr.Num(1), "b": ocr.Num(1)})
	rt.Run()
	finished(t, rt, first)
	unfinished := start(t, rt, "Linear", map[string]ocr.Value{"a": ocr.Num(2), "b": ocr.Num(2)})
	rt.Engine.Crash()

	rt2 := newRuntime(t, SimConfig{Store: st})
	register(t, rt2, linearSrc)
	third := start(t, rt2, "Linear", map[string]ocr.Value{"a": ocr.Num(3), "b": ocr.Num(3)})
	if third == first || third == unfinished {
		t.Fatalf("second engine minted %s again (earlier: %s archived, %s unfinished)", third, first, unfinished)
	}
	rt2.Run()
	finished(t, rt2, third)
	for id, want := range map[string]float64{first: 4, third: 12} {
		v, ok, err := st.Get(store.History, metaKey(id))
		if err != nil || !ok {
			t.Fatalf("history record of %s: ok=%v err=%v", id, ok, err)
		}
		m, err := DecodeInstanceMeta(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Outputs["result"].AsNum(); got != want {
			t.Errorf("history of %s has result %v, want %v — overwritten by a later run", id, got, want)
		}
	}
	if _, ok, _ := st.Get(store.Instance, metaKey(unfinished)); !ok {
		t.Errorf("unfinished instance %s lost its record", unfinished)
	}
	// An explicit ID is the caller's to choose, seeded counter or not.
	if id, err := rt2.Engine.StartProcess("Linear", nil, StartOptions{InstanceID: "mine"}); err != nil || id != "mine" {
		t.Errorf("explicit ID: %q, %v", id, err)
	}
}

func TestSetParameter(t *testing.T) {
	rt := newRuntime(t, SimConfig{})
	register(t, rt, `
PROCESS Tune {
  INPUT threshold;
  OUTPUT r;
  ACTIVITY Wait {
    CALL test.constant();
    OUT out;
  }
  ACTIVITY Use {
    CALL test.echo(x = threshold);
    OUT out;
    MAP out -> r;
  }
  Wait -> Use;
}`)
	id := start(t, rt, "Tune", map[string]ocr.Value{"threshold": ocr.Num(1)})
	rt.Sim.At(sim.Time(500*time.Millisecond), func(sim.Time) {
		// Change the parameter while Wait is still running; Use's
		// binding must see the new value.
		if err := rt.Engine.SetParameter(id, "threshold", ocr.Num(99)); err != nil {
			t.Errorf("SetParameter: %v", err)
		}
	})
	rt.Run()
	in := finished(t, rt, id)
	if got := in.Outputs["r"].AsNum(); got != 99 {
		t.Fatalf("r = %v, want 99", got)
	}
}

func TestMigrateKillAndRestart(t *testing.T) {
	rt := newRuntime(t, SimConfig{})
	register(t, rt, parallelSrc)
	xs := ocr.List(ocr.Num(1), ocr.Num(2))
	id, err := rt.Engine.StartProcess("Par", map[string]ocr.Value{"xs": xs}, StartOptions{Nice: true})
	if err != nil {
		t.Fatal(err)
	}
	// Overload n1 after dispatch; migration should kill its jobs and
	// the scheduler should resettle them on n2.
	migrated := 0
	rt.Sim.At(sim.Time(100*time.Millisecond), func(sim.Time) {
		rt.Cluster.SetExternalLoad("n1", 0.95)
		migrated = rt.Engine.Migrate(sched.MigrationPolicy{LoadThreshold: 0.6, TargetMaxLoad: 0.2})
	})
	rt.Run()
	finished(t, rt, id)
	if migrated == 0 {
		t.Fatal("nothing migrated off the hot node")
	}
}

// TestMigrateSparesSuspendedInstances: a gracefully suspended instance's
// running job may finish, but it is not asking to be placed again, so no
// migration sweep kills it to requeue; once resumed it is a victim again.
func TestMigrateSparesSuspendedInstances(t *testing.T) {
	retried := 0
	rt := newRuntime(t, SimConfig{
		Spec: cluster.Spec{Name: "two", Nodes: []cluster.NodeSpec{
			{Name: "n1", CPUs: 1, Speed: 1, OS: "linux"},
			{Name: "n2", CPUs: 1, Speed: 1, OS: "linux"},
		}},
		Library: slowLib(t),
		Options: Options{OnEvent: func(ev Event) {
			if ev.Kind == EvTaskRetried {
				retried++
			}
		}},
	})
	register(t, rt, slowParSrc)
	e := rt.Engine
	id := start(t, rt, "SlowPar", map[string]ocr.Value{"xs": ocr.List(ocr.Num(1))})
	rt.RunUntil(sim.Time(time.Minute))
	hot := ""
	for _, v := range rt.Cluster.Nodes() {
		if len(rt.Cluster.RunningOn(v.Name)) > 0 {
			hot = v.Name
		}
	}
	if hot == "" {
		t.Fatal("nothing running")
	}
	if err := rt.Cluster.SetExternalLoad(hot, 0.95); err != nil {
		t.Fatal(err)
	}
	if err := e.Suspend(id, true); err != nil {
		t.Fatal(err)
	}
	p := sched.MigrationPolicy{LoadThreshold: 0.6, TargetMaxLoad: 0.2}
	if n := e.Migrate(p); n != 0 {
		t.Fatalf("Migrate killed %d jobs of a suspended instance, want 0", n)
	}
	if err := e.Resume(id); err != nil {
		t.Fatal(err)
	}
	if n := e.Migrate(p); n != 1 {
		t.Fatalf("Migrate after Resume killed %d jobs, want 1", n)
	}
	rt.Run()
	finished(t, rt, id)
	if retried != 1 {
		t.Fatalf("retried = %d, want the one migrated job", retried)
	}
}

func TestErrorsSurfaced(t *testing.T) {
	rt := newRuntime(t, SimConfig{})
	if _, err := rt.Engine.StartProcess("nope", nil, StartOptions{}); !errors.Is(err, ErrUnknownTemplate) {
		t.Fatalf("err = %v", err)
	}
	if err := rt.Engine.Suspend("nope", true); !errors.Is(err, ErrUnknownInstance) {
		t.Fatalf("err = %v", err)
	}
	register(t, rt, linearSrc)
	id := start(t, rt, "Linear", map[string]ocr.Value{"a": ocr.Num(1), "b": ocr.Num(1)})
	rt.Run()
	finished(t, rt, id)
	if err := rt.Engine.Resume(id); !errors.Is(err, ErrBadState) {
		t.Fatalf("Resume on done instance = %v", err)
	}
	if err := rt.Engine.Abort(id, "x"); !errors.Is(err, ErrBadState) {
		t.Fatalf("Abort on done instance = %v", err)
	}
}

func TestUnregisteredProgramFailsInstance(t *testing.T) {
	rt := newRuntime(t, SimConfig{})
	register(t, rt, `
PROCESS Ghost {
  ACTIVITY G {
    CALL no.such.program();
  }
}`)
	id := start(t, rt, "Ghost", nil)
	rt.Run()
	in, _ := rt.Engine.Instance(id)
	if in.Status != InstanceFailed || !strings.Contains(in.FailureReason, "unregistered") {
		t.Fatalf("instance = %s (%s)", in.Status, in.FailureReason)
	}
}

// checkCompactsItself is the self-compaction check the sim and local
// runtimes share. run drives Par over 40 elements on a disk store whose
// 256-byte segments put its trigger at 4 KiB, stops wherever it likes, and
// returns the instance. No runtime asks the store to compact: it must have
// compacted itself, keep what a restart replays under twice its trigger, and
// reopen from its base onto a run that finishes with every result.
func checkCompactsItself(t *testing.T, run func(st *store.Disk, xs ocr.Value) string) {
	t.Helper()
	dir := t.TempDir()
	open := func() *store.Disk {
		t.Helper()
		st, err := store.OpenDisk(dir, store.DiskOptions{NoSync: true, SegmentSize: 256})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	var xs []ocr.Value
	for i := 0; i < 40; i++ {
		xs = append(xs, ocr.Num(float64(i)))
	}
	st := open()
	id := run(st, ocr.List(xs...))
	if s := st.Stats(); s.SnapshotSeq == 0 || s.SnapshotFailures != 0 || s.WALBytesSinceBase >= 2*s.WALCompactAt {
		t.Fatalf("store did not compact itself: snapshot seq %d, %d failures, %d log bytes since the base (trigger %d)",
			s.SnapshotSeq, s.SnapshotFailures, s.WALBytesSinceBase, s.WALCompactAt)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st = open()
	defer st.Close()
	rt := newRuntime(t, SimConfig{Store: st})
	if _, err := rt.Engine.Recover(); err != nil {
		t.Fatal(err)
	}
	rt.Run()
	v, ok, err := st.Get(store.History, metaKey(id))
	if err != nil || !ok {
		t.Fatalf("history record of %s: ok=%v err=%v", id, ok, err)
	}
	m, err := DecodeInstanceMeta(v)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if m.Outputs["doubled"].At(i).AsNum() != float64(2*i) {
			t.Fatalf("results after reopening from the base = %v", m.Outputs["doubled"])
		}
	}
}

// TestSimStoreCompactsItself interrupts the run mid-way, so the reopened
// store recovers a running instance from its base plus the log after it.
func TestSimStoreCompactsItself(t *testing.T) {
	checkCompactsItself(t, func(st *store.Disk, xs ocr.Value) string {
		rt := newRuntime(t, SimConfig{Store: st})
		register(t, rt, parallelSrc)
		id := start(t, rt, "Par", map[string]ocr.Value{"xs": xs})
		rt.RunUntil(sim.Time(7 * time.Second))
		if in, _ := rt.Engine.Instance(id); in.Status == InstanceDone {
			t.Fatal("the run finished before the interruption")
		}
		return id
	})
}

func TestSimTimeoutTimerCancelled(t *testing.T) {
	// A generous TIMEOUT on a fast activity must never fire: the timer is
	// armed on the virtual clock at dispatch and cancelled at completion.
	var timeouts int
	rt := newRuntime(t, SimConfig{Options: Options{OnEvent: func(ev Event) {
		if ev.Kind == EvTaskTimeout {
			timeouts++
		}
	}}})
	register(t, rt, `
PROCESS Quick {
  OUTPUT r;
  ACTIVITY A { CALL test.add(a = 1, b = 2); OUT sum; MAP sum -> r; TIMEOUT 3600; }
}`)
	id := start(t, rt, "Quick", nil)
	rt.Run()
	in := finished(t, rt, id)
	if in.Outputs["r"].AsNum() != 3 {
		t.Fatalf("outputs = %v", in.Outputs)
	}
	if timeouts != 0 {
		t.Fatalf("cancelled TIMEOUT fired %d times", timeouts)
	}
}
