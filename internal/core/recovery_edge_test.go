package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"bioopera/internal/codec"
	"bioopera/internal/ocr"
	"bioopera/internal/sim"
	"bioopera/internal/store"
)

// These tests exercise recovery edge cases: corrupt and partially missing
// store records, recovery of nested subprocess trees, and lineage over
// parallel scopes.

func TestRecoverCorruptInstanceRecord(t *testing.T) {
	st := store.NewMem()
	st.Put(store.Instance, "inst/p0001", []byte("{not json"))
	rt := newRuntime(t, SimConfig{Store: st})
	if _, err := rt.Engine.Recover(); err == nil {
		t.Fatal("corrupt instance record accepted")
	}
}

func TestRecoverCorruptScopeRecord(t *testing.T) {
	st := store.NewMem()
	rt := newRuntime(t, SimConfig{Store: st})
	register(t, rt, linearSrc)
	id := start(t, rt, "Linear", map[string]ocr.Value{"a": ocr.Num(1), "b": ocr.Num(1)})
	rt.RunUntil(sim.Time(500 * time.Millisecond))
	// Corrupt the root scope's create record, then crash+recover.
	st.Put(store.Instance, "scopec/"+id+"/-", []byte("oops"))
	rt.Engine.Crash()
	if _, err := rt.Engine.Recover(); err == nil {
		t.Fatal("corrupt scope record accepted")
	}
}

func TestRecoverMissingRootScope(t *testing.T) {
	st := store.NewMem()
	rt := newRuntime(t, SimConfig{Store: st})
	register(t, rt, linearSrc)
	id := start(t, rt, "Linear", map[string]ocr.Value{"a": ocr.Num(1), "b": ocr.Num(1)})
	rt.RunUntil(sim.Time(500 * time.Millisecond))
	// Drop every record of the root scope (create, dynamic, tasks) so the
	// instance metadata survives with no scope tree at all.
	kvs, _ := st.List(store.Instance)
	for _, kv := range kvs {
		if kv.Key != "inst/"+id {
			st.Delete(store.Instance, kv.Key)
		}
	}
	rt.Engine.Crash()
	if _, err := rt.Engine.Recover(); err == nil || !strings.Contains(err.Error(), "root scope") {
		t.Fatalf("missing root scope: err = %v", err)
	}
}

// TestRecoverStaleTaskRecordDeleted: a task record that names no task of its
// scope's process has no slot to decode into. Recovery — a running
// instance's rebuild, and a suspended one's hydration alike — drops it and deletes it with the instance's next
// checkpoint, so Progress never counts it and it does not outlive the
// instance in the instance space.
func TestRecoverStaleTaskRecordDeleted(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		t.Run(fmt.Sprintf("lazy=%v", lazy), func(t *testing.T) {
			st := store.NewMem()
			rt := newRuntime(t, SimConfig{Store: st})
			register(t, rt, linearSrc)
			id := start(t, rt, "Linear", map[string]ocr.Value{"a": ocr.Num(1), "b": ocr.Num(1)})
			if lazy {
				quiesceSuspended(t, rt, id, sim.Time(500*time.Millisecond))
			} else {
				rt.RunUntil(sim.Time(500 * time.Millisecond))
			}
			enc := codec.Get()
			encodeTask(enc, &taskState{Name: "Ghost", Status: TaskReady})
			ghostKey := "task/" + id + "/-/Ghost"
			if err := st.Put(store.Instance, ghostKey, append([]byte(nil), enc.Span(0)...)); err != nil {
				t.Fatal(err)
			}
			codec.Put(enc)
			rt.Engine.Crash()

			rt2 := newRuntime(t, SimConfig{Store: st})
			register(t, rt2, linearSrc)
			if n, err := rt2.Engine.Recover(); err != nil || n != 1 {
				t.Fatalf("recover = %d, %v", n, err)
			}
			if lazy {
				if err := rt2.Engine.Resume(id); err != nil {
					t.Fatal(err)
				}
			}
			in, _ := rt2.Engine.Instance(id)
			// Linear has two tasks: counting Ghost would make thirds.
			if p := in.Progress(); p != 0 && p != 0.5 && p != 1 {
				t.Fatalf("Progress after recovery = %v: the stale record was counted", p)
			}
			rt2.Run()
			in = finished(t, rt2, id)
			if p := in.Progress(); p != 1 {
				t.Fatalf("Progress at the end = %v, want 1", p)
			}
			kvs, err := st.List(store.Instance)
			if err != nil {
				t.Fatal(err)
			}
			for _, kv := range kvs {
				t.Errorf("instance space still holds %s after the instance finished", kv.Key)
			}
		})
	}
}

func TestRecoverNestedSubprocessMidRun(t *testing.T) {
	// A subprocess inside a parallel block, interrupted mid-flight:
	// recovery must rebuild the whole scope tree and finish correctly.
	src := subprocSrc + `
PROCESS Nest {
  INPUT xs;
  OUTPUT all;
  BLOCK Fan PARALLEL OVER xs AS x {
    MAP results -> all;
    OUTPUT r;
    SUBPROCESS S USES "Inner" {
      IN v = x;
      OUT w;
      MAP w -> r;
    }
  }
}
`
	st := store.NewMem()
	rt := newRuntime(t, SimConfig{Store: st})
	register(t, rt, src)
	var xs []ocr.Value
	for i := 0; i < 6; i++ {
		xs = append(xs, ocr.Num(float64(i)))
	}
	id, err := rt.Engine.StartProcess("Nest", map[string]ocr.Value{"xs": ocr.List(xs...)}, StartOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Crash while some subprocess activities are mid-run.
	rt.Sim.At(sim.Time(1300*time.Millisecond), func(sim.Time) {
		rt.Engine.Crash()
		if n, err := rt.Engine.Recover(); err != nil || n != 1 {
			t.Errorf("recover = %d, %v", n, err)
		}
	})
	rt.Run()
	in, ok := rt.Engine.Instance(id)
	if !ok {
		t.Fatal("instance lost")
	}
	if in.Status != InstanceDone {
		t.Fatalf("instance %s (%s)", in.Status, in.FailureReason)
	}
	for i := 0; i < 6; i++ {
		if in.Outputs["all"].At(i).AsNum() != float64(2*i) {
			t.Fatalf("all = %v", in.Outputs["all"])
		}
	}
}

func TestLineageAcrossParallelScopes(t *testing.T) {
	rt := newRuntime(t, SimConfig{})
	register(t, rt, parallelSrc)
	xs := ocr.List(ocr.Num(1), ocr.Num(2))
	id := start(t, rt, "Par", map[string]ocr.Value{"xs": xs})
	rt.Run()
	finished(t, rt, id)
	lg, err := rt.Engine.Lineage(id)
	if err != nil {
		t.Fatal(err)
	}
	// The block produced the fan-out result in the root scope.
	if got := lg.Producer("doubled"); got != "::Fan" {
		t.Fatalf("Producer(doubled) = %q", got)
	}
	// Element scopes have their own producers.
	if n, ok := lg.Items["Fan[0]::y"]; !ok || n.Producer != "Fan[0]::D" {
		t.Fatalf("element lineage = %+v", n)
	}
	// Program index covers the element activities.
	aff := lg.AffectedByProgram("test.double")
	if len(aff) != 2 {
		t.Fatalf("AffectedByProgram = %v", aff)
	}
}

func TestRecoverIdempotentOnLiveEngine(t *testing.T) {
	// Calling Recover without a crash must not duplicate live instances.
	st := store.NewMem()
	rt := newRuntime(t, SimConfig{Store: st})
	register(t, rt, linearSrc)
	id := start(t, rt, "Linear", map[string]ocr.Value{"a": ocr.Num(1), "b": ocr.Num(1)})
	rt.RunUntil(sim.Time(500 * time.Millisecond))
	n, err := rt.Engine.Recover()
	if err != nil || n != 0 {
		t.Fatalf("Recover on live engine = %d, %v", n, err)
	}
	rt.Run()
	in := finished(t, rt, id)
	if in.Activities != 2 {
		t.Fatalf("activities = %d (duplicated work?)", in.Activities)
	}
	if got := len(rt.Engine.Instances()); got != 1 {
		t.Fatalf("instances = %d", got)
	}
}

// TestVanishedBindingFailsAlikeOnEveryRuntime: an instance checkpointed with
// its activity dispatched is recovered by a server whose library no longer
// has the program. Whichever in-process executor the attempt lands on, it
// comes back unrun and the completion turn fails the instance for the missing
// binding — it is not a program failure, so RETRY is not spent on it.
func TestVanishedBindingFailsAlikeOnEveryRuntime(t *testing.T) {
	const src = `PROCESS One { INPUT x; OUTPUT r; ACTIVITY A { CALL test.inc(v = x); OUT out; MAP out -> r; RETRY 3; } }`
	seed := func() (store.Store, string) {
		st := store.NewMem()
		rt := newRuntime(t, SimConfig{Store: st, Library: incLibrary(t, 0)})
		register(t, rt, src)
		return st, start(t, rt, "One", map[string]ocr.Value{"x": ocr.Num(1)})
	}
	var mu sync.Mutex
	var kinds []EventKind
	observe := func(ev Event) {
		mu.Lock()
		kinds = append(kinds, ev.Kind)
		mu.Unlock()
	}
	check := func(name string, in *Instance) {
		t.Helper()
		mu.Lock()
		defer mu.Unlock()
		const want = `program "test.inc" vanished from the library`
		if in.Status != InstanceFailed || in.FailureReason != want {
			t.Errorf("%s: instance %s (%s), want failed: %s", name, in.Status, in.FailureReason, want)
		}
		// Recovery's own requeue of the dispatched task is the one
		// task-retried; what follows it must be the attempt and the failure.
		after := kinds
		for i, k := range kinds {
			if k == EvServerRecovered {
				after = kinds[i+1:]
			}
		}
		if len(after) != 2 || after[0] != EvTaskDispatched || after[1] != EvInstanceFailed {
			t.Errorf("%s: events after recovery %v, want task-dispatched then instance-failed — no task-retried or task-failed: a missing binding is not a program failure",
				name, after)
		}
		kinds = nil
	}

	st, id := seed()
	srt := newRuntime(t, SimConfig{Store: st, Library: NewLibrary(), Options: Options{OnEvent: observe}})
	if n, err := srt.Engine.Recover(); err != nil || n != 1 {
		t.Fatalf("sim: recovered %d: %v", n, err)
	}
	srt.Run()
	in, _ := srt.Engine.Instance(id)
	check("sim", in)

	st, id = seed()
	lrt, err := NewLocalRuntime(LocalConfig{Workers: 1, Store: st, Library: NewLibrary(), OnEvent: observe})
	if err != nil {
		t.Fatal(err)
	}
	defer lrt.Close()
	if n, err := lrt.Engine().Recover(); err != nil || n != 1 {
		t.Fatalf("local: recovered %d: %v", n, err)
	}
	in, err = lrt.Wait(id, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	check("local", in)
}
