package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"bioopera/internal/ocr"
	"bioopera/internal/sim"
	"bioopera/internal/store"
)

// sphereLibrary provides programs with controllable failures and
// undo-effect tracking.
type sphereLibrary struct {
	*Library
	// log records side effects: "do:X", "undo:X".
	log []string
	// failuresLeft makes "sphere.flaky" fail this many times.
	failuresLeft int
}

func newSphereLibrary(t *testing.T, failures int) *sphereLibrary {
	t.Helper()
	sl := &sphereLibrary{Library: NewLibrary(), failuresLeft: failures}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(sl.RegisterFunc("sphere.work", func(_ ProgramCtx, args map[string]ocr.Value) (map[string]ocr.Value, error) {
		tag := args["tag"].AsStr()
		sl.log = append(sl.log, "do:"+tag)
		return map[string]ocr.Value{"out": ocr.Str("done-" + tag)}, nil
	}))
	must(sl.RegisterFunc("sphere.undo", func(_ ProgramCtx, args map[string]ocr.Value) (map[string]ocr.Value, error) {
		sl.log = append(sl.log, "undo:"+args["tag"].AsStr())
		return nil, nil
	}))
	must(sl.RegisterFunc("sphere.flaky", func(_ ProgramCtx, _ map[string]ocr.Value) (map[string]ocr.Value, error) {
		if sl.failuresLeft > 0 {
			sl.failuresLeft--
			return nil, errors.New("transient sphere failure")
		}
		sl.log = append(sl.log, "do:flaky")
		return map[string]ocr.Value{"out": ocr.Str("flaky-ok")}, nil
	}))
	must(sl.RegisterFunc("sphere.fail", func(_ ProgramCtx, _ map[string]ocr.Value) (map[string]ocr.Value, error) {
		return nil, errors.New("permanent failure")
	}))
	return sl
}

// sphereSrc: a two-step atomic sphere where the second step fails; the
// first step has an UNDO. The sphere retries twice.
const sphereSrc = `
PROCESS Sphere {
  OUTPUT result;
  BLOCK Tx ATOMIC {
    MAP done -> result;
    RETRY 2;
    OUTPUT done;
    ACTIVITY Step1 {
      CALL sphere.work(tag = "step1");
      OUT out;
      MAP out -> a;
      UNDO sphere.undo;
    }
    ACTIVITY Step2 {
      CALL sphere.flaky(tag = a);
      OUT out;
      MAP out -> done;
      UNDO sphere.undo;
    }
    Step1 -> Step2;
  }
}
`

func TestSphereParsesAndRoundTrips(t *testing.T) {
	p, err := ocr.ParseProcess(sphereSrc)
	if err != nil {
		t.Fatal(err)
	}
	tx := p.Task("Tx")
	if !tx.Atomic {
		t.Fatal("ATOMIC lost")
	}
	if got := tx.Body.Task("Step1").Undo; got != "sphere.undo" {
		t.Fatalf("Undo = %q", got)
	}
	text := ocr.Format(p)
	if !strings.Contains(text, "BLOCK Tx ATOMIC") || !strings.Contains(text, "UNDO sphere.undo;") {
		t.Fatalf("format lost sphere syntax:\n%s", text)
	}
	p2, err := ocr.ParseProcess(text)
	if err != nil {
		t.Fatal(err)
	}
	if ocr.Format(p2) != text {
		t.Fatal("round trip unstable")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

// runSphere builds a runtime around the given library and runs template
// tpl from src.
func runSphere(t *testing.T, lib *Library, src, tpl string) (*SimRuntime, *Instance) {
	t.Helper()
	rt, err := NewSimRuntime(SimConfig{Seed: 1, Spec: testSpec(), Library: lib})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Engine.RegisterTemplateSource(src); err != nil {
		t.Fatal(err)
	}
	id, err := rt.Engine.StartProcess(tpl, nil, StartOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rt.Run()
	in, _ := rt.Engine.Instance(id)
	return rt, in
}

func TestSphereRetrySucceedsAfterUndo(t *testing.T) {
	// Step2 fails twice; the sphere has RETRY 2 so the third full run
	// succeeds. Each abort must undo Step1's completed work.
	sl := newSphereLibrary(t, 2)
	_, in := runSphere(t, sl.Library, sphereSrc, "Sphere")
	if in.Status != InstanceDone {
		t.Fatalf("instance %s (%s)", in.Status, in.FailureReason)
	}
	if got := in.Outputs["result"].AsStr(); got != "flaky-ok" {
		t.Fatalf("result = %q", got)
	}
	want := []string{
		"do:step1", "undo:step1", // attempt 1: step2 fails, step1 undone
		"do:step1", "undo:step1", // attempt 2
		"do:step1", "do:flaky", // attempt 3 succeeds
	}
	if len(sl.log) != len(want) {
		t.Fatalf("effect log = %v, want %v", sl.log, want)
	}
	for i := range want {
		if sl.log[i] != want[i] {
			t.Fatalf("effect log = %v, want %v", sl.log, want)
		}
	}
}

func TestSphereExhaustedAborts(t *testing.T) {
	// Step2 always fails; RETRY 2 → 3 attempts → instance fails, with
	// three undos of Step1.
	sl := newSphereLibrary(t, 99)
	_, in := runSphere(t, sl.Library, sphereSrc, "Sphere")
	if in.Status != InstanceFailed {
		t.Fatalf("instance %s", in.Status)
	}
	undos := 0
	for _, e := range sl.log {
		if e == "undo:step1" {
			undos++
		}
	}
	if undos != 3 {
		t.Fatalf("undo count = %d, want 3 (one per attempt)", undos)
	}
}

func TestSphereIgnoreContinues(t *testing.T) {
	src := `
PROCESS SphereIgnore {
  OUTPUT result, after;
  BLOCK Tx ATOMIC {
    MAP done -> result;
    ON FAILURE IGNORE;
    OUTPUT done;
    ACTIVITY Step1 {
      CALL sphere.work(tag = "s1");
      OUT out;
      MAP out -> a;
      UNDO sphere.undo;
    }
    ACTIVITY Step2 {
      CALL sphere.fail();
      OUT out;
      MAP out -> done;
    }
    Step1 -> Step2;
  }
  ACTIVITY After {
    CALL sphere.work(tag = "after");
    OUT out;
    MAP out -> after;
  }
  Tx -> After;
}
`
	sl := newSphereLibrary(t, 0)
	_, in := runSphere(t, sl.Library, src, "SphereIgnore")
	if in.Status != InstanceDone {
		t.Fatalf("instance %s (%s)", in.Status, in.FailureReason)
	}
	// The sphere's result is null (ignored), downstream still ran.
	if !in.Outputs["result"].IsNull() {
		t.Fatalf("result = %v, want null", in.Outputs["result"])
	}
	if in.Outputs["after"].AsStr() != "done-after" {
		t.Fatalf("after = %v", in.Outputs["after"])
	}
	// Step1's work was compensated before continuing.
	joined := strings.Join(sl.log, ",")
	if !strings.Contains(joined, "undo:s1") {
		t.Fatalf("no undo before IGNORE: %v", sl.log)
	}
}

func TestParallelSphereAllOrNothing(t *testing.T) {
	// One element fails permanently → every element's completed work is
	// undone, then the sphere re-runs; the second attempt succeeds.
	src := `
PROCESS ParSphere {
  OUTPUT result;
  DATA xs = [0, 1, 2, 3];
  BLOCK Fan ATOMIC PARALLEL OVER xs AS x {
    MAP results -> result;
    RETRY 1;
    OUTPUT r;
    ACTIVITY W {
      CALL psphere.work(x = x);
      OUT out;
      MAP out -> r;
      UNDO psphere.undo;
    }
  }
}
`
	lib := NewLibrary()
	var log []string
	attempt2 := false
	lib.RegisterFunc("psphere.work", func(_ ProgramCtx, args map[string]ocr.Value) (map[string]ocr.Value, error) {
		x := args["x"].AsInt()
		if x == 3 && !attempt2 {
			attempt2 = true
			return nil, errors.New("element 3 fails on the first sphere attempt")
		}
		log = append(log, fmt.Sprintf("do:%d", x))
		return map[string]ocr.Value{"out": args["x"]}, nil
	})
	lib.RegisterFunc("psphere.undo", func(_ ProgramCtx, args map[string]ocr.Value) (map[string]ocr.Value, error) {
		log = append(log, fmt.Sprintf("undo:%d", args["x"].AsInt()))
		return nil, nil
	})
	_, in := runSphere(t, lib, src, "ParSphere")
	if in.Status != InstanceDone {
		t.Fatalf("instance %s (%s)", in.Status, in.FailureReason)
	}
	if in.Outputs["result"].Len() != 4 {
		t.Fatalf("result = %v", in.Outputs["result"])
	}
	// First attempt: elements 0,1,2 completed then were undone.
	dos, undos, redos := 0, 0, 0
	seenUndo := false
	for _, e := range log {
		switch {
		case strings.HasPrefix(e, "undo:"):
			undos++
			seenUndo = true
		case seenUndo:
			redos++
		default:
			dos++
		}
	}
	if undos != 3 || dos != 3 || redos != 4 {
		t.Fatalf("log = %v (dos=%d undos=%d redos=%d)", log, dos, undos, redos)
	}
}

func TestNestedSpheresEscalate(t *testing.T) {
	// The inner sphere exhausts its retries; its failure aborts the
	// OUTER sphere, whose retry then re-runs both.
	src := `
PROCESS Nested {
  OUTPUT result;
  BLOCK Outer ATOMIC {
    MAP done -> result;
    RETRY 1;
    OUTPUT done;
    ACTIVITY Pre {
      CALL sphere.work(tag = "pre");
      OUT out;
      MAP out -> pre;
      UNDO sphere.undo;
    }
    BLOCK Inner ATOMIC {
      MAP inner_done -> done;
      OUTPUT inner_done;
      ACTIVITY Mid {
        CALL sphere.flaky(tag = pre);
        OUT out;
        MAP out -> inner_done;
      }
    }
    Pre -> Inner;
  }
}
`
	// flaky fails once: the inner sphere (no retries) aborts → escalates
	// to Outer → Outer's retry re-runs Pre (after undoing it) and Inner.
	sl := newSphereLibrary(t, 1)
	_, in := runSphere(t, sl.Library, src, "Nested")
	if in.Status != InstanceDone {
		t.Fatalf("instance %s (%s)", in.Status, in.FailureReason)
	}
	if got := in.Outputs["result"].AsStr(); got != "flaky-ok" {
		t.Fatalf("result = %q", got)
	}
	want := []string{"do:pre", "undo:pre", "do:pre", "do:flaky"}
	if strings.Join(sl.log, ",") != strings.Join(want, ",") {
		t.Fatalf("effect log = %v, want %v", sl.log, want)
	}
}

func TestSphereKillsInFlightSiblings(t *testing.T) {
	// A long-running sibling is killed when the sphere aborts; its
	// (later) completion is discarded, not double-counted.
	src := `
PROCESS Siblings {
  OUTPUT result;
  BLOCK Tx ATOMIC {
    MAP done -> result;
    RETRY 1;
    OUTPUT done;
    ACTIVITY Slow {
      CALL sib.slow();
      OUT out;
      MAP out -> slow_out;
      COST 3600;
    }
    ACTIVITY Fast {
      CALL sib.failfirst();
      OUT out;
      MAP out -> done;
      COST 1;
    }
  }
}
`
	lib := NewLibrary()
	slowRuns := 0
	failed := false
	lib.RegisterFunc("sib.slow", func(_ ProgramCtx, _ map[string]ocr.Value) (map[string]ocr.Value, error) {
		slowRuns++
		return map[string]ocr.Value{"out": ocr.Str("slow")}, nil
	})
	lib.RegisterFunc("sib.failfirst", func(_ ProgramCtx, _ map[string]ocr.Value) (map[string]ocr.Value, error) {
		if !failed {
			failed = true
			return nil, errors.New("first attempt fails")
		}
		return map[string]ocr.Value{"out": ocr.Str("ok")}, nil
	})
	rt, in := runSphere(t, lib, src, "Siblings")
	if in.Status != InstanceDone {
		t.Fatalf("instance %s (%s)", in.Status, in.FailureReason)
	}
	if got := in.Outputs["result"].AsStr(); got != "ok" {
		t.Fatalf("result = %q", got)
	}
	// Slow ran once per sphere attempt (the first was killed mid-run;
	// its program only runs at completion on the sim cluster, so only
	// the successful attempt's run counts).
	if slowRuns != 1 {
		t.Fatalf("slow executed %d times, want 1", slowRuns)
	}
	// No leaked jobs.
	if rt.Engine.RunningJobs() != 0 || rt.Engine.QueueLen() != 0 {
		t.Fatalf("leaked work: running=%d queued=%d", rt.Engine.RunningJobs(), rt.Engine.QueueLen())
	}
}

func TestSphereSurvivesNodeCrash(t *testing.T) {
	// Infrastructure failures inside a sphere do NOT abort it — they
	// requeue as usual; the sphere only aborts on program failures.
	sl := newSphereLibrary(t, 0)
	rt, err := NewSimRuntime(SimConfig{Seed: 1, Spec: testSpec(), Library: sl.Library})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Engine.RegisterTemplateSource(sphereSrc); err != nil {
		t.Fatal(err)
	}
	id, err := rt.Engine.StartProcess("Sphere", nil, StartOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rt.Sim.At(sim.Time(500*time.Millisecond), func(sim.Time) {
		rt.Cluster.CrashNode("n1")
		rt.Cluster.CrashNode("n2")
	})
	rt.Sim.At(sim.Time(10*time.Second), func(sim.Time) {
		rt.Cluster.RestoreNode("n1")
		rt.Cluster.RestoreNode("n2")
	})
	rt.Run()
	in, _ := rt.Engine.Instance(id)
	if in.Status != InstanceDone {
		t.Fatalf("instance %s (%s)", in.Status, in.FailureReason)
	}
	for _, e := range sl.log {
		if strings.HasPrefix(e, "undo:") {
			t.Fatalf("node crash triggered an undo: %v", sl.log)
		}
	}
}

func TestSphereUndoUnregisteredIsTolerated(t *testing.T) {
	src := `
PROCESS BadUndo {
  OUTPUT result;
  BLOCK Tx ATOMIC {
    MAP done -> result;
    RETRY 1;
    OUTPUT done;
    ACTIVITY S {
      CALL sphere.flaky(tag = "x");
      OUT out;
      MAP out -> done;
      UNDO no.such.undo;
    }
  }
}
`
	sl := newSphereLibrary(t, 1)
	_, in := runSphere(t, sl.Library, src, "BadUndo")
	// Missing undo programs are logged, not fatal.
	if in.Status != InstanceDone {
		t.Fatalf("instance %s (%s)", in.Status, in.FailureReason)
	}
}

// retrySubSrc: a sphere whose second step is a subprocess; the subprocess's
// activity fails until sphere.flaky runs out of failures, and each failure
// aborts the whole sphere.
const retrySubSrc = `
PROCESS Step {
  INPUT v;
  OUTPUT w;
  ACTIVITY F { CALL sphere.flaky(tag = v); OUT out; MAP out -> w; }
}
PROCESS Retrier {
  OUTPUT result;
  BLOCK Tx ATOMIC {
    MAP done -> result;
    RETRY 6;
    OUTPUT done;
    ACTIVITY Step1 { CALL sphere.work(tag = "s1"); OUT out; MAP out -> a; UNDO sphere.undo; }
    SUBPROCESS Sub USES "Step" { IN v = a; OUT w; MAP w -> done; }
    Step1 -> Sub;
  }
}
`

// TestSphereRetriesLeaveNoDeadTexts: process texts are version records of
// the template space, written by RegisterTemplate, so a sphere that aborts
// and retries writes no text at all: no instance or history batch carries a
// proc/ key, however often the sphere retries. Only registering a
// late-bound subprocess's template again with a new text adds a version:
// the template space grows with the registrations, one each, never with the
// retries.
func TestSphereRetriesLeaveNoDeadTexts(t *testing.T) {
	for _, reregister := range []bool{false, true} {
		t.Run(fmt.Sprintf("reregister=%v", reregister), func(t *testing.T) {
			const failures = 6
			sl := newSphereLibrary(t, failures)
			bl := &batchLog{Store: store.NewMem()}
			aborts := 0
			rt := newRuntime(t, SimConfig{Store: bl, Library: sl.Library, Options: Options{OnEvent: func(ev Event) {
				if ev.Kind == EvSphereAborted {
					aborts++
				}
			}}})
			register(t, rt, retrySubSrc)
			id := start(t, rt, "Retrier", nil)
			// Register Step anew after each abort, before the retry spawns it.
			bodies, registered := 3, 0 // Step, Retrier and the Tx body
			var tick sim.Stopper
			tick = rt.Sim.Every(10*time.Millisecond, func(sim.Time) {
				if in, _ := rt.Engine.Instance(id); in.statusNow() == InstanceDone {
					tick.Stop()
					return
				}
				if reregister && aborts > registered {
					registered = aborts
					bodies++
					register(t, rt, fmt.Sprintf("PROCESS Step { INPUT v; OUTPUT w; ACTIVITY F%d { CALL sphere.flaky(tag = v); OUT out; MAP out -> w; } }", registered))
				}
			})
			rt.Run()
			in := finished(t, rt, id)
			if aborts != failures || in.Outputs["result"].AsStr() != "flaky-ok" {
				t.Fatalf("%d aborts, result %v; want %d aborts, then flaky-ok", aborts, in.Outputs["result"], failures)
			}
			for _, ops := range bl.batches {
				for _, op := range ops {
					if op.Space != store.Template && strings.HasPrefix(op.Key, versionPrefix) {
						t.Fatalf("%s %s: an instance batch carries a process text", op.Space, op.Key)
					}
				}
			}
			kvs, err := bl.List(store.Template)
			if err != nil {
				t.Fatal(err)
			}
			versions := 0
			for _, kv := range kvs {
				if strings.HasPrefix(kv.Key, versionPrefix) {
					versions++
				}
			}
			if versions != bodies || reregister && bodies <= 3 {
				t.Fatalf("the template space holds %d versions; the distinct texts registered are %d", versions, bodies)
			}
		})
	}
}

// resetCopyStore copies the whole store right after the first batch that
// deletes a scope's create record — the commit of a sphere reset — and
// notes the scopes that batch discarded.
type resetCopyStore struct {
	*store.Mem
	t         *testing.T
	copy      *store.Mem
	discarded []string // "<instance>/<scope>" of each discarded scope
}

func (s *resetCopyStore) Batch(ops []store.Op) error {
	if err := s.Mem.Batch(ops); err != nil {
		return err
	}
	if s.copy != nil {
		return nil
	}
	for _, op := range ops {
		if op.Delete && strings.HasPrefix(op.Key, "scopec/") {
			s.discarded = append(s.discarded, strings.TrimPrefix(op.Key, "scopec/"))
		}
	}
	if len(s.discarded) > 0 {
		s.copy = store.NewMem()
		for _, sp := range []store.Space{store.Template, store.Instance, store.Configuration, store.History} {
			kvs, err := s.Mem.List(sp)
			if err != nil {
				s.t.Fatal(err)
			}
			for _, kv := range kvs {
				if err := s.copy.Put(sp, kv.Key, kv.Value); err != nil {
					s.t.Fatal(err)
				}
			}
		}
	}
	return nil
}

// discardedKeys lists the keys of st's space that belong to a scope the
// reset discarded.
func (s *resetCopyStore) discardedKeys(t *testing.T, st store.Store, sp store.Space) []string {
	t.Helper()
	kvs, err := st.List(sp)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, kv := range kvs {
		for _, d := range s.discarded {
			if kv.Key == "scopec/"+d || kv.Key == "scoped/"+d || strings.HasPrefix(kv.Key, "task/"+d+"/") {
				out = append(out, kv.Key)
			}
		}
	}
	return out
}

// TestSphereResetLeavesNoDiscardedRecords: the turn in which an element of a
// parallel ATOMIC block fails dirties that element's scope, and the same
// turn's sphere reset discards it. The reset's commit must delete every
// record of the discarded scopes and write none of them back — not at the
// reset, not at completion — and recovery from the store as the reset left
// it must rebuild the block with no element resurrected.
func TestSphereResetLeavesNoDiscardedRecords(t *testing.T) {
	src := `
PROCESS ParReset {
  OUTPUT result, after;
  DATA xs = [0, 1, 2, 3];
  BLOCK Fan ATOMIC PARALLEL OVER xs AS x {
    MAP results -> result;
    ON FAILURE IGNORE;
    OUTPUT r;
    ACTIVITY W {
      CALL preset.work(x = x);
      OUT out;
      MAP out -> r;
      UNDO preset.undo;
    }
  }
  ACTIVITY After {
    CALL preset.work(x = 9);
    OUT out;
    MAP out -> after;
  }
  Fan -> After;
}
`
	lib := NewLibrary()
	lib.RegisterFunc("preset.work", func(_ ProgramCtx, args map[string]ocr.Value) (map[string]ocr.Value, error) {
		if args["x"].AsInt() == 3 {
			return nil, errors.New("element 3 always fails")
		}
		return map[string]ocr.Value{"out": args["x"]}, nil
	})
	lib.RegisterFunc("preset.undo", func(ProgramCtx, map[string]ocr.Value) (map[string]ocr.Value, error) {
		return nil, nil
	})
	st := &resetCopyStore{Mem: store.NewMem(), t: t}
	rt := newRuntime(t, SimConfig{Store: st, Library: lib})
	register(t, rt, src)
	id := start(t, rt, "ParReset", nil)
	rt.Run()
	in := finished(t, rt, id)
	if got := in.Outputs["after"].AsInt(); got != 9 {
		t.Fatalf("after = %v", in.Outputs["after"])
	}
	if st.copy == nil || len(st.discarded) != 4 {
		t.Fatalf("the reset discarded %v, want the block's 4 elements", st.discarded)
	}
	if keys := st.discardedKeys(t, st.copy, store.Instance); keys != nil {
		t.Errorf("after the reset's commit the instance space holds %v", keys)
	}
	for _, sp := range []store.Space{store.Instance, store.History} {
		if keys := st.discardedKeys(t, st.Mem, sp); keys != nil {
			t.Errorf("after completion the %s space holds %v", sp, keys)
		}
	}

	rt2 := newRuntime(t, SimConfig{Store: st.copy, Library: lib})
	register(t, rt2, src)
	if n, err := rt2.Engine.Recover(); err != nil || n != 1 {
		t.Fatalf("recover = %d, %v", n, err)
	}
	rec, _ := rt2.Engine.Instance(id)
	for _, d := range st.discarded {
		if sc := rec.scopes[strings.TrimPrefix(d, id+"/")]; sc != nil {
			t.Errorf("recovery resurrected discarded scope %q", sc.ID)
		}
	}
	rt2.Run()
	rec = finished(t, rt2, id)
	if got := rec.Outputs["after"].AsInt(); got != 9 || !rec.Outputs["result"].IsNull() {
		t.Fatalf("recovered outputs = %v", rec.Outputs)
	}
}
