package core

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"bioopera/internal/obs"
	"bioopera/internal/ocr"
	"bioopera/internal/sched"
	"bioopera/internal/sim"
	"bioopera/internal/store"
)

// requireClean fails the test with every violation Check reported.
func requireClean(t *testing.T, step string, vs []Violation) {
	t.Helper()
	for _, v := range vs {
		t.Errorf("%s: %v", step, v)
	}
}

// rulesOf lists the instance and rule of each violation.
func rulesOf(vs []Violation) []string {
	var out []string
	for _, v := range vs {
		out = append(out, v.Instance+":"+v.Rule)
	}
	return out
}

// checkLab is a one-CPU sim engine at rest, every rule holding, with an
// instance of each kind Check reads: one done, one running its first of
// three activities, one queued behind it with nothing running, and one
// suspended with its two jobs held.
type checkLab struct {
	rt                                *SimRuntime
	e                                 *Engine
	done, running, waiting, suspended string
}

func newCheckLab(t *testing.T) *checkLab {
	t.Helper()
	rt := newRuntime(t, SimConfig{Spec: oneCPUSpec(), Library: slowLib(t)})
	register(t, rt, slowParSrc)
	xs := func(n int) map[string]ocr.Value {
		vs := make([]ocr.Value, n)
		for i := range vs {
			vs[i] = ocr.Num(float64(i))
		}
		return map[string]ocr.Value{"xs": ocr.List(vs...)}
	}
	l := &checkLab{rt: rt, e: rt.Engine}
	l.done = start(t, rt, "SlowPar", xs(1))
	l.running = start(t, rt, "SlowPar", xs(3))
	l.suspended = start(t, rt, "SlowPar", xs(2))
	if err := l.e.Suspend(l.suspended, true); err != nil {
		t.Fatal(err)
	}
	rt.RunUntil(sim.Time(15 * time.Minute))
	l.waiting = start(t, rt, "SlowPar", xs(2))
	finished(t, rt, l.done)
	if l.e.RunningJobs() != 1 || l.e.HeldJobs() != 2 || l.e.QueueLen() != 6 {
		t.Fatalf("running=%d held=%d queue=%d, want 1 2 6", l.e.RunningJobs(), l.e.HeldJobs(), l.e.QueueLen())
	}
	requireClean(t, "lab", l.e.Check())
	return l
}

// instance returns a lab instance with its shard held, for a hand-made
// break; the caller unlocks.
func (l *checkLab) instance(id string) *Instance {
	in, _ := l.e.Instance(id)
	l.e.shardFor(id).Lock()
	return in
}

// TestCheckNamesEachRule breaks each rule by hand, the way a bug would leave
// the engine, and checks that Check names that rule and nothing else. The
// other half of RuleStuck, a queued job a free slot could take, is the hang
// of TestStuckNamesTheLostSlotHang.
func TestCheckNamesEachRule(t *testing.T) {
	for _, tc := range []struct {
		name    string
		breakIt func(l *checkLab) string // returns the instance named, "" for the dispatcher
		rule    string
	}{
		{"stuck: a running instance with nothing queued, running or awaited", func(l *checkLab) string {
			in := l.instance(l.waiting)
			l.e.dmu.Lock()
			for _, id := range l.e.sched.RemoveGroup(in.ID) {
				delete(l.e.queued, id)
			}
			l.e.dmu.Unlock()
			l.e.shardFor(in.ID).Unlock()
			return in.ID
		}, RuleStuck},
		{"terminal: a done instance with a queued job", func(l *checkLab) string {
			in := l.instance(l.done)
			job := sched.Job{ID: "ghost", Group: in.ID}
			l.e.dmu.Lock()
			l.e.sched.Enqueue(job)
			l.e.queued[job.ID] = &queuedRef{inst: in, job: job}
			l.e.dmu.Unlock()
			l.e.shardFor(in.ID).Unlock()
			return in.ID
		}, RuleTerminal},
		{"gate: a write set through the gate that was never cut", func(l *checkLab) string {
			in := l.instance(l.running)
			in.gateMu.Lock()
			in.ckptDone = in.ckptSeq + 1
			in.gateMu.Unlock()
			l.e.shardFor(in.ID).Unlock()
			return in.ID
		}, RuleGate},
		{"hold: a running instance's group held", func(l *checkLab) string {
			in := l.instance(l.waiting)
			l.e.holdQueued(in)
			l.e.shardFor(in.ID).Unlock()
			return in.ID
		}, RuleHold},
		{"hold: a suspended instance's group released", func(l *checkLab) string {
			in := l.instance(l.suspended)
			l.e.dmu.Lock()
			l.e.sched.Release(in.ID)
			l.e.dmu.Unlock()
			l.e.shardFor(in.ID).Unlock()
			return in.ID
		}, RuleHold},
		{"hold: a queued job the engine does not index", func(l *checkLab) string {
			l.e.dmu.Lock()
			l.e.sched.Enqueue(sched.Job{ID: "stray", Group: l.suspended})
			l.e.dmu.Unlock()
			return ""
		}, RuleHold},
		{"decided: a slot held by no decision", func(l *checkLab) string {
			l.e.dmu.Lock()
			l.e.decided["n1"]++
			l.e.nDecided++
			l.e.dmu.Unlock()
			return ""
		}, RuleDecided},
		{"owned: a registered instance another server owns", func(l *checkLab) string {
			l.e.opts.Owns = func(id string) bool { return id != l.done }
			return l.done
		}, RuleOwned},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := newCheckLab(t)
			id := tc.breakIt(l)
			got := rulesOf(l.e.Check())
			if want := []string{id + ":" + tc.rule}; !slices.Equal(got, want) {
				t.Fatalf("Check = %v, want %v", got, want)
			}
		})
	}
}

// TestCheckPausedIsNotStuck: a paused engine's queued job waits for
// ResumeAll, however many slots are free, and after ResumeAll the engine
// runs it to the end.
func TestCheckPausedIsNotStuck(t *testing.T) {
	rt := newRuntime(t, SimConfig{Spec: oneCPUSpec(), Library: slowLib(t)})
	register(t, rt, slowParSrc)
	e := rt.Engine
	e.PauseAll()
	id := start(t, rt, "SlowPar", map[string]ocr.Value{"xs": ocr.List(ocr.Num(1))})
	rt.Run()
	if e.QueueLen() != 1 || e.RunningJobs() != 0 {
		t.Fatalf("paused: queue=%d running=%d, want 1 0", e.QueueLen(), e.RunningJobs())
	}
	requireClean(t, "paused", e.Check())
	e.ResumeAll()
	rt.Run()
	finished(t, rt, id)
	requireClean(t, "resumed, idle", e.Check())
}

// TestCheckAllocatesNothing: a Check that finds nothing allocates nothing,
// over instances done, running, queued behind a full cluster and suspended.
func TestCheckAllocatesNothing(t *testing.T) {
	l := newCheckLab(t)
	if allocs := testing.AllocsPerRun(20, func() { l.e.Check() }); allocs != 0 {
		t.Fatalf("%v allocations per clean Check, want 0", allocs)
	}
}

// TestMonitorShowsViolations: /api/instances/{id} shows the hang's stuck
// instance as such, and leaves the field out once a pump has placed its job.
func TestMonitorShowsViolations(t *testing.T) {
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
	ts := httptest.NewServer(obs.NewServer(obs.ServerConfig{Source: NewMonitorSource(e)}).Handler())
	defer ts.Close()
	detail := func() map[string]json.RawMessage {
		var det map[string]json.RawMessage
		getJSON(t, ts.URL+"/api/instances/"+id, http.StatusOK, &det)
		return det
	}
	var vs []obs.Violation
	if err := json.Unmarshal(detail()["violations"], &vs); err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || vs[0].Rule != RuleStuck || vs[0].Detail == "" {
		t.Fatalf("violations = %+v, want the one stuck", vs)
	}
	e.Pump()
	if raw, ok := detail()["violations"]; ok {
		t.Fatalf("violations = %s with the job placed, want the field left out", raw)
	}
}

// TestMonitorLiveEngineShowsNoViolation polls the detail endpoint of every
// instance while a real-time runtime runs them: completions, frees and pumps
// are in flight all the while, and none of them may show as a violation —
// above all not as a stuck instance, a rule that holds only at idle.
func TestMonitorLiveEngineShowsNoViolation(t *testing.T) {
	rt, err := NewLocalRuntime(LocalConfig{Workers: 2, Library: incLibrary(t, 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	src := "PROCESS Long {\n  INPUT x;\n  OUTPUT r;\n"
	const steps = 200
	for i := 1; i <= steps; i++ {
		in, out := fmt.Sprintf("w%d", i-1), fmt.Sprintf("w%d", i)
		if i == 1 {
			in = "x"
		}
		if i == steps {
			out = "r"
		}
		src += fmt.Sprintf("  ACTIVITY S%d { CALL test.inc(v = %s); OUT out; MAP out -> %s; }\n", i, in, out)
		if i > 1 {
			src += fmt.Sprintf("  S%d -> S%d;\n", i-1, i)
		}
	}
	if err := rt.RegisterTemplateSource(src + "}\n"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(obs.NewServer(obs.ServerConfig{Source: NewMonitorSource(rt.Engine())}).Handler())
	defer ts.Close()
	var ids []string
	for i := 0; i < 6; i++ {
		id, err := rt.StartProcess("Long", map[string]ocr.Value{"x": ocr.Num(0)}, StartOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, id := range ids {
			if _, err := rt.Wait(id, 30*time.Second); err != nil {
				t.Error(err)
			}
		}
	}()
	for polls := 0; ; polls++ {
		select {
		case <-done:
			t.Logf("%d polls", polls)
			requireClean(t, "at idle", rt.Engine().Check())
			return
		default:
		}
		id := ids[polls%len(ids)]
		var det obs.InstanceDetail
		getJSON(t, ts.URL+"/api/instances/"+id, http.StatusOK, &det)
		for _, v := range det.Violations {
			t.Errorf("poll %d: %s shows %s: %s", polls, id, v.Rule, v.Detail)
		}
	}
}
