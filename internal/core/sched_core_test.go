package core

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"bioopera/internal/cluster"
	"bioopera/internal/ocr"
	"bioopera/internal/sim"
)

// oneCPUSpec is a single-slot cluster: every dispatch decision is visible
// as a strict sequence.
func oneCPUSpec() cluster.Spec {
	return cluster.Spec{Name: "one", Nodes: []cluster.NodeSpec{
		{Name: "n1", CPUs: 1, Speed: 1, OS: "linux"},
	}}
}

// TestUnplaceableJobFailsWithEvent covers the silent-starvation fix: a job
// whose node affinity names only unknown (or down) nodes must fail loudly
// instead of queueing forever.
func TestUnplaceableJobFailsWithEvent(t *testing.T) {
	lib := NewLibrary()
	if err := lib.Register(Program{
		Name: "test.pinned",
		Run: func(_ ProgramCtx, _ map[string]ocr.Value) (map[string]ocr.Value, error) {
			return map[string]ocr.Value{"out": ocr.Str("ran")}, nil
		},
		Nodes: []string{"ghost"},
	}); err != nil {
		t.Fatal(err)
	}
	var unplaceable []Event
	rt := newRuntime(t, SimConfig{Library: lib, Options: Options{
		OnEvent: func(ev Event) {
			if ev.Kind == EvTaskUnplaceable {
				unplaceable = append(unplaceable, ev)
			}
		},
	}})
	register(t, rt, `
PROCESS Pinned {
  OUTPUT result;
  ACTIVITY P {
    CALL test.pinned();
    OUT out;
    MAP out -> result;
  }
}
`)
	id := start(t, rt, "Pinned", nil)
	rt.Run()
	in, ok := rt.Engine.Instance(id)
	if !ok {
		t.Fatal("instance vanished")
	}
	if in.Status != InstanceFailed {
		t.Fatalf("instance = %s, want failed (pinned to unknown node)", in.Status)
	}
	if len(unplaceable) == 0 {
		t.Fatal("no EvTaskUnplaceable emitted")
	}
	if ev := unplaceable[0]; ev.Instance != id || ev.Task != "P" {
		t.Fatalf("event = %+v", ev)
	}
}

// TestTwoTenantStarvationFreedom runs two tenants with skewed quotas
// through a one-CPU cluster and asserts the low-quota tenant still gets
// dispatched throughout — weighted fair share, not strict priority between
// tenants.
func TestTwoTenantStarvationFreedom(t *testing.T) {
	var dispatches []string // instance ID per EvTaskDispatched, in order
	rt := newRuntime(t, SimConfig{
		Spec: oneCPUSpec(),
		Options: Options{
			Quotas: map[string]float64{"heavy": 3, "light": 1},
			OnEvent: func(ev Event) {
				if ev.Kind == EvTaskDispatched {
					dispatches = append(dispatches, ev.Instance)
				}
			},
		},
	})
	register(t, rt, parallelSrc)
	xs := make([]ocr.Value, 12)
	for i := range xs {
		xs[i] = ocr.Num(float64(i))
	}
	heavyID, err := rt.Engine.StartProcess("Par", map[string]ocr.Value{"xs": ocr.List(xs...)},
		StartOptions{Tenant: "heavy"})
	if err != nil {
		t.Fatal(err)
	}
	lightID, err := rt.Engine.StartProcess("Par", map[string]ocr.Value{"xs": ocr.List(xs[:4]...)},
		StartOptions{Tenant: "light"})
	if err != nil {
		t.Fatal(err)
	}
	rt.Run()
	finished(t, rt, heavyID)
	finished(t, rt, lightID)

	// All of heavy's 12 activities were queued before any of light's 4,
	// so legacy FIFO would dispatch light entirely after heavy. Fair share
	// must interleave: light's last dispatch comes before heavy's last.
	last := map[string]int{}
	for i, id := range dispatches {
		last[id] = i
	}
	if last[lightID] > last[heavyID] {
		t.Fatalf("light tenant starved: its last dispatch (%d) after heavy's last (%d)",
			last[lightID], last[heavyID])
	}
	// And the skew holds: among the first 8 dispatches, heavy gets about
	// its 3:1 share.
	heavyEarly := 0
	for _, id := range dispatches[:8] {
		if id == heavyID {
			heavyEarly++
		}
	}
	if heavyEarly < 5 || heavyEarly == 8 {
		t.Fatalf("heavy got %d of the first 8 dispatches, want ≈6 and not all", heavyEarly)
	}
	if u := rt.Engine.TenantUsage("heavy"); u <= rt.Engine.TenantUsage("light") {
		t.Fatalf("usage heavy=%v light=%v, want heavy charged more", u, rt.Engine.TenantUsage("light"))
	}
}

// slowLib returns a library whose work program charges long virtual time,
// so preemption lands mid-computation.
func slowLib(t *testing.T) *Library {
	t.Helper()
	lib := testLibrary(t)
	if err := lib.Register(Program{
		Name: "test.slow",
		Run: func(_ ProgramCtx, args map[string]ocr.Value) (map[string]ocr.Value, error) {
			return map[string]ocr.Value{"out": args["x"]}, nil
		},
		Cost: func(map[string]ocr.Value) time.Duration { return 10 * time.Minute },
	}); err != nil {
		t.Fatal(err)
	}
	return lib
}

const slowParSrc = `
PROCESS SlowPar {
  INPUT xs;
  OUTPUT echoed;
  BLOCK Fan PARALLEL OVER xs AS x {
    MAP results -> echoed;
    OUTPUT y;
    ACTIVITY S {
      CALL test.slow(x = x);
      OUT out;
      MAP out -> y;
    }
  }
}
`

// killRunning kills up to n of the cluster's running jobs, in node order —
// the scenario kill verb's infrastructure failure. It returns how many it
// killed.
func killRunning(t *testing.T, rt *SimRuntime, n int) int {
	t.Helper()
	killed := 0
	for _, v := range rt.Cluster.Nodes() {
		for _, j := range rt.Cluster.RunningOn(v.Name) {
			if killed == n {
				return killed
			}
			if err := rt.Cluster.Kill(j, v.Name); err != nil {
				t.Error(err)
			}
			killed++
		}
	}
	return killed
}

// runSlowPar runs the low-priority workload, optionally killing its running
// activity while a high-priority arrival waits for the only CPU, and
// returns the low-priority instance's final whiteboard and outputs
// serialization plus the kill count.
func runSlowPar(t *testing.T, kill bool) (wb, outs []byte, killed int) {
	t.Helper()
	rt := newRuntime(t, SimConfig{Spec: oneCPUSpec(), Library: slowLib(t)})
	register(t, rt, slowParSrc)
	register(t, rt, `
PROCESS Urgent {
  INPUT a, b;
  OUTPUT result;
  ACTIVITY Add {
    CALL test.add(a = a, b = b);
    OUT sum;
    MAP sum -> result;
  }
}
`)
	xs := ocr.List(ocr.Num(1), ocr.Num(2), ocr.Num(3))
	lowID, err := rt.Engine.StartProcess("SlowPar", map[string]ocr.Value{"xs": xs}, StartOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if kill {
		// A high-priority job arrives mid-run; then the node kills the
		// activity holding the only CPU, which requeues behind it.
		rt.Sim.At(sim.Time(5*time.Minute), func(sim.Time) {
			if _, err := rt.Engine.StartProcess("Urgent",
				map[string]ocr.Value{"a": ocr.Num(1), "b": ocr.Num(2)},
				StartOptions{Priority: 5}); err != nil {
				t.Error(err)
			}
		})
		rt.Sim.At(sim.Time(7*time.Minute), func(sim.Time) {
			killed += killRunning(t, rt, 1)
		})
	}
	rt.Run()
	in := finished(t, rt, lowID)
	wbBytes, err := json.Marshal(in.root.Whiteboard)
	if err != nil {
		t.Fatal(err)
	}
	outBytes, err := json.Marshal(in.Outputs)
	if err != nil {
		t.Fatal(err)
	}
	return wbBytes, outBytes, killed
}

// TestKillResumeByteEquivalence kills a low-priority activity while an
// urgent job waits, lets it requeue and rerun, and asserts the final
// whiteboard and outputs are byte-identical to an undisturbed run — the
// paper's claim that a killed TEU loses time, never state.
func TestKillResumeByteEquivalence(t *testing.T) {
	wbCtl, outCtl, _ := runSlowPar(t, false)
	wbKill, outKill, killed := runSlowPar(t, true)
	if killed == 0 {
		t.Fatal("the kill found nothing running")
	}
	if !bytes.Equal(wbCtl, wbKill) {
		t.Fatalf("whiteboard diverged:\n control: %s\n  killed: %s", wbCtl, wbKill)
	}
	if !bytes.Equal(outCtl, outKill) {
		t.Fatalf("outputs diverged:\n control: %s\n  killed: %s", outCtl, outKill)
	}
}

// schedScenarioTrace runs a multi-tenant scenario whose running jobs the
// node kills now and then, and returns its full serialized event stream
// and how many activities were requeued.
func schedScenarioTrace(t *testing.T) ([]byte, int) {
	t.Helper()
	var events []Event
	retried := 0
	rt := newRuntime(t, SimConfig{
		Spec:    oneCPUSpec(),
		Library: slowLib(t),
		Options: Options{
			Quotas: map[string]float64{"heavy": 2, "light": 1},
			OnEvent: func(ev Event) {
				events = append(events, ev)
				if ev.Kind == EvTaskRetried {
					retried++
				}
			},
		},
	})
	register(t, rt, slowParSrc)
	xs := ocr.List(ocr.Num(1), ocr.Num(2), ocr.Num(3), ocr.Num(4))
	if _, err := rt.Engine.StartProcess("SlowPar", map[string]ocr.Value{"xs": xs},
		StartOptions{Tenant: "heavy"}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Engine.StartProcess("SlowPar", map[string]ocr.Value{"xs": ocr.List(ocr.Num(9), ocr.Num(10))},
		StartOptions{Tenant: "light"}); err != nil {
		t.Fatal(err)
	}
	rt.Sim.At(sim.Time(5*time.Minute), func(sim.Time) {
		if _, err := rt.Engine.StartProcess("SlowPar", map[string]ocr.Value{"xs": ocr.List(ocr.Num(42))},
			StartOptions{Priority: 5, Tenant: "light"}); err != nil {
			t.Error(err)
		}
	})
	for _, at := range []time.Duration{7 * time.Minute, 26 * time.Minute, 45 * time.Minute} {
		rt.Sim.At(sim.Time(at), func(sim.Time) { killRunning(t, rt, 1) })
	}
	rt.RunUntil(sim.Time(3 * time.Hour))
	b, err := json.Marshal(events)
	if err != nil {
		t.Fatal(err)
	}
	return b, retried
}

// TestSchedulerDeterminism replays the same tenanted scenario, kills and
// requeues included, twice and demands bit-identical event traces: the
// scheduler must stay inside the deterministic-simulation envelope.
func TestSchedulerDeterminism(t *testing.T) {
	a, retried := schedScenarioTrace(t)
	if retried == 0 {
		t.Fatal("no kill requeued an activity")
	}
	b, _ := schedScenarioTrace(t)
	if !bytes.Equal(a, b) {
		t.Fatal("event traces diverged between identical runs")
	}
}
