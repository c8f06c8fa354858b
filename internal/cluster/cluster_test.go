package cluster

import (
	"errors"
	"math"
	"testing"
	"time"

	"bioopera/internal/sim"
)

// ended is a completion with the virtual time its handler ran. The tests
// start their jobs at time 0, so At is also how long a job took.
type ended struct {
	Completion
	At sim.Time
}

// testCluster builds a 2-node × 2-CPU cluster collecting completions and
// events.
func testCluster(t *testing.T) (*sim.Sim, *Cluster, *[]ended, *[]Event) {
	t.Helper()
	s := sim.New(1)
	var comps []ended
	var events []Event
	spec := Spec{Name: "test", Nodes: []NodeSpec{
		{Name: "n1", CPUs: 2, Speed: 1.0, OS: "linux"},
		{Name: "n2", CPUs: 2, Speed: 0.5, OS: "solaris"},
	}}
	c := New(s, spec, Options{})
	c.SetHandlers(func(cp Completion) { comps = append(comps, ended{cp, s.Now()}) }, func(e Event) { events = append(events, e) })
	return s, c, &comps, &events
}

func TestSpecs(t *testing.T) {
	if got := IkSun().TotalCPUs(); got != 5 {
		t.Errorf("ik-sun CPUs = %d, want 5", got)
	}
	if got := IkLinux().TotalCPUs(); got != 16 {
		t.Errorf("ik-linux CPUs = %d, want 16", got)
	}
	if got := Linneus().TotalCPUs(); got != 38 {
		t.Errorf("linneus CPUs = %d, want 38", got)
	}
	if got := SharedRunSpec().TotalCPUs(); got != 40 {
		t.Errorf("shared-run CPUs = %d, want 40", got)
	}
	// Node names unique across the shared spec.
	seen := map[string]bool{}
	for _, n := range SharedRunSpec().Nodes {
		if seen[n.Name] {
			t.Errorf("duplicate node name %s", n.Name)
		}
		seen[n.Name] = true
	}
}

func TestJobRunsForCost(t *testing.T) {
	s, c, comps, _ := testCluster(t)
	if err := c.Start("j1", "n1", 10*time.Second, false); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if len(*comps) != 1 {
		t.Fatalf("completions = %d", len(*comps))
	}
	cp := (*comps)[0]
	if cp.Err != nil || cp.Job != "j1" || cp.Node != "n1" {
		t.Fatalf("completion = %+v", cp)
	}
	// Speed 1.0, no load: wall == cost == cpu.
	if wall := time.Duration(cp.At); wall != 10*time.Second {
		t.Fatalf("wall = %v", wall)
	}
	if d := cp.CPUTime - 10*time.Second; d < -time.Millisecond || d > time.Millisecond {
		t.Fatalf("cpu = %v", cp.CPUTime)
	}
}

func TestSlowNodeTakesLonger(t *testing.T) {
	s, c, comps, _ := testCluster(t)
	c.Start("fast", "n1", 10*time.Second, false)
	c.Start("slow", "n2", 10*time.Second, false) // speed 0.5
	s.Run()
	var fast, slow ended
	for _, cp := range *comps {
		if cp.Job == "fast" {
			fast = cp
		} else {
			slow = cp
		}
	}
	if slow.At != 2*fast.At {
		t.Fatalf("slow wall %v, fast wall %v", slow.At, fast.At)
	}
}

func TestCPUSlotLimit(t *testing.T) {
	_, c, _, _ := testCluster(t)
	if err := c.Start("a", "n1", time.Hour, false); err != nil {
		t.Fatal(err)
	}
	if err := c.Start("b", "n1", time.Hour, false); err != nil {
		t.Fatal(err)
	}
	err := c.Start("d", "n1", time.Hour, false)
	if !errors.Is(err, ErrNoFreeCPU) {
		t.Fatalf("third job on 2-cpu node: %v", err)
	}
	if err := c.Start("a", "n2", time.Hour, false); err == nil {
		// duplicate ids on other nodes are allowed at the cluster
		// level? no — only per node; this should succeed.
	}
	if got := c.BusyCPUs(); got != 3 {
		t.Fatalf("BusyCPUs = %d", got)
	}
}

func TestUnknownNode(t *testing.T) {
	_, c, _, _ := testCluster(t)
	if err := c.Start("x", "ghost", time.Second, false); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("err = %v", err)
	}
	if _, err := c.Node("ghost"); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("err = %v", err)
	}
}

func TestNiceJobSlowsUnderExternalLoad(t *testing.T) {
	s, c, comps, _ := testCluster(t)
	c.SetExternalLoad("n1", 0.5)
	c.Start("nice", "n1", 10*time.Second, true)
	s.Run()
	cp := (*comps)[0]
	// share = 0.5 → wall = 20s, cpu = 10s.
	if wall := time.Duration(cp.At); wall != 20*time.Second {
		t.Fatalf("wall = %v, want 20s", wall)
	}
	if d := cp.CPUTime - 10*time.Second; d < -time.Millisecond || d > time.Millisecond {
		t.Fatalf("cpu = %v, want 10s", cp.CPUTime)
	}
}

func TestNonNiceIgnoresLoad(t *testing.T) {
	s, c, comps, _ := testCluster(t)
	c.SetExternalLoad("n1", 0.9)
	c.Start("rude", "n1", 10*time.Second, false)
	s.Run()
	if wall := time.Duration((*comps)[0].At); wall != 10*time.Second {
		t.Fatalf("non-nice wall = %v", wall)
	}
}

func TestLoadChangeMidJob(t *testing.T) {
	s, c, comps, _ := testCluster(t)
	c.Start("j", "n1", 10*time.Second, true)
	// After 5s of full speed (5s of work done), load hits 0.5 → the
	// remaining 5s of work takes 10s more. Total wall 15s.
	s.At(sim.Time(5*time.Second), func(sim.Time) { c.SetExternalLoad("n1", 0.5) })
	s.Run()
	cp := (*comps)[0]
	if wall := time.Duration(cp.At); wall != 15*time.Second {
		t.Fatalf("wall = %v, want 15s", wall)
	}
	// CPU = 5s (full) + 10s×0.5 = 10s.
	if d := cp.CPUTime - 10*time.Second; d < -time.Millisecond || d > time.Millisecond {
		t.Fatalf("cpu = %v, want 10s", cp.CPUTime)
	}
}

func TestNiceNeverStarves(t *testing.T) {
	s, c, comps, _ := testCluster(t)
	c.SetExternalLoad("n1", 1.0) // fully busy with other users
	c.Start("j", "n1", time.Second, true)
	s.Run()
	if len(*comps) != 1 {
		t.Fatal("job starved forever under full load")
	}
}

func TestCrashFailsRunningJobs(t *testing.T) {
	s, c, comps, events := testCluster(t)
	c.Start("a", "n1", time.Hour, false)
	c.Start("b", "n1", time.Hour, false)
	s.At(sim.Time(time.Minute), func(sim.Time) { c.CrashNode("n1") })
	s.Run()
	if len(*comps) != 2 {
		t.Fatalf("completions = %d", len(*comps))
	}
	for _, cp := range *comps {
		if !errors.Is(cp.Err, ErrNodeFailed) {
			t.Fatalf("completion err = %v", cp.Err)
		}
		if cp.At != sim.Time(time.Minute) {
			t.Fatalf("failure at %v", cp.At)
		}
	}
	// Node is down: no new jobs.
	if err := c.Start("c", "n1", time.Second, false); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("start on crashed node: %v", err)
	}
	// Availability reflects it.
	if got := c.AvailableCPUs(); got != 2 {
		t.Fatalf("AvailableCPUs = %d, want 2 (only n2)", got)
	}
	var sawDown bool
	for _, e := range *events {
		if e.Type == EvNodeDown && e.Node == "n1" {
			sawDown = true
		}
	}
	if !sawDown {
		t.Fatal("no node-down event")
	}
}

func TestRestoreNode(t *testing.T) {
	s, c, comps, _ := testCluster(t)
	c.CrashNode("n1")
	c.RestoreNode("n1")
	if err := c.Start("j", "n1", time.Second, false); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if len(*comps) != 1 || (*comps)[0].Err != nil {
		t.Fatalf("completions = %+v", comps)
	}
	// Idempotent.
	if err := c.RestoreNode("n1"); err != nil {
		t.Fatal(err)
	}
	if err := c.CrashNode("ghost"); !errors.Is(err, ErrUnknownNode) {
		t.Fatal(err)
	}
}

func TestKill(t *testing.T) {
	s, c, comps, _ := testCluster(t)
	c.Start("victim", "n1", time.Hour, false)
	s.At(sim.Time(time.Minute), func(sim.Time) {
		if err := c.Kill("victim", "n1"); err != nil {
			t.Errorf("Kill: %v", err)
		}
	})
	s.Run()
	if len(*comps) != 1 || !errors.Is((*comps)[0].Err, ErrJobKilled) {
		t.Fatalf("completions = %+v", *comps)
	}
	if err := c.Kill("victim", "n1"); err == nil {
		t.Fatal("double kill succeeded")
	}
}

func TestSetCPUs(t *testing.T) {
	_, c, _, _ := testCluster(t)
	if err := c.SetCPUs("n1", 4); err != nil {
		t.Fatal(err)
	}
	v, _ := c.Node("n1")
	if v.CPUs != 4 || v.FreeSlots() != 4 {
		t.Fatalf("view = %+v", v)
	}
	for i := 0; i < 4; i++ {
		if err := c.Start(JobID(rune('a'+i)), "n1", time.Hour, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Start("e", "n1", time.Hour, false); !errors.Is(err, ErrNoFreeCPU) {
		t.Fatal("upgrade did not bound slots")
	}
	if err := c.SetCPUs("n1", 0); err == nil {
		t.Fatal("0 cpus accepted")
	}
}

func TestLoadMetric(t *testing.T) {
	_, c, _, _ := testCluster(t)
	if got := c.Load("n1"); got != 0 {
		t.Fatalf("idle load = %v", got)
	}
	c.Start("j", "n1", time.Hour, false)
	if got := c.Load("n1"); got != 0.5 {
		t.Fatalf("1-of-2 load = %v", got)
	}
	c.SetExternalLoad("n1", 0.8)
	if got := c.Load("n1"); got != 1 {
		t.Fatalf("clamped load = %v", got)
	}
	c.CrashNode("n1")
	if got := c.Load("n1"); got != 0 {
		t.Fatalf("down-node load = %v", got)
	}
}

func TestRunningOnAndViews(t *testing.T) {
	_, c, _, _ := testCluster(t)
	c.Start("a", "n1", time.Hour, false)
	ids := c.RunningOn("n1")
	if len(ids) != 1 || ids[0] != "a" {
		t.Fatalf("RunningOn = %v", ids)
	}
	views := c.Nodes()
	if len(views) != 2 || views[0].Name != "n1" || views[1].Name != "n2" {
		t.Fatalf("views = %+v", views)
	}
	if views[0].Running != 1 || views[1].Running != 0 {
		t.Fatalf("running counts = %+v", views)
	}
	if views[1].EffectiveSpeed() != 0.5 {
		t.Fatalf("effective speed = %v", views[1].EffectiveSpeed())
	}
}

func TestAdaptiveMonitorStableLoadDiscards(t *testing.T) {
	s := sim.New(3)
	load := 0.4 // perfectly stable
	var trace LoadTrace
	m := NewAdaptiveMonitor(s, DefaultMonitorConfig(),
		func() float64 { return load },
		func(at sim.Time, l float64) { trace.Add(at, l) })
	s.RunUntil(sim.Time(24 * time.Hour))
	m.Stop()
	if m.Samples < 10 {
		t.Fatalf("samples = %d", m.Samples)
	}
	if m.Reports != 1 {
		t.Fatalf("stable load reported %d times, want 1", m.Reports)
	}
	if m.DiscardFraction() < 0.9 {
		t.Fatalf("discard fraction = %v", m.DiscardFraction())
	}
	// Server view settles at the true value.
	if got := trace.At(sim.Time(12 * time.Hour)); got != 0.4 {
		t.Fatalf("server view = %v", got)
	}
}

func TestAdaptiveMonitorTracksChanges(t *testing.T) {
	s := sim.New(3)
	var load float64
	truth := func(x sim.Time) float64 {
		if x >= sim.Time(time.Hour) && x < sim.Time(2*time.Hour) {
			return 0.9
		}
		return 0.1
	}
	s.At(0, func(sim.Time) { load = 0.1 })
	s.At(sim.Time(time.Hour), func(sim.Time) { load = 0.9 })
	s.At(sim.Time(2*time.Hour), func(sim.Time) { load = 0.1 })
	var trace LoadTrace
	m := NewAdaptiveMonitor(s, DefaultMonitorConfig(),
		func() float64 { return load },
		func(at sim.Time, l float64) { trace.Add(at, l) })
	s.RunUntil(sim.Time(4 * time.Hour))
	m.Stop()
	if len(trace.times) < 3 {
		t.Fatalf("reports = %d, want ≥ 3 (both transitions seen)", len(trace.times))
	}
	err := trace.MeanAbsError(truth, sim.Time(4*time.Hour), time.Minute)
	// Error must be small despite discarding most samples.
	if err > 0.08 {
		t.Fatalf("mean abs error = %v", err)
	}
	if m.DiscardFraction() < 0.5 {
		t.Fatalf("discard fraction = %v, want mostly discarded", m.DiscardFraction())
	}
}

func TestLoadTraceAt(t *testing.T) {
	var tr LoadTrace
	if tr.At(sim.Time(5)) != 0 {
		t.Fatal("empty trace should read 0")
	}
	tr.Add(sim.Time(10*time.Second), 0.5)
	tr.Add(sim.Time(20*time.Second), 0.8)
	cases := []struct {
		at   time.Duration
		want float64
	}{
		{5 * time.Second, 0},
		{10 * time.Second, 0.5},
		{15 * time.Second, 0.5},
		{20 * time.Second, 0.8},
		{99 * time.Second, 0.8},
	}
	for _, c := range cases {
		if got := tr.At(sim.Time(c.at)); got != c.want {
			t.Fatalf("At(%v) = %v, want %v", c.at, got, c.want)
		}
	}
}

func TestLoadGenDeterministicAndBounded(t *testing.T) {
	run := func() []Event {
		s := sim.New(77)
		var events []Event
		c := New(s, IkLinux(), Options{})
		c.SetHandlers(nil, func(e Event) { events = append(events, e) })
		NewLoadGen(c, LoadGenConfig{
			MeanIdle:  time.Hour,
			MeanBurst: 30 * time.Minute,
			LevelLo:   0.3,
			LevelHi:   0.9,
		})
		s.RunUntil(sim.Time(48 * time.Hour))
		return events
	}
	a := run()
	b := run()
	if len(a) == 0 {
		t.Fatal("load generator produced no events in 48h")
	}
	if len(a) != len(b) {
		t.Fatalf("non-deterministic: %d vs %d events", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestLoadGenFillPattern(t *testing.T) {
	s := sim.New(5)
	c := New(s, IkLinux(), Options{})
	NewLoadGen(c, LoadGenConfig{
		MeanIdle:  time.Hour,
		MeanBurst: time.Hour,
		LevelLo:   0.5,
		LevelHi:   0.5,
		Fill:      true,
	})
	// Sample during the simulation: whenever any node is loaded, all
	// must be equally loaded.
	violations := 0
	s.Every(10*time.Minute, func(sim.Time) {
		views := c.Nodes()
		first := views[0].ExtLoad
		for _, v := range views {
			if math.Abs(v.ExtLoad-first) > 1e-9 {
				violations++
			}
		}
	})
	s.RunUntil(sim.Time(72 * time.Hour))
	if violations > 0 {
		t.Fatalf("fill pattern violated on %d samples", violations)
	}
}
