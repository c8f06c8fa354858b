package allvsall

import (
	"math"
	"testing"
	"time"

	"bioopera/internal/cluster"
	"bioopera/internal/core"
	"bioopera/internal/darwin"
	"bioopera/internal/ocr"
	"bioopera/internal/sim"
)

func TestProcessParsesAndValidates(t *testing.T) {
	p, err := ocr.ParseProcess(Source)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Name != TemplateName {
		t.Fatalf("name = %q", p.Name)
	}
	al := p.Task("Alignment")
	if al == nil || !al.Parallel {
		t.Fatal("Alignment block wrong")
	}
	// Round trip through the printer (the persistence format).
	p2, err := ocr.ParseProcess(ocr.Format(p))
	if err != nil {
		t.Fatal(err)
	}
	if ocr.Format(p2) != ocr.Format(p) {
		t.Fatal("format round trip unstable")
	}
}

// runtime builds a sim runtime with the all-vs-all programs registered.
func runtime(t *testing.T, cfg *Config, spec cluster.Spec) *core.SimRuntime {
	t.Helper()
	lib := core.NewLibrary()
	if err := Register(lib, cfg); err != nil {
		t.Fatal(err)
	}
	rt, err := core.NewSimRuntime(core.SimConfig{Seed: 1, Spec: spec, Library: lib})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Engine.RegisterTemplateSource(Source); err != nil {
		t.Fatal(err)
	}
	return rt
}

func run(t *testing.T, rt *core.SimRuntime, inputs map[string]ocr.Value) *core.Instance {
	t.Helper()
	id, err := rt.Engine.StartProcess(TemplateName, inputs, core.StartOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rt.Run()
	in, _ := rt.Engine.Instance(id)
	if in.Status != core.InstanceDone {
		t.Fatalf("instance %s: %s (%s)", id, in.Status, in.FailureReason)
	}
	return in
}

func TestRealModeMatchesSerial(t *testing.T) {
	// The engine-run all-vs-all must produce exactly the matches of the
	// in-process serial computation, for several granularities.
	ds := darwin.Generate(darwin.GenOptions{N: 18, MeanLen: 50, Seed: 11, FamilyFraction: 0.5, FamilyPAM: 35})
	cfg := &Config{Dataset: ds}
	want := darwin.AllVsAllSerial(ds, cfg.Fixed, darwin.RefineOptions{})

	for _, teus := range []int{1, 4, 9} {
		rt := runtime(t, cfg, cluster.IkSun())
		in := run(t, rt, cfg.Inputs(teus))
		got, err := DecodeMatches(in.Outputs["master_file"])
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("teus=%d: %d matches, want %d", teus, len(got), len(want))
		}
		for i := range got {
			if got[i].A != want[i].A || got[i].B != want[i].B ||
				math.Abs(got[i].Score-want[i].Score) > 1e-9 {
				t.Fatalf("teus=%d: match %d = %+v, want %+v", teus, i, got[i], want[i])
			}
		}
		if in.Outputs["match_count"].AsInt() != len(want) {
			t.Fatalf("match_count = %v", in.Outputs["match_count"])
		}
		// PAM-sorted output is the same set ordered by distance.
		pam, err := DecodeMatches(in.Outputs["pam_sorted_file"])
		if err != nil {
			t.Fatal(err)
		}
		if len(pam) != len(want) {
			t.Fatalf("pam file has %d matches", len(pam))
		}
		for i := 1; i < len(pam); i++ {
			if pam[i].PAM < pam[i-1].PAM {
				t.Fatalf("pam file not sorted at %d", i)
			}
		}
	}
}

func TestQueueGenerationBranch(t *testing.T) {
	ds := darwin.Generate(darwin.GenOptions{N: 10, MeanLen: 40, Seed: 3})
	cfg := &Config{Dataset: ds}

	// Without a queue file: QueueGeneration runs (activities: UserInput
	// + QueueGeneration + Partition + 2×TEUs + 2 merges).
	rt := runtime(t, cfg, cluster.IkSun())
	in := run(t, rt, cfg.Inputs(2))
	if in.Activities != 1+1+1+4+2 {
		t.Fatalf("activities without queue = %d", in.Activities)
	}

	// With a queue file: QueueGeneration is skipped.
	rt2 := runtime(t, cfg, cluster.IkSun())
	in2 := run(t, rt2, cfg.InputsWithQueue(2, 0, 10))
	if in2.Activities != 1+1+4+2 {
		t.Fatalf("activities with queue = %d", in2.Activities)
	}
}

func TestPartialQueueReruns(t *testing.T) {
	// The paper's discard/re-run mechanism: align only entries [5, 12).
	ds := darwin.Generate(darwin.GenOptions{N: 15, MeanLen: 45, Seed: 8, FamilyFraction: 0.6, FamilyPAM: 30})
	cfg := &Config{Dataset: ds}
	rt := runtime(t, cfg, cluster.IkSun())
	in := run(t, rt, cfg.InputsWithQueue(3, 5, 7))
	got, err := DecodeMatches(in.Outputs["master_file"])
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range got {
		if m.A < 5 || m.B >= 12 {
			t.Fatalf("match %+v outside queue range [5,12)", m)
		}
	}
}

func TestSimulatedModeCosts(t *testing.T) {
	// Simulated mode on a big dataset: virtual CPU must scale with the
	// cost model, and wall time must show real parallelism.
	ds := darwin.Generate(darwin.GenOptions{N: 200, MeanLen: 120, Seed: 5})
	cfg := &Config{Dataset: ds, Simulate: true}
	rt := runtime(t, cfg, cluster.IkSun()) // 5 CPUs
	start := time.Now()
	in := run(t, rt, cfg.Inputs(20))
	elapsed := time.Since(start)

	if elapsed > 5*time.Second {
		t.Fatalf("simulated run took %v of real time", elapsed)
	}
	wall := in.WALL(rt.Sim.Now())
	if in.CPU < wall {
		t.Fatalf("cpu %v < wall %v: no parallelism achieved", in.CPU, wall)
	}
	if in.CPU > 10*wall {
		t.Fatalf("cpu %v vs wall %v: more parallelism than CPUs", in.CPU, wall)
	}
	// Expected match count flows through the merges.
	if in.Outputs["match_count"].AsInt() <= 0 {
		t.Fatal("simulated match count missing")
	}
	if in.Outputs["master_file"].AsStr() != "master" {
		t.Fatalf("master_file = %v", in.Outputs["master_file"])
	}
}

func TestSimulatedGranularityTradeoffCPU(t *testing.T) {
	// More TEUs → more Darwin init overhead → more total CPU (the rising
	// curve of Fig. 4).
	ds := darwin.Generate(darwin.GenOptions{N: 100, MeanLen: 100, Seed: 7})
	cpu := func(teus int) time.Duration {
		cfg := &Config{Dataset: ds, Simulate: true}
		rt := runtime(t, cfg, cluster.IkSun())
		in := run(t, rt, cfg.Inputs(teus))
		return in.CPU
	}
	c1, c20, c100 := cpu(1), cpu(20), cpu(100)
	if !(c1 < c20 && c20 < c100) {
		t.Fatalf("CPU not increasing with granularity: %v, %v, %v", c1, c20, c100)
	}
}

func TestRefineNodeAffinity(t *testing.T) {
	// Pin refinement to one node (the §5.4 dedicated-cluster setup) and
	// verify every refine activity ran there.
	ds := darwin.Generate(darwin.GenOptions{N: 12, MeanLen: 40, Seed: 2})
	spec := cluster.Spec{Name: "two", Nodes: []cluster.NodeSpec{
		{Name: "fast", CPUs: 2, Speed: 1, OS: "linux"},
		{Name: "refiner", CPUs: 2, Speed: 0.5, OS: "solaris"},
	}}
	cfg := &Config{Dataset: ds, RefineNodes: []string{"refiner"}}
	lib := core.NewLibrary()
	if err := Register(lib, cfg); err != nil {
		t.Fatal(err)
	}
	var misplaced []string
	rt, err := core.NewSimRuntime(core.SimConfig{
		Seed: 1, Spec: spec, Library: lib,
		Options: core.Options{OnEvent: func(ev core.Event) {
			if ev.Kind == core.EvTaskDispatched && ev.Task == "PAMRefinement" && ev.Node != "refiner" {
				misplaced = append(misplaced, ev.Node)
			}
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Engine.RegisterTemplateSource(Source); err != nil {
		t.Fatal(err)
	}
	run(t, rt, cfg.Inputs(4))
	if len(misplaced) > 0 {
		t.Fatalf("refinement ran on %v", misplaced)
	}
}

func TestSurvivesNodeChurn(t *testing.T) {
	// Crash-and-restore cycling through all nodes; the process must
	// finish with the right answer anyway.
	ds := darwin.Generate(darwin.GenOptions{N: 16, MeanLen: 45, Seed: 9, FamilyFraction: 0.5})
	cfg := &Config{Dataset: ds}
	want := darwin.AllVsAllSerial(ds, cfg.Fixed, darwin.RefineOptions{})

	rt := runtime(t, cfg, cluster.IkSun())
	names := make([]string, 0, 5)
	for _, v := range rt.Cluster.Nodes() {
		names = append(names, v.Name)
	}
	for i, n := range names {
		n := n
		down := sim.Time(time.Duration(i+1) * 2 * time.Second)
		rt.Sim.At(down, func(sim.Time) { rt.Cluster.CrashNode(n) })
		rt.Sim.At(down+sim.Time(3*time.Second), func(sim.Time) { rt.Cluster.RestoreNode(n) })
	}
	in := run(t, rt, cfg.Inputs(8))
	got, err := DecodeMatches(in.Outputs["master_file"])
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("matches after churn = %d, want %d", len(got), len(want))
	}
	if in.Failures == 0 {
		t.Fatal("churn produced no failures — crashes did not hit running work")
	}
}

func TestBadInputsFailCleanly(t *testing.T) {
	ds := darwin.Generate(darwin.GenOptions{N: 8, MeanLen: 40, Seed: 4})
	cfg := &Config{Dataset: ds}
	rt := runtime(t, cfg, cluster.IkSun())
	id, err := rt.Engine.StartProcess(TemplateName, map[string]ocr.Value{
		"db_name":      ocr.Str("wrong-db"),
		"output_files": ocr.Str("x"),
		"n_teus":       ocr.Int(2),
	}, core.StartOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rt.Run()
	in, _ := rt.Engine.Instance(id)
	if in.Status != core.InstanceFailed {
		t.Fatalf("status = %s", in.Status)
	}

	// Out-of-range queue.
	rt2 := runtime(t, cfg, cluster.IkSun())
	id2, _ := rt2.Engine.StartProcess(TemplateName, cfg.InputsWithQueue(2, 5, 100), core.StartOptions{})
	rt2.Run()
	in2, _ := rt2.Engine.Instance(id2)
	if in2.Status != core.InstanceFailed {
		t.Fatalf("out-of-range queue: status = %s", in2.Status)
	}
}

func TestTEUCountClamped(t *testing.T) {
	ds := darwin.Generate(darwin.GenOptions{N: 6, MeanLen: 40, Seed: 6})
	cfg := &Config{Dataset: ds}
	rt := runtime(t, cfg, cluster.IkSun())
	// 100 TEUs over 6 entries → clamped to 6.
	in := run(t, rt, cfg.Inputs(100))
	// activities = UserInput + QueueGen + Partition + 2×6 + 2 merges.
	if in.Activities != 3+12+2 {
		t.Fatalf("activities = %d", in.Activities)
	}
}
